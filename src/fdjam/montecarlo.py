"""Seeded, chunk-reproducible Monte Carlo over unit-mean exponentials.

Every probabilistic quantity in the package reduces to expectations of
functions of i.i.d. Exp(1) variates (Rayleigh fading power gains).  The
engine owns one counter-based stream per chunk, derived from
(seed, chunk index), so results are bit-identical for a fixed config no
matter how chunks would be scheduled; the reduction order is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "MCConfig",
    "Estimate",
    "sample_exp",
    "sample_matrix",
    "exp_chunks",
    "estimate",
    "ecdf",
]


@dataclass(frozen=True)
class MCConfig:
    seed: int
    n_samples: int
    chunk: int = 2**16

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParameterError(f"seed must fit in 64 bits, got {self.seed}")
        if self.n_samples < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.chunk < 1:
            raise InvalidParameterError(f"chunk must be >= 1, got {self.chunk}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.6g} +- {self.stderr:.2g} (n={self.n})"


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def exp_chunks(config: MCConfig, draws_per_sample: int = 1) -> Iterator[np.ndarray]:
    """Yield Exp(1) chunks of shape (m,) or (m, draws_per_sample).

    Inverse CDF -log(1-u) with u in [0, 1), so the argument of log never
    reaches 0 and draws are finite.
    """
    if draws_per_sample < 1:
        raise InvalidParameterError("draws_per_sample must be >= 1")
    remaining = config.n_samples
    index = 0
    while remaining > 0:
        m = min(config.chunk, remaining)
        rng = _chunk_rng(config.seed, index)
        shape = (m,) if draws_per_sample == 1 else (m, draws_per_sample)
        u = rng.random(shape)
        yield -np.log1p(-u)
        remaining -= m
        index += 1


def sample_exp(config: MCConfig) -> np.ndarray:
    """All n_samples Exp(1) draws as one array."""
    return np.concatenate(list(exp_chunks(config)))


def sample_matrix(config: MCConfig, draws_per_sample: int) -> np.ndarray:
    """All draws as an (n_samples, draws_per_sample) matrix."""
    chunks = list(exp_chunks(config, draws_per_sample))
    return np.concatenate(chunks, axis=0)


def _chunk_stats(values: np.ndarray) -> tuple[int, float, float]:
    n = values.size
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:  # constant chunk: zero spread exactly, no rounding residue
        return n, lo, 0.0
    mean = float(values.mean())
    m2 = float(np.sum((values - mean) ** 2))
    return n, mean, m2


def estimate(
    f: Callable[[np.ndarray], np.ndarray],
    config: MCConfig,
    draws_per_sample: int = 1,
) -> Estimate | tuple[Estimate, ...]:
    """Mean and standard error of f over the configured sample stream.

    f maps a chunk of draws (shape (m,) or (m, k)) to m scalars, or to an
    (m, q) array of q quantities per sample, and must be a pure function of
    its argument.  Chunks are combined with the parallel Welford update in
    increasing chunk order, per column; an (m, q) f gives a tuple of q
    Estimates, each equal bit for bit to a call whose f returns that column.
    """
    totals: list[tuple[int, float, float]] | None = None
    for u in exp_chunks(config, draws_per_sample):
        values = np.asarray(f(u), dtype=float)
        if values.ndim not in (1, 2) or values.shape[0] != u.shape[0]:
            raise InvalidParameterError(
                f"f must return one scalar or one row per sample, got shape {values.shape}"
            )
        # contiguous columns reduce in the same order as a 1-D f would
        cols = [values] if values.ndim == 1 else list(np.ascontiguousarray(values.T))
        if totals is not None and len(cols) != len(totals):
            raise InvalidParameterError(f"f changed its column count to {len(cols)}")
        stats = [_chunk_stats(col) for col in cols]
        totals = stats if totals is None else [_welford(t, s) for t, s in zip(totals, stats)]
    out = tuple(_finish(*t) for t in totals)
    return out[0] if values.ndim == 1 else out


def _welford(total: tuple[int, float, float], chunk: tuple[int, float, float]) -> tuple[int, float, float]:
    n_tot, mean_tot, m2_tot = total
    n, mean, m2 = chunk
    delta = mean - mean_tot
    n_new = n_tot + n
    return n_new, mean_tot + delta * (n / n_new), m2_tot + m2 + delta * delta * (n_tot * n / n_new)


def _finish(n_tot: int, mean_tot: float, m2_tot: float) -> Estimate:
    if n_tot < 2:
        return Estimate(mean=mean_tot, stderr=0.0, n=n_tot)
    return Estimate(mean=mean_tot, stderr=math.sqrt(m2_tot / (n_tot - 1) / n_tot), n=n_tot)


def ecdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Empirical CDF of values evaluated at each grid point.

    Right-continuous: F(t) = fraction of values <= t.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        raise InvalidParameterError("ecdf needs at least one value")
    grid = np.asarray(grid, dtype=float)
    return np.searchsorted(values, grid, side="right") / values.size
