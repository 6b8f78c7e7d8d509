"""Seeded Monte Carlo over unit-mean exponentials, from one stream per seed.

Every probabilistic quantity in the package reduces to expectations of
functions of i.i.d. Exp(1) variates (Rayleigh fading power gains).  They
all come from one stream per seed, Generator(PCG64DXSM(seed)): a caller
that takes k draws per sample gives sample i the uniforms [i*k, (i+1)*k),
each mapped to Exp(1) by -log1p(-u).  The stream yields the same uniforms
however the calls split them, and its advance() opens it at any uniform,
so the draws depend on (seed, n) alone; _BLOCK only bounds memory, and
the reduction order is fixed.  Every reader holds a few _BLOCK-sized
temporaries whatever n is; only sample_matrix returns every draw at once
(verify, the fading-secrecy field, the tests).
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "MCConfig",
    "Estimate",
    "sample_matrix",
    "exp_chunks",
    "estimate",
    "ecdf",
]

_BLOCK = 2**16  # samples per block of exp_chunks, estimate, ecdf and _cell_means


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# lanes of _run_lanes: _cell_means, the policy rows
_LANES = min(2, _usable_cpus())


def _run_lanes(lane: Callable[[int, int], Iterator], size: int, min_share: int = 1) -> None:
    """Run lane(lo, hi) on contiguous ranges of range(size): the first on the calling
    thread, each other one on a threading.Thread of its own.

    Each of min(_LANES, ceil(size/min_share)) lanes gets one equal range.
    lane() is called on the calling thread, which owns what it allocates;
    the iterator it returns does one block per step.  Once a lane raises,
    the others stop at their next step; the workers are joined and the
    first failure is raised on the caller.  numpy releases the GIL inside
    its loops, so one lane computes while another holds the interpreter;
    with no free second CPU, two lanes run no faster than one.
    """
    lanes = max(1, min(_LANES, -(-size // min_share)))
    step = max(1, -(-size // lanes))
    failed: list[BaseException] = []

    def drive(blocks: Iterator) -> None:
        try:
            for _ in blocks:
                if failed:  # another lane failed; its error is the one raised
                    return
        except BaseException as exc:  # re-raised on the calling thread once every lane has stopped
            failed.append(exc)

    blocks = [lane(lo, min(lo + step, size)) for lo in range(0, max(size, 1), step)]  # size 0: one empty lane
    workers = [threading.Thread(target=drive, args=(b,)) for b in blocks[1:]]
    for w in workers:
        w.start()
    try:
        drive(blocks[0])
    finally:
        for w in workers:
            w.join()
    if failed:
        raise failed[0]


@dataclass(frozen=True)
class MCConfig:
    seed: int
    n_samples: int

    def __post_init__(self) -> None:
        try:  # Python and numpy integers only: a float would be truncated, or fail later untyped
            seed, n = operator.index(self.seed), operator.index(self.n_samples)
        except TypeError:
            raise InvalidParameterError(f"seed and n_samples must be integers, got {self.seed!r}, {self.n_samples!r}") from None
        if not 0 <= seed < 2**64:
            raise InvalidParameterError(f"seed must fit in 64 bits, got {self.seed}")
        if n < 1:
            raise InvalidParameterError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.6g} +- {self.stderr:.2g} (n={self.n})"


def _stream(seed: int, word: int = 0) -> np.random.Generator:
    """The one stream of a seed, opened at its uniform number `word`.

    Every caller consumes it in sample order.  PCG64DXSM spends one 64-bit
    output on each uniform, and advance(w) jumps its state over w outputs in
    O(log w) steps: the same draws as the stream from word 0 after w uniforms.
    """
    return np.random.Generator(np.random.PCG64DXSM(seed).advance(word))


def _exp_draws(rng: np.random.Generator, shape: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """The stream's next Exp(1) draws -log1p(-u), computed in place so one array is alive.

    out, of the given shape, receives them instead of a new array.  u lies
    in [0, 1), so the argument of log never reaches 0 and draws are finite.
    """
    u = rng.random(shape, out=out)
    np.log1p(np.negative(u, out=u), out=u)
    return np.negative(u, out=u)


def exp_chunks(config: MCConfig, draws_per_sample: int = 1) -> Iterator[np.ndarray]:
    """Yield the stream in blocks of at most _BLOCK samples, shape (m,) or (m, draws_per_sample)."""
    if draws_per_sample < 1:
        raise InvalidParameterError("draws_per_sample must be >= 1")
    rng = _stream(config.seed)
    for done in range(0, config.n_samples, _BLOCK):
        m = min(_BLOCK, config.n_samples - done)
        yield _exp_draws(rng, (m,) if draws_per_sample == 1 else (m, draws_per_sample))


def sample_matrix(config: MCConfig, draws_per_sample: int) -> np.ndarray:
    """All draws as one (n_samples, draws_per_sample) matrix: exp_chunks' blocks, stacked."""
    if draws_per_sample < 1:
        raise InvalidParameterError("draws_per_sample must be >= 1")
    return _exp_draws(_stream(config.seed), (config.n_samples, draws_per_sample))


def _cell_means(f: Callable, cells: int, config: MCConfig, draws_per_sample: int) -> np.ndarray:
    """Per-cell means of f, shape (cells,): cell i owns the i-th block of n*k uniforms of the stream.

    f(span, e) maps a slice of cells and their (m, s, k) draws to (m, s)
    values.  The cells split into contiguous ranges, one per lane of
    _run_lanes; each lane opens the stream at its first cell's word and
    allocates its one buffer on the calling thread.  f takes blocks of
    whole cells, at most _BLOCK samples, and a cell with n > _BLOCK in
    sub-blocks of _BLOCK, so the means are the same bits on any number of lanes.
    """
    n, k = config.n_samples, draws_per_sample
    per, sub = max(1, _BLOCK // n), min(n, _BLOCK)
    total = np.zeros(cells)

    def lane(first: int, stop: int) -> Iterator:
        rng = _stream(config.seed, first * n * k)
        buf = np.empty(min(per, stop - first) * sub * k)

        def blocks() -> Iterator:
            for lo in range(first, stop, per):
                span = slice(lo, min(lo + per, stop))
                m = span.stop - lo
                for done in range(0, n, sub):
                    s = min(sub, n - done)
                    e = _exp_draws(rng, (m, s, k), out=buf[: m * s * k].reshape(m, s, k))
                    total[span] += f(span, e).sum(axis=1)
                yield

        return blocks()

    _run_lanes(lane, cells)
    return total / n


def _combine(total: tuple[int, float, float] | None, values: np.ndarray) -> tuple[int, float, float] | None:
    """The running (n, mean, m2) total, None for an empty stream, with the 1-D block values added:
    the block's two-pass moments merged by the parallel Welford update.  An empty block adds nothing."""
    n = values.size
    if n == 0:
        return total
    lo = float(values.min())
    mean = lo if lo == values.max() else float(values.mean())  # a constant block: zero spread exactly
    m2 = float(np.sum((values - mean) ** 2))
    if total is None:
        return n, mean, m2
    n_tot, mean_tot, m2_tot = total
    delta = mean - mean_tot
    n_new = n_tot + n
    return n_new, mean_tot + delta * (n / n_new), m2_tot + m2 + delta * delta * (n_tot * n / n_new)


def estimate(
    f: Callable[[np.ndarray], np.ndarray],
    config: MCConfig,
    draws_per_sample: int = 1,
) -> Estimate | tuple[Estimate, ...]:
    """Mean and standard error of f over the configured sample stream.

    f maps a block of draws (shape (m,) or (m, k)) to m scalars, or to an
    (m, q) array of q quantities per sample, and must be a pure function of
    its argument.  Blocks are combined with the parallel Welford update in
    stream order, per column; an (m, q) f gives a tuple of q Estimates,
    each equal bit for bit to a call whose f returns that column.
    """
    totals: list | None = None
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
        totals = [_combine(t, col) for t, col in zip(totals or [None] * len(cols), cols)]
    out = tuple(_finish(t) for t in totals)
    return out[0] if values.ndim == 1 else out


def _finish(total: tuple[int, float, float] | None) -> Estimate:
    """The Estimate of a _combine state; the empty stream is mean 0, stderr 0, n 0."""
    n_tot, mean_tot, m2_tot = total or (0, 0.0, 0.0)
    if n_tot < 2:
        return Estimate(mean=mean_tot, stderr=0.0, n=n_tot)
    return Estimate(mean=mean_tot, stderr=math.sqrt(m2_tot / (n_tot - 1) / n_tot), n=n_tot)


def ecdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Empirical CDF of values evaluated at each grid point, shaped like the grid.

    Right-continuous: F(t) = fraction of values <= t.  values of any shape
    count as one flat sample; a 0-d array is one value.  Each _BLOCK slice
    is sorted on its own and its counts at the grid are added up: the counts
    are exact integers, and NaN sorts last in every slice as in a full sort,
    so F has the bits of one full sort without an n-long sorted copy.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InvalidParameterError("ecdf needs at least one value")
    grid = np.asarray(grid, dtype=float)
    counts = np.zeros(grid.shape, dtype=np.intp)
    for lo in range(0, values.size, _BLOCK):
        counts += np.searchsorted(np.sort(values[lo : lo + _BLOCK]), grid, side="right")
    return counts / values.size
