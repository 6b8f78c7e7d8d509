"""Rectangular grid sweeps of every scalar field, with CSV/JSON export.

Grids are row-major with y as the slow axis, and every field kind is
computed with array operations over the whole grid.  A fading or prob-zero
field draws from one counter-based stream, Philox keyed by the seed: cell i
(row-major index) owns the i-th consecutive block of k*n uniforms (fading
secrecy k = 2, n = 1; colluding prob-zero k = 2; pairwise prob-zero k = 3),
each mapped to Exp(1) by -log1p(-u).  A cell's draws thus depend only on
(seed, cell index, n, k), not on evaluation order or on mc.chunk.  Exports
carry every parameter needed to regenerate a field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .colluding import _secrecy_array, p_j_opt_array
from .colluding_fading import _cond_prob_zero_array
from .errors import InvalidParameterError
from .geometry import SystemParams, gain_fields
from .montecarlo import MCConfig
from .pairwise import _secrecy_pair_array
from .pairwise_fading import _cond_prob_zero_pair_kernel

__all__ = [
    "GridSpec",
    "FieldGrid",
    "build_field",
    "build_region_grid",
    "build_optjam_grid",
    "grid_argmin",
    "grid_argmax",
    "write_csv",
    "read_csv",
    "write_json",
    "read_json",
]


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    step: float

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise InvalidParameterError(f"step must be > 0, got {self.step}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidParameterError("grid needs x_min < x_max and y_min < y_max")

    @property
    def nx(self) -> int:
        return math.floor((self.x_max - self.x_min) / self.step + 1)

    @property
    def ny(self) -> int:
        return math.floor((self.y_max - self.y_min) / self.step + 1)

    def xs(self) -> np.ndarray:
        return self.x_min + self.step * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y_min + self.step * np.arange(self.ny)


@dataclass
class FieldGrid:
    spec: GridSpec
    values: np.ndarray  # shape (ny, nx)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.ny, self.spec.nx):
            raise InvalidParameterError(
                f"values shape {self.values.shape} does not match grid ({self.spec.ny}, {self.spec.nx})"
            )


def _params_meta(params: SystemParams) -> dict:
    return {
        "p_t": params.p_t,
        "p_j": params.p_j,
        "rho": params.rho,
        "alpha": params.alpha,
        "delta": params.delta,
    }


def _field_rng(mc: MCConfig) -> np.random.Generator:
    """The one stream of a fading or prob-zero field; cells consume it in row-major order."""
    return np.random.Generator(np.random.Philox(key=mc.seed))


def _exp_draws(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Exp(1) draws -log1p(-u), computed in place so one array is alive."""
    u = rng.random(shape)
    np.log1p(np.negative(u, out=u), out=u)
    return np.negative(u, out=u)


def build_field(
    mode: str,
    params: SystemParams,
    grid: GridSpec,
    quantity: str = "secrecy",
    fading: bool = False,
    mc: MCConfig | None = None,
    pj_per_cell: str = "fixed",
) -> FieldGrid:
    """One scalar per grid cell.

    mode: "colluding" or "pairwise".
    quantity: "secrecy" (exact, or one fading draw per cell when
    fading=True) or "prob-zero" (per-cell Monte Carlo mean over the fading
    the link conditions on; needs mc; intended for coarse grids).
    pj_per_cell: "fixed" uses params.p_j everywhere; "opt" re-optimizes the
    colluding jamming power in every cell.
    """
    if mode not in ("colluding", "pairwise"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if quantity not in ("secrecy", "prob-zero"):
        raise InvalidParameterError(f"unknown quantity {quantity!r}")
    if pj_per_cell not in ("fixed", "opt"):
        raise InvalidParameterError(f"unknown pj_per_cell {pj_per_cell!r}")
    if pj_per_cell == "opt" and mode != "colluding":
        raise InvalidParameterError("per-cell optimal jamming applies to colluding mode only")
    needs_mc = quantity == "prob-zero" or fading
    if needs_mc and mc is None:
        raise InvalidParameterError("fading or prob-zero sweeps need an MCConfig")

    a_f, b_f = gain_fields(*np.meshgrid(grid.xs(), grid.ys()), params.alpha)
    p_j = params.p_j
    if pj_per_cell == "opt":
        p_j = p_j_opt_array(a_f, b_f, params.rho, params.p_t)

    if quantity == "prob-zero":
        values = _prob_zero_field(mode, params, a_f, b_f, p_j, mc)
    else:
        c = d = 1.0
        if fading:
            # one draw of the unknown Eve-side coefficients per cell; the
            # link-side coefficients stay at their means
            e = _exp_draws(_field_rng(mc), (a_f.size, 2))
            c, d = e[:, 0].reshape(a_f.shape), e[:, 1].reshape(a_f.shape)
        if mode == "pairwise":
            values, _, _ = _secrecy_pair_array(a_f, b_f, params.p_t, params.rho, p_j, c, d)
        else:
            values = _secrecy_array(a_f, b_f, params.p_t, params.rho, p_j, c, d)

    meta = {
        "mode": mode,
        "quantity": quantity,
        "fading": fading,
        "pj_per_cell": pj_per_cell,
        **_params_meta(params),
    }
    if mc is not None:
        meta["seed"] = mc.seed
        meta["n_samples"] = mc.n_samples
    return FieldGrid(spec=grid, values=values, meta=meta)


def _prob_zero_field(mode: str, params: SystemParams, a_f, b_f, p_j, mc: MCConfig) -> np.ndarray:
    """Per-cell mean of the conditional zero-secrecy probability.

    Cell i owns the i-th block of n*k uniforms of the field stream (k = 2
    colluding, 3 pairwise).  Blocks of whole cells, at most mc.chunk
    samples, go to the kernel at once with gains and P_J as (cells, 1)
    columns against (cells, n) draws; a cell with n > chunk is summed over
    sub-blocks of chunk samples.
    """
    kernel, k = (_cond_prob_zero_array, 2) if mode == "colluding" else (_cond_prob_zero_pair_kernel, 3)
    n, rng = mc.n_samples, _field_rng(mc)
    a, b = a_f.reshape(-1, 1), b_f.reshape(-1, 1)
    p_j = np.reshape(p_j, (-1, 1)) if np.ndim(p_j) else p_j
    per, sub = max(1, mc.chunk // n), min(n, mc.chunk)
    total = np.zeros(a.shape[0])
    for lo in range(0, a.shape[0], per):
        cells = slice(lo, lo + per)
        pj = p_j[cells] if np.ndim(p_j) else p_j
        for done in range(0, n, sub):
            e = _exp_draws(rng, (a[cells].shape[0], min(sub, n - done), k))
            total[cells] += kernel(a[cells], b[cells], params.rho, pj, *np.moveaxis(e, -1, 0)).sum(axis=1)
    return (total / n).reshape(a_f.shape)


def build_region_grid(grid: GridSpec, rho: float, alpha: float = 2.0) -> FieldGrid:
    """Region index (1..4) per cell, vectorized."""
    xs, ys = grid.xs(), grid.ys()
    xm, ym = np.meshgrid(xs, ys)
    a_f, b_f = gain_fields(xm, ym, alpha)
    if rho == 0:
        # rho * a would be nan at the a = inf node; the sign is + everywhere
        s_pos = np.ones(a_f.shape, dtype=bool)
    else:
        s_pos = b_f - rho * a_f > 0
    small_a = a_f < 1.0
    values = np.where(s_pos, np.where(small_a, 1.0, 2.0), np.where(small_a, 3.0, 4.0))
    return FieldGrid(spec=grid, values=values, meta={"quantity": "region", "rho": rho, "alpha": alpha})


def build_optjam_grid(grid: GridSpec, params: SystemParams) -> FieldGrid:
    """Optimal colluding jamming power per cell."""
    xm, ym = np.meshgrid(grid.xs(), grid.ys())
    a_f, b_f = gain_fields(xm, ym, params.alpha)
    values = p_j_opt_array(a_f, b_f, params.rho, params.p_t)
    meta = {"quantity": "opt-jam", **_params_meta(params)}
    return FieldGrid(spec=grid, values=values, meta=meta)


def _arg_best(fg: FieldGrid, pick) -> tuple[float, float, float]:
    # NaN cells are skipped.  Lexicographic (x, y) among exact ties; y is
    # the slow axis, so scan x-major by transposing the index order.
    if np.all(np.isnan(fg.values)):
        raise InvalidParameterError("every cell of the field is NaN")
    best = float(pick(fg.values))
    xs, ys = fg.spec.xs(), fg.spec.ys()
    hits = np.argwhere(fg.values == best)
    order = np.lexsort((hits[:, 0], hits[:, 1]))  # sort by ix, then iy
    iy, ix = hits[order[0]]
    return float(xs[ix]), float(ys[iy]), best


def grid_argmin(fg: FieldGrid) -> tuple[float, float, float]:
    """(x, y, value) of the smallest non-NaN cell; ties break lexicographically by (x, y)."""
    return _arg_best(fg, np.nanmin)


def grid_argmax(fg: FieldGrid) -> tuple[float, float, float]:
    """(x, y, value) of the largest non-NaN cell; ties break lexicographically by (x, y)."""
    return _arg_best(fg, np.nanmax)


def write_csv(fg: FieldGrid, path: str) -> None:
    """Rows are x,y,value with y varying slowest, full float round-trip."""
    xm, ym = np.meshgrid(fg.spec.xs(), fg.spec.ys())
    rows = np.column_stack([xm.ravel(), ym.ravel(), fg.values.ravel()])
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for lo in range(0, rows.shape[0], 4096):  # one format call per block of rows
            block = rows[lo : lo + 4096]
            fh.write(("%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path: str, spec: GridSpec) -> FieldGrid:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    if data.shape[0] != spec.nx * spec.ny:
        raise InvalidParameterError(
            f"csv has {data.shape[0]} rows, grid needs {spec.nx * spec.ny}"
        )
    values = data[:, 2].reshape(spec.ny, spec.nx)
    return FieldGrid(spec=spec, values=values)


def write_json(fg: FieldGrid, path: str) -> None:
    payload = {
        "grid": {
            "x_min": fg.spec.x_min,
            "x_max": fg.spec.x_max,
            "y_min": fg.spec.y_min,
            "y_max": fg.spec.y_max,
            "step": fg.spec.step,
        },
        "meta": fg.meta,
        "values": fg.values.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def read_json(path: str) -> FieldGrid:
    with open(path) as fh:
        payload = json.load(fh)
    spec = GridSpec(**payload["grid"])
    return FieldGrid(spec=spec, values=np.array(payload["values"]), meta=payload.get("meta", {}))
