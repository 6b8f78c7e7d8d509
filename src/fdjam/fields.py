"""Rectangular grid sweeps of every scalar field, with CSV/JSON export.

Grids are row-major with y as the slow axis, and every field kind is
computed with array operations over the whole grid.  A fading or pairwise
prob-zero field draws from montecarlo's stream of its seed, with the
row-major cells as samples (sample_matrix, montecarlo._cell_means), so
a grid of another shape gives a cell another index and other draws.  A
colluding prob-zero field draws nothing: each cell is a cubature with a
per-cell error estimate.  Exports carry every parameter needed to
regenerate a field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import montecarlo
from .colluding import _at_optimum, _secrecy_array, p_j_opt_array
from .colluding_fading import _CUBATURE_META, _prob_zero_cubature
from .errors import InvalidParameterError
from .geometry import SystemParams, _region_array, gain_fields
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
    error: np.ndarray | None = None  # per-cell error estimate of a cubature field, shape (ny, nx)

    def __post_init__(self) -> None:
        shape = (self.spec.ny, self.spec.nx)
        self.values = np.asarray(self.values, dtype=float)
        if self.error is not None:
            self.error = np.asarray(self.error, dtype=float)
        for name, arr in (("values", self.values), ("error", self.error)):
            if arr is not None and arr.shape != shape:
                raise InvalidParameterError(f"{name} shape {arr.shape} does not match grid {shape}")


def _params_meta(params: SystemParams) -> dict:
    return {
        "p_t": params.p_t,
        "p_j": params.p_j,
        "rho": params.rho,
        "alpha": params.alpha,
        "delta": params.delta,
    }


def _grid_gains(grid: GridSpec, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """gain_fields on every cell, shape (ny, nx), from the x axis as a row and the y axis as a column."""
    return gain_fields(grid.xs()[None, :], grid.ys()[:, None], alpha)


def draws_mc(mode: str, quantity: str, fading: bool) -> bool:
    """Whether build_field draws from mc for this field: a fading field or a pairwise prob-zero one."""
    return fading or (quantity == "prob-zero" and mode == "pairwise")


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
    fading=True) or "prob-zero", the zero-secrecy probability averaged over
    the fading the link conditions on.  Colluding prob-zero cells are a
    cubature (colluding_fading._prob_zero_cubature), whose per-cell error
    the field carries in .error and whose rule the meta names; pairwise
    prob-zero cells are per-cell Monte Carlo means of mc.n_samples draws
    and need mc.  With fading=True, which a prob-zero field rejects, mc.seed
    seeds the one draw per cell and mc.n_samples is ignored; mc is ignored
    otherwise.
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
    if fading and quantity == "prob-zero":
        raise InvalidParameterError("a prob-zero field already averages over the fading; fading applies to secrecy")
    drawn = draws_mc(mode, quantity, fading)
    if drawn and mc is None:
        raise InvalidParameterError("fading or pairwise prob-zero sweeps need an MCConfig")

    a_f, b_f = _grid_gains(grid, params.alpha)
    p_j = params.p_j
    if pj_per_cell == "opt":
        p_j = _at_optimum(b_f, p_j_opt_array(a_f, b_f, params.rho, params.p_t))

    error = None
    if quantity == "prob-zero" and mode == "colluding":
        values, error = _prob_zero_cubature(a_f, b_f, params.rho, p_j)
    elif quantity == "prob-zero":
        a, b = a_f.reshape(-1, 1), b_f.reshape(-1, 1)  # (cells, 1) gains against (cells, n) draws of (A~, B1~, B2~)
        values = montecarlo._cell_means(
            lambda span, e: _cond_prob_zero_pair_kernel(a[span], b[span], params.rho, p_j, *np.moveaxis(e, -1, 0)),
            a.size, mc, 3,
        ).reshape(a_f.shape)
    else:
        c = d = 1.0
        if fading:
            # one draw of the unknown Eve-side coefficients per cell; the
            # link-side coefficients stay at their means
            e = montecarlo.sample_matrix(MCConfig(mc.seed, a_f.size), 2)
            c, d = e[:, 0].reshape(a_f.shape), e[:, 1].reshape(a_f.shape)
        if mode == "pairwise":
            values = _secrecy_pair_array(a_f, b_f, params.p_t, params.rho, p_j, c, d)
        else:
            values = _secrecy_array(a_f, b_f, params.p_t, params.rho, p_j, c, d)

    meta = {
        "mode": mode,
        "quantity": quantity,
        "fading": fading,
        "pj_per_cell": pj_per_cell,
        **_params_meta(params),
    }
    if error is not None:
        meta.update(_CUBATURE_META)
    elif drawn:  # an exact field draws nothing, whatever mc says
        meta["seed"] = mc.seed
        if not fading:  # a fading field draws once per cell, whatever n_samples is
            meta["n_samples"] = mc.n_samples
    return FieldGrid(spec=grid, values=values, meta=meta, error=error)


def build_region_grid(grid: GridSpec, rho: float, alpha: float = 2.0) -> FieldGrid:
    """Region index (1..4) per cell."""
    a_f, b_f = _grid_gains(grid, alpha)
    values = _region_array(a_f, b_f, rho)
    return FieldGrid(spec=grid, values=values, meta={"quantity": "region", "rho": rho, "alpha": alpha})


def build_optjam_grid(grid: GridSpec, params: SystemParams) -> FieldGrid:
    """Optimal colluding jamming power per cell."""
    a_f, b_f = _grid_gains(grid, params.alpha)
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
    """Rows are x,y,value with y varying slowest, full float round-trip.

    Each x and y is formatted once per axis, each value once.
    """
    xs = ["%.17g," % x for x in fg.spec.xs().tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for y, row in zip(fg.spec.ys().tolist(), fg.values.tolist()):
            y_txt = "%.17g," % y
            fh.write("".join([x + y_txt + "%.17g\n" % v for x, v in zip(xs, row)]))


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
    if fg.error is not None:
        payload["error"] = fg.error.tolist()
    text = json.dumps(payload)  # one call to the C encoder; json.dump streams through the Python one
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path: str) -> FieldGrid:
    with open(path) as fh:
        payload = json.load(fh)
    spec = GridSpec(**payload["grid"])
    error = np.array(payload["error"]) if "error" in payload else None
    return FieldGrid(spec=spec, values=np.array(payload["values"]), meta=payload.get("meta", {}), error=error)
