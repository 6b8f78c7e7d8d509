"""Whole-grid field kernels against the scalar forms, and the field stream rule.

A fading or prob-zero field draws from one Philox stream keyed by the seed;
cell i (row-major) owns the i-th block of k*n uniforms, each mapped to
Exp(1) by -log1p(-u).  The draws are rebuilt here from that rule alone.
"""

import math

import numpy as np
import pytest

from fdjam import cli
from fdjam import fields as fields_mod
from fdjam.colluding import opt_jam, secrecy_ab
from fdjam.colluding_fading import cond_prob_zero, secrecy_sample
from fdjam.errors import InvalidParameterError
from fdjam.fields import FieldGrid, GridSpec, build_field, build_optjam_grid, grid_argmax, grid_argmin
from fdjam.geometry import LinkGains, SystemParams, gain_fields
from fdjam.montecarlo import MCConfig
from fdjam.pairwise_fading import cond_prob_zero_pair_array, secrecy_sample_pair

SMALL = GridSpec(-1.0, 1.0, -0.5, 0.5, 0.25)  # holds both endpoints
SHIFTED = GridSpec(-1.0, 1.0, -0.45, 0.55, 0.25)  # no cell on an endpoint


def _cell_gains(grid: GridSpec) -> list[LinkGains]:
    xm, ym = np.meshgrid(grid.xs(), grid.ys())
    a_f, b_f = gain_fields(xm, ym, 2.0)
    return [LinkGains(float(a), float(b)) for a, b in zip(a_f.ravel(), b_f.ravel())]


def _stream(seed: int, size: int) -> np.ndarray:
    u = np.random.Generator(np.random.Philox(key=seed)).random(size)
    return -np.log1p(-u)


def test_optjam_grid_and_per_cell_opt_match_scalar() -> None:
    params = SystemParams(p_t=1e4, p_j=10.0, rho=0.05)
    cells = _cell_gains(SHIFTED)
    oj = build_optjam_grid(SHIFTED, params).values.ravel()
    tuned = build_field("colluding", params, SHIFTED, pj_per_cell="opt").values.ravel()
    for g, p_opt, s in zip(cells, oj, tuned):
        want = opt_jam(g, params.rho, params.p_t).p_j_opt
        assert p_opt == want
        at_opt = SystemParams(p_t=params.p_t, p_j=want, rho=params.rho)
        assert s == pytest.approx(secrecy_ab(g, at_opt), abs=1e-12)
    assert np.any(oj > 0.0) and np.any(oj == 0.0)  # both branches are exercised


@pytest.mark.parametrize("p_j", [0.0, 10.0, math.inf])
@pytest.mark.parametrize("rho", [0.0, 0.05])
@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_fading_cells_match_scalar_on_the_stream(mode: str, rho: float, p_j: float) -> None:
    params = SystemParams(p_t=100.0, p_j=p_j, rho=rho)
    mc = MCConfig(seed=11, n_samples=1)
    fg = build_field(mode, params, SMALL, fading=True, mc=mc)
    cells = _cell_gains(SMALL)
    draws = _stream(mc.seed, 2 * len(cells)).reshape(len(cells), 2)
    scalar = secrecy_sample if mode == "colluding" else secrecy_sample_pair
    want = [scalar(g, params, float(c), float(d)) for g, (c, d) in zip(cells, draws)]
    np.testing.assert_allclose(fg.values.ravel(), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_secrecy_kernel_zero_eve_fading_at_an_endpoint(mode: str) -> None:
    # C~ = 0 silences the eavesdropper path even where its gain is infinite
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    a, b = np.array([math.inf, 1.0]), np.array([1.0, math.inf])
    c, d = np.array([0.0, 0.7]), np.array([0.4, 0.0])
    got = fields_mod._secrecy_field(mode, params, a, b, params.p_j, c, d)
    scalar = secrecy_sample if mode == "colluding" else secrecy_sample_pair
    want = [scalar(LinkGains(a[i], b[i]), params, c[i], d[i]) for i in range(2)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert got[0] > 0.0


@pytest.mark.parametrize(
    "mode, grid, pj_per_cell",
    [("colluding", SMALL, "fixed"), ("pairwise", SHIFTED, "fixed"), ("colluding", SHIFTED, "opt")],
)
def test_prob_zero_cell_is_the_mean_over_its_slice(mode: str, grid: GridSpec, pj_per_cell: str) -> None:
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    n, k = 40, (2 if mode == "colluding" else 3)
    mc = MCConfig(seed=23, n_samples=n)
    fg = build_field(mode, params, grid, quantity="prob-zero", mc=mc, pj_per_cell=pj_per_cell)
    cells = _cell_gains(grid)
    stream = _stream(mc.seed, len(cells) * n * k)
    for i in (0, 7, len(cells) - 1):
        e = stream[i * n * k : (i + 1) * n * k].reshape(n, k)
        g, p = cells[i], params
        if pj_per_cell == "opt":
            p = SystemParams(p_t=100.0, p_j=opt_jam(g, params.rho, params.p_t).p_j_opt, rho=params.rho)
        if mode == "colluding":
            want = np.mean([cond_prob_zero(g, p, float(a), float(b)) for a, b in e])
        else:
            want = np.mean(cond_prob_zero_pair_array(g, p, e[:, 0], e[:, 1], e[:, 2]))
        assert fg.values.ravel()[i] == pytest.approx(want, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("mode, grid", [("colluding", SMALL), ("pairwise", SHIFTED)])
@pytest.mark.parametrize("n", [30, 200])
def test_prob_zero_field_is_chunk_invariant(mode: str, grid: GridSpec, n: int) -> None:
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    small = build_field(mode, params, grid, quantity="prob-zero", mc=MCConfig(seed=5, n_samples=n, chunk=64))
    big = build_field(mode, params, grid, quantity="prob-zero", mc=MCConfig(seed=5, n_samples=n, chunk=2**16))
    np.testing.assert_allclose(small.values, big.values, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"mode": "pairwise"},
        {"fading": True},
        {"mode": "pairwise", "fading": True},
        {"pj_per_cell": "opt"},
        {"quantity": "prob-zero"},
        {"mode": "pairwise", "quantity": "prob-zero"},
        {"quantity": "prob-zero", "pj_per_cell": "opt"},
    ],
)
def test_one_sweep_makes_constant_setup_calls(monkeypatch, kwargs: dict) -> None:
    # a per-cell loop would call gain_fields or build a generator once per cell
    counts = {"gain_fields": 0, "Philox": 0}
    real_gain_fields, real_philox = fields_mod.gain_fields, np.random.Philox

    def counted_gain_fields(*args, **kw):
        counts["gain_fields"] += 1
        return real_gain_fields(*args, **kw)

    def counted_philox(*args, **kw):
        counts["Philox"] += 1
        return real_philox(*args, **kw)

    monkeypatch.setattr(fields_mod, "gain_fields", counted_gain_fields)
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    grid = GridSpec(-1.0, 1.0, -0.95, 1.05, 0.1)  # 21 x 21, no endpoint
    mc = MCConfig(seed=1, n_samples=8, chunk=64)
    kw = {"mode": "colluding", **kwargs}
    build_field(kw.pop("mode"), params, grid, mc=mc, **kw)
    assert counts == {"gain_fields": 1, "Philox": 1 if (kw.get("fading") or kw.get("quantity")) else 0}
    counts.update(gain_fields=0, Philox=0)
    build_optjam_grid(grid, params)
    assert counts == {"gain_fields": 1, "Philox": 0}


def test_argmin_argmax_skip_nan_cells() -> None:
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 0.5)
    values = np.array([[np.nan, 2.0, 3.0], [4.0, np.nan, 0.5], [7.0, 8.0, np.nan]])
    fg = FieldGrid(spec=spec, values=values)
    assert grid_argmin(fg) == (1.0, 0.5, 0.5)
    assert grid_argmax(fg) == (0.5, 1.0, 8.0)
    with pytest.raises(InvalidParameterError):
        grid_argmin(FieldGrid(spec=spec, values=np.full((3, 3), np.nan)))
    with pytest.raises(InvalidParameterError):
        grid_argmax(FieldGrid(spec=spec, values=np.full((3, 3), np.nan)))


def test_cli_colluding_prob_zero_without_jamming(capsys) -> None:
    # the default grid holds both endpoints; at (0.5, 0) with P_J = 0 the
    # cell is exp(-A~/a), not NaN
    rc = cli.main(["field", "--quantity", "prob-zero", "--pj", "0", "--step", "0.5", "--samples", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nan" not in out.lower()
