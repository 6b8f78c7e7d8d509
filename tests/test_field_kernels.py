"""Whole-grid field kernels against independent references, and the field stream rule.

Every draw comes from one stream per seed, Generator(PCG64DXSM(seed)): a
caller taking k draws per sample gives sample i uniforms [i*k, (i+1)*k),
each mapped to Exp(1) by -log1p(-u), and a fading or pairwise prob-zero
field takes cell i (row-major) as a sample of k*n draws.  The draws are
rebuilt here from that rule alone, and a pairwise prob-zero field split
over lanes, each opening the stream at its first cell's word, gives the
bits of one lane.
A colluding prob-zero field draws nothing: its cubature is gated against
the 2-D quadrature oracle, and statistically against the per-cell Monte
Carlo mean it replaced.
The scalar secrecy and outage forms are calls into the same kernels as the
fields, so the references are the oracles (raw-SNR secrecy, wedge and
outage quadrature), the paper's closed forms written out here, and literal
limits.
"""

import math
import sys
import threading

import numpy as np
import pytest

from fdjam import cli, montecarlo
from fdjam import fields as fields_mod
from fdjam.colluding import _secrecy_array, opt_jam
from fdjam.colluding_fading import _cond_prob_zero_array, _prob_zero_cubature, _x_exp_e1, secrecy_sample
from fdjam.errors import InvalidParameterError
from fdjam.fields import FieldGrid, GridSpec, build_field, build_optjam_grid, grid_argmax, grid_argmin
from fdjam.geometry import LinkGains, SystemParams, gain_fields
from fdjam.montecarlo import MCConfig, estimate, exp_chunks, sample_matrix
from fdjam.oracles import _secrecy_over_pj, golden_max_secrecy, quad_prob_zero_colluding, quad_prob_zero_pair
from fdjam.pairwise import _secrecy_pair_array
from fdjam.pairwise_fading import cond_prob_zero_pair_array, secrecy_sample_pair

SMALL = GridSpec(-1.0, 1.0, -0.5, 0.5, 0.25)  # holds both endpoints
SHIFTED = GridSpec(-1.0, 1.0, -0.45, 0.55, 0.25)  # no cell on an endpoint


def _cell_gains(grid: GridSpec) -> list[LinkGains]:
    xm, ym = np.meshgrid(grid.xs(), grid.ys())
    a_f, b_f = gain_fields(xm, ym, 2.0)
    return [LinkGains(float(a), float(b)) for a, b in zip(a_f.ravel(), b_f.ravel())]


def _stream(seed: int, size: int) -> np.ndarray:
    u = np.random.Generator(np.random.PCG64DXSM(seed)).random(size)
    return -np.log1p(-u)


@pytest.mark.parametrize("block", [1, 1000, 2**16])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_draw_reads_the_one_stream(monkeypatch, block: int, k: int) -> None:
    # sample_matrix, exp_chunks and the blocks estimate sees are the stream
    # rule bit for bit, whatever the block size
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    mc = MCConfig(seed=17, n_samples=2500)
    want = _stream(mc.seed, mc.n_samples * k).reshape(mc.n_samples, k)
    assert np.array_equal(sample_matrix(mc, k), want)
    assert np.array_equal(np.concatenate(list(exp_chunks(mc, k))).reshape(-1, k), want)
    seen = []

    def first(u: np.ndarray) -> np.ndarray:
        seen.append(u.reshape(u.shape[0], k).copy())
        return seen[-1][:, 0]

    est = estimate(first, mc, draws_per_sample=k)
    assert len(seen) == -(-mc.n_samples // block)
    assert np.array_equal(np.concatenate(seen), want)
    assert est.mean == pytest.approx(float(np.mean(want[:, 0])), rel=1e-12)


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_fields_and_sample_matrix_see_the_same_draws(mode: str) -> None:
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    a_f, b_f = gain_fields(*np.meshgrid(SMALL.xs(), SMALL.ys()), 2.0)
    fading = build_field(mode, params, SMALL, fading=True, mc=MCConfig(seed=8, n_samples=1))
    c, d = sample_matrix(MCConfig(seed=8, n_samples=a_f.size), 2).T.reshape(2, *a_f.shape)
    if mode == "colluding":
        want = _secrecy_array(a_f, b_f, params.p_t, params.rho, params.p_j, c, d)
    else:
        want = _secrecy_pair_array(a_f, b_f, params.p_t, params.rho, params.p_j, c, d)
    assert np.array_equal(fading.values, want)


def test_opt_fields_take_the_node_limits(capsys) -> None:
    # p_j_opt is 0 at both nodes; at Bob's node the "opt" cells are the
    # limit P_J -> 0+, where any jamming silences the eavesdropper
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    alice, bob = 20, 24  # (-0.5, 0) and (0.5, 0) on SMALL
    s_bob = math.log2(1.0 + params.p_t)
    assert build_optjam_grid(SMALL, params).values.ravel()[[alice, bob]].tolist() == [0.0, 0.0]
    for kw in ({}, {"fading": True, "mc": MCConfig(seed=3, n_samples=1)}):
        values = build_field("colluding", params, SMALL, pj_per_cell="opt", **kw).values.ravel()
        assert values[alice] == 0.0 and values[bob] == pytest.approx(s_bob, rel=1e-15)
        assert not np.any(np.isnan(values))
    mc = MCConfig(seed=3, n_samples=50)
    pz = build_field("colluding", params, SMALL, quantity="prob-zero", pj_per_cell="opt", mc=mc)
    assert pz.values.ravel()[[alice, bob]].tolist() == [1.0, 0.0]
    assert cli.main(["field", "--pj-opt", "--step", "0.5"]) == 0
    assert "max = 6.65821 at (0.5, 0)" in capsys.readouterr().out
    assert cli.main(["optjam", "--at", "0.5", "0"]) == 0
    assert "p_j_opt = 0\nsecrecy at p_j_opt = 6.658211483 bits" in capsys.readouterr().out


def _reference_secrecy(mode: str, params: SystemParams, g: LinkGains, c: float, d: float) -> float:
    """Secrecy at Eve-side fading (c, d) from the raw-SNR oracle.

    Eve's fading scales her gains, so one direction is
    _secrecy_over_pj(LinkGains(c*a, d*b), ...); the two limits the raw SNRs
    cannot evaluate (inf*0) are written out.
    """

    def one(ga: float, gb: float, ce: float, de: float) -> float:
        if math.isinf(ga):
            return 0.0  # Eve on the transmitter hears it at any jamming (ce > 0)
        if params.rho == 0 and math.isinf(params.p_j):
            return math.log2(1.0 + params.p_t)  # jamming silences Eve and spares the link
        eve = LinkGains(ce * ga, de * gb if params.p_j > 0 else 1.0)  # b only enters through the jam
        return float(_secrecy_over_pj(eve, params.rho, params.p_t, np.array([params.p_j]))[0])

    s_ab = one(g.a, g.b, c, d)
    return s_ab if mode == "colluding" else 0.5 * (s_ab + one(g.b, g.a, d, c))


def test_optjam_grid_and_per_cell_opt_match_scalar() -> None:
    # opt_jam reads the grid's kernel, so each cell is checked against the
    # search oracle instead: the cell's power attains the searched maximum
    # secrecy, and is the searched argmax wherever that maximum is positive
    params = SystemParams(p_t=1e4, p_j=10.0, rho=0.05)
    cells = _cell_gains(SHIFTED)
    oj = build_optjam_grid(SHIFTED, params).values.ravel()
    tuned = build_field("colluding", params, SHIFTED, pj_per_cell="opt").values.ravel()
    for g, p_opt, s in zip(cells, oj, tuned):
        assert p_opt == opt_jam(g, params.rho, params.p_t).p_j_opt
        pj_oracle, s_oracle = golden_max_secrecy(g, params.rho, params.p_t)
        s_opt = float(_secrecy_over_pj(g, params.rho, params.p_t, np.array([p_opt]))[0])
        assert s == pytest.approx(s_opt, abs=1e-12)
        assert s_opt >= s_oracle - 1e-10
        if p_opt > 0.0:
            assert p_opt == pytest.approx(pj_oracle, rel=1e-6)
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
    want = [_reference_secrecy(mode, params, g, float(c), float(d)) for g, (c, d) in zip(cells, draws)]
    np.testing.assert_allclose(fg.values.ravel(), want, rtol=0.0, atol=1e-12)
    scalar = secrecy_sample if mode == "colluding" else secrecy_sample_pair
    np.testing.assert_allclose(
        [scalar(g, params, float(c), float(d)) for g, (c, d) in zip(cells, draws)], want, rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_secrecy_kernel_zero_eve_fading_at_an_endpoint(mode: str) -> None:
    # C~ = 0 silences the eavesdropper path even where its gain is infinite
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    a, b = np.array([math.inf, 1.0]), np.array([1.0, math.inf])
    c, d = np.array([0.0, 0.7]), np.array([0.4, 0.0])
    link = math.log2(1.0 + 100.0 / 1.5)  # SNR_AB = P_T/(1 + rho*P_J)
    # cell 0: A->B is Eve-free; B->A has no jamming at Eve (C~ = 0): SNR 0.4*P_T
    # cell 1: A->B has no jamming at Eve (D~ = 0): SNR 0.7*P_T > SNR_AB; B->A is Eve-free
    if mode == "colluding":
        want = [link, 0.0]
        got = _secrecy_array(a, b, params.p_t, params.rho, params.p_j, c, d)
        scalar = [secrecy_sample(LinkGains(a[i], b[i]), params, c[i], d[i]) for i in range(2)]
    else:
        want = [0.5 * (link + math.log2((1.0 + 100.0 / 1.5) / 41.0)), 0.5 * link]
        got = 0.5 * (
            _secrecy_array(a, b, params.p_t, params.rho, params.p_j, c, d)
            + _secrecy_array(b, a, params.p_t, params.rho, params.p_j, d, c)
        )
        scalar = [secrecy_sample_pair(LinkGains(a[i], b[i]), params, c[i], d[i]) for i in range(2)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(scalar, want, rtol=0.0, atol=1e-12)
    assert got[0] > 0.0


@pytest.mark.parametrize("mode, grid", [("pairwise", SHIFTED)], ids=["pairwise-grid1-fixed"])
def test_prob_zero_cell_is_the_mean_over_its_slice(mode: str, grid: GridSpec) -> None:
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    n, k = 40, 3
    mc = MCConfig(seed=23, n_samples=n)
    fg = build_field(mode, params, grid, quantity="prob-zero", mc=mc)
    cells = _cell_gains(grid)
    stream = _stream(mc.seed, len(cells) * n * k)
    for i in (0, 7, len(cells) - 1):
        e = stream[i * n * k : (i + 1) * n * k].reshape(n, k)
        g, p = cells[i], params
        got = fg.values.ravel()[i]
        # the kernel on the cell's own slice pins the stream rule exactly,
        # the wedge quadrature checks the values it computes
        assert got == pytest.approx(np.mean(cond_prob_zero_pair_array(g, p, *e.T)), rel=0.0, abs=1e-12)
        quad = np.mean([quad_prob_zero_pair(g, p, *map(float, row)) for row in e])
        assert got == pytest.approx(quad, rel=0.0, abs=2e-4)


ORACLE_PJ = [0.0, *(10.0 ** (db / 10) for db in range(-30, 90, 10)), math.inf]
# the gated grid cells: the corners (+-2, +-2), the origin and two near the nodes
ORACLE_CELLS = [(-2.0, -2.0), (2.0, -2.0), (-2.0, 2.0), (2.0, 2.0), (0.0, 0.0), (-0.6, 0.0), (0.4, 0.1)]
# Rounding floor of the comparison, relative: the oracle is good to about 2e-14, and so are
# the B~ rule's weights (colluding_fading._gauss_legendre); gaps beyond the reported error
# reach 2.2e-14 over the gated cells
ROUNDING = 5e-14


def _gate_against_oracle(g: LinkGains, p: SystemParams, value: float, error: float) -> None:
    want = quad_prob_zero_colluding(g, p)
    assert value == pytest.approx(want, rel=1e-9, abs=0.0), (g, p)
    assert abs(value - want) <= error + ROUNDING * want, (g, p, error)


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.1, 1.0])
def test_colluding_prob_zero_field_matches_the_quadrature_oracle(rho: float) -> None:
    # every finite gated cell within 1e-9 of the oracle, with the reported
    # error bounding the gap; node cells are their limits exactly
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.1)  # holds both endpoints and the corners
    xs, ys = grid.xs(), grid.ys()
    at = [int(np.argmin(np.abs(ys - y))) * grid.nx + int(np.argmin(np.abs(xs - x))) for x, y in ORACLE_CELLS]
    cells = _cell_gains(grid)
    alice, bob = (20, 15), (20, 25)  # (-0.5, 0) and (0.5, 0)
    a_bob = cells[20 * grid.nx + 25].a
    for p_j in ORACLE_PJ:
        p = SystemParams(p_t=100.0, p_j=p_j, rho=rho)
        fg = build_field("colluding", p, grid, quantity="prob-zero")
        assert np.all((fg.values >= 0.0) & (fg.values <= 1.0)) and np.all(fg.error >= 0.0)
        for i in at:
            _gate_against_oracle(cells[i], p, float(fg.values.ravel()[i]), float(fg.error.ravel()[i]))
        assert fg.values[alice] == 1.0 and fg.values[bob] == (a_bob / (a_bob + 1.0) if p_j == 0 else 0.0)
        assert fg.error[alice] == fg.error[bob] == 0.0
        # cells on b = rho*a, where the response to jamming changes sign
        for a in (0.3, 4.0):
            value, error = _prob_zero_cubature(a, rho * a, rho, p_j)
            _gate_against_oracle(LinkGains(a, rho * a), p, float(value), float(error))


def test_colluding_prob_zero_opt_field_matches_the_quadrature_oracle() -> None:
    params = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    fg = build_field("colluding", params, SMALL, quantity="prob-zero", pj_per_cell="opt")
    for i, g in enumerate(_cell_gains(SMALL)):
        value, error = fg.values.ravel()[i], fg.error.ravel()[i]
        if math.isinf(g.a) or math.isinf(g.b):
            assert (value, error) == ((1.0, 0.0) if math.isinf(g.a) else (0.0, 0.0))
            continue
        p = SystemParams(p_t=params.p_t, p_j=opt_jam(g, params.rho, params.p_t).p_j_opt, rho=params.rho)
        _gate_against_oracle(g, p, float(value), float(error))


def _second_moment(a: np.ndarray, b: np.ndarray, p: SystemParams) -> np.ndarray:
    """E over (A~, B~) of cond_prob_zero^2 at finite gains and 0 < P_J < inf.

    Over A~ it is (s/(b*P_J))*(1 - h(x)), s = a*(1 + rho*B~*P_J),
    x = (s + 2)/(b*P_J), h(x) = x*e^x*E1(x): the integral of
    e^-(1 + 2/s)A~/(1 + b*P_J*A~/s)^2 by parts.  Over B~, 96 Gauss-Legendre
    nodes on the log map B~ = expm1(t*L)/c, c = rho*P_J, L = log1p(40*c).
    """
    x, w = np.polynomial.legendre.leggauss(96)
    t, w = 0.5 * (1.0 + x), 0.5 * w
    c = p.rho * p.p_j
    stretch = math.log1p(40.0 * c)
    b_t = np.expm1(t * stretch) / c
    s, b_pj = a * (1.0 + c * b_t), b * p.p_j
    inner = s / b_pj * (1.0 - _x_exp_e1((s + 2.0) / b_pj))
    return (inner * w * stretch / c * np.exp(t * stretch - b_t)).sum(axis=1)


def test_colluding_prob_zero_field_agrees_with_the_monte_carlo_cells() -> None:
    # the per-cell Monte Carlo mean this field used to report: n = 2000 draws
    # per cell on the 41 x 41 benchmark grid at paper settings.  The cells'
    # conditional outage is right-skewed (coefficient of variation up to 11),
    # so each cell's sample stderr misses the rare large values together with
    # the mean: z from it exceeded 5 in 6 of 8 seeds tried, each time where
    # the cubature meets the oracle to 1e-13.  z takes the exact stderr
    # sqrt((E{cond^2} - mean^2)/n) instead, and the sample variances check it.
    params = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.1)
    fg = build_field("colluding", params, grid, quantity="prob-zero")
    a_f, b_f = gain_fields(*np.meshgrid(grid.xs(), grid.ys()), 2.0)
    a, b, n = a_f.reshape(-1, 1), b_f.reshape(-1, 1), 2000
    finite = np.isfinite(a[:, 0]) & np.isfinite(b[:, 0])
    mean = fg.values.ravel()
    var = np.zeros_like(mean)
    var[finite] = _second_moment(a[finite], b[finite], params) - mean[finite] ** 2
    assert np.all(var >= 0.0)
    rng = montecarlo._stream(20261018)
    z, ratio = np.zeros(a.shape[0]), np.full(a.shape[0], np.nan)
    for lo in range(0, a.shape[0], 100):
        cells = slice(lo, lo + 100)
        e = montecarlo._exp_draws(rng, (a[cells].shape[0], n, 2))
        cond = _cond_prob_zero_array(a[cells], b[cells], params.rho, params.p_j, e[..., 0], e[..., 1])
        gap, v = mean[cells] - cond.mean(axis=1), var[cells]
        assert np.all(gap[v == 0] == 0.0)  # node cells: no spread, the limit exactly
        z[cells] = np.where(v > 0, gap / np.sqrt(np.where(v > 0, v, 1.0) / n), 0.0)
        ratio[cells] = np.where(v > 0, cond.var(axis=1, ddof=1) / np.where(v > 0, v, 1.0), np.nan)
    assert np.all(np.abs(z) <= 5.0), np.sort(np.abs(z))[-5:]
    # beyond 4 sigma: 1681 cells give 0.11 expected, and P{Binomial >= 3} < 3e-4
    assert np.sum(np.abs(z) > 4.0) <= 2
    # the cells are independent, so a shared bias shows in the sum
    assert abs(z.sum()) <= 5.0 * math.sqrt(np.count_nonzero(var))
    assert np.nanmean(ratio) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("mode, grid", [("colluding", SMALL), ("pairwise", SHIFTED)])
@pytest.mark.parametrize("n", [30, 200])
def test_prob_zero_field_is_chunk_invariant(monkeypatch, mode: str, grid: GridSpec, n: int) -> None:
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    mc = MCConfig(seed=5, n_samples=n)
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    small = build_field(mode, params, grid, quantity="prob-zero", mc=mc)
    monkeypatch.setattr(montecarlo, "_BLOCK", 2**16)
    big = build_field(mode, params, grid, quantity="prob-zero", mc=mc)
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
    # a per-cell loop would call gain_fields or build a generator once per
    # cell; a pairwise prob-zero field builds one per lane, on every grid
    counts = {"gain_fields": 0, "PCG64DXSM": 0}
    real_gain_fields, real_bit_generator = fields_mod.gain_fields, np.random.PCG64DXSM

    def counted_gain_fields(*args, **kw):
        counts["gain_fields"] += 1
        return real_gain_fields(*args, **kw)

    def counted_bit_generator(*args, **kw):
        counts["PCG64DXSM"] += 1
        return real_bit_generator(*args, **kw)

    monkeypatch.setattr(fields_mod, "gain_fields", counted_gain_fields)
    monkeypatch.setattr(np.random, "PCG64DXSM", counted_bit_generator)
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    mc = MCConfig(seed=1, n_samples=8)
    kw = {"mode": "colluding", **kwargs}
    mode = kw.pop("mode")
    # a colluding prob-zero field is a cubature and draws nothing
    lanes = montecarlo._LANES if kw.get("quantity") and mode == "pairwise" else 0
    drawn = lanes or (1 if kw.get("fading") else 0)
    for step in (0.1, 0.05):  # 21 x 21 and 41 x 41, no endpoint
        grid = GridSpec(-1.0, 1.0, -0.95, 1.05, step)
        counts.update(gain_fields=0, PCG64DXSM=0)
        build_field(mode, params, grid, mc=mc, **kw)
        assert counts == {"gain_fields": 1, "PCG64DXSM": drawn}
        counts.update(gain_fields=0, PCG64DXSM=0)
        build_optjam_grid(grid, params)
        assert counts == {"gain_fields": 1, "PCG64DXSM": 0}


@pytest.mark.parametrize("w", [0, 1, 2, 3, 5, 3 * 2**16 + 1])
def test_stream_opened_at_a_word_is_the_one_stream_from_there(w: int) -> None:
    got = montecarlo._stream(29, w).random(9)
    assert np.array_equal(got, montecarlo._stream(29).random(w + 9)[w:])


@pytest.mark.parametrize("w", [2**32 + 3, 2**64 + 5])
def test_stream_opened_past_two_to_the_32_is_the_advanced_bit_generator(w: int) -> None:
    # too far to draw up to: the reference steps the bit generator over w outputs itself
    bits = np.random.PCG64DXSM(29)
    bits.advance(w)
    got = montecarlo._stream(29, w).random(9)
    assert np.array_equal(got, np.random.Generator(bits).random(9))
    assert np.array_equal(montecarlo._stream(29, w + 1).random(8), got[1:])  # one output per uniform there too


@pytest.mark.parametrize("seed", [0, 1, 5, 17, 2**64 - 1])
def test_stream_shares_no_draws_with_default_rng(seed: int) -> None:
    # verify and the tests take independent references from default_rng(seed), a PCG64 seeded
    # alike; the stream's draws must not be a shifted copy of them
    ours = montecarlo._stream(seed).random(100_000)
    theirs = np.random.default_rng(seed).random(100_000)
    assert np.intersect1d(ours, theirs).size == 0
    assert abs(np.corrcoef(ours, theirs)[0, 1]) < 0.02  # 1/sqrt(1e5) = 0.0032: over 6 sigma


# (grid, n, _BLOCK): SHIFTED and SMALL hold 45 cells, so lane 1 starts at
# cell 23, at an odd word 23*n*3 for n = 1 and 7;
# SMALL holds both endpoints; n = 200 against a block of 64 takes sub-blocks
LANE_CASES = [(SHIFTED, 1, 2**16), (SHIFTED, 7, 2**16), (SHIFTED, 2000, 2**16), (SHIFTED, 200, 64), (SMALL, 7, 2**16)]


@pytest.mark.parametrize("p_j", [0.0, 1.0, math.inf])
@pytest.mark.parametrize("grid, n, block", LANE_CASES, ids=["n1", "n7", "n2000", "sub-blocks", "endpoints"])
def test_prob_zero_field_is_the_same_bits_on_one_and_two_lanes(
    monkeypatch, tmp_path, grid: GridSpec, n: int, block: int, p_j: float
) -> None:
    params = SystemParams(p_t=100.0, p_j=p_j, rho=0.05)
    mc = MCConfig(seed=41, n_samples=n)
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    texts, values = [], []
    for lanes in (1, 2):
        monkeypatch.setattr(montecarlo, "_LANES", lanes)
        fg = build_field("pairwise", params, grid, quantity="prob-zero", mc=mc)
        fields_mod.write_json(fg, str(tmp_path / "f.json"))
        texts.append((tmp_path / "f.json").read_bytes())
        values.append(fg.values.tobytes())
    assert values[0] == values[1]
    assert texts[0] == texts[1]
    if n in (1, 7):  # lane 1 opens the stream at an odd word
        assert grid.nx * grid.ny == 45 and (23 * n * 3) % 4 != 0


def test_prob_zero_field_lanes_under_contention(monkeypatch) -> None:
    # more lanes than cores and a thread switch every microsecond: a lost
    # update to the shared sums would change some cell
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.05)
    grid, mc = GridSpec(-1.0, 1.0, -0.95, 1.05, 0.1), MCConfig(seed=43, n_samples=7)
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    monkeypatch.setattr(montecarlo, "_LANES", 1)
    want = build_field("pairwise", params, grid, quantity="prob-zero", mc=mc).values
    monkeypatch.setattr(montecarlo, "_LANES", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = build_field("pairwise", params, grid, quantity="prob-zero", mc=mc).values
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


def test_a_lane_failure_is_raised_after_every_lane_stopped(monkeypatch) -> None:
    kernel = fields_mod._cond_prob_zero_pair_kernel
    raised: list[Exception] = []

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():  # lane 1's cells
            raised.append(RuntimeError("lane 1"))
            raise raised[-1]
        return kernel(*args)

    monkeypatch.setattr(montecarlo, "_LANES", 2)
    monkeypatch.setattr(fields_mod, "_cond_prob_zero_pair_kernel", failing)
    params, mc = SystemParams(p_t=100.0, p_j=30.0, rho=0.05), MCConfig(seed=3, n_samples=20)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        build_field("pairwise", params, SHIFTED, quantity="prob-zero", mc=mc)
    assert info.value is raised[0]
    assert threading.active_count() == before


@pytest.mark.parametrize("lanes", [1, 2, 5])
def test_every_lane_opens_its_stream_and_buffer_on_the_calling_thread(monkeypatch, lanes: int) -> None:
    # _run_lanes calls lane() on the calling thread, which owns what it
    # allocates: a lane that opened its stream or allocated its buffer in
    # its block iterator would do both on a worker thread
    opened, made, filled = [], {}, []
    real_stream, real_empty, real_draws = montecarlo._stream, np.empty, montecarlo._exp_draws

    def stream(*args):
        opened.append(threading.current_thread())
        return real_stream(*args)

    def empty(*args, **kw):
        out = real_empty(*args, **kw)
        made[id(out)] = (out, threading.current_thread())  # the array stays alive, so its id stays its own
        return out

    def draws(rng, shape, out=None):
        filled.append(out.base)
        return real_draws(rng, shape, out=out)

    monkeypatch.setattr(montecarlo, "_LANES", lanes)
    monkeypatch.setattr(montecarlo, "_stream", stream)
    monkeypatch.setattr(montecarlo, "_exp_draws", draws)
    monkeypatch.setattr(np, "empty", empty)
    params, mc = SystemParams(p_t=100.0, p_j=30.0, rho=0.05), MCConfig(seed=3, n_samples=7)
    fg = build_field("pairwise", params, SHIFTED, quantity="prob-zero", mc=mc)
    monkeypatch.undo()
    main = threading.main_thread()
    assert len(opened) == lanes and all(t is main for t in opened)
    buffers = {id(b) for b in filled}
    assert len(buffers) == lanes and all(made[i][1] is main for i in buffers)
    assert fg.values.tobytes() == build_field("pairwise", params, SHIFTED, quantity="prob-zero", mc=mc).values.tobytes()


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


@pytest.mark.parametrize("p_j", [0.0, 30.0, math.inf])
def test_pairwise_prob_zero_field_takes_the_node_limit(p_j: float) -> None:
    # the default -2..2 grid at step 0.5 holds both endpoints; there the
    # cell is 0 under jamming and the mean of exp(-A~*(1/a + 1/b)) without
    params = SystemParams(p_t=100.0, p_j=p_j, rho=0.05)
    grid, n = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.5), 50
    mc = MCConfig(seed=31, n_samples=n)
    fg = build_field("pairwise", params, grid, quantity="prob-zero", mc=mc)
    assert not np.any(np.isnan(fg.values))
    assert np.all((fg.values >= 0.0) & (fg.values <= 1.0))
    cells = _cell_gains(grid)
    stream = _stream(mc.seed, len(cells) * n * 3)
    nodes = [i for i, g in enumerate(cells) if math.isinf(g.a) or math.isinf(g.b)]
    assert len(nodes) == 2
    for i in nodes:
        a_t = stream[i * n * 3 : (i + 1) * n * 3].reshape(n, 3)[:, 0]
        g = cells[i]
        finite_gain = g.b if math.isinf(g.a) else g.a
        want = np.mean(np.exp(-a_t / finite_gain)) if p_j == 0 else 0.0
        assert fg.values.ravel()[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cli_pairwise_prob_zero_at_an_endpoint(capsys) -> None:
    rc = cli.main(["prob-zero", "--mode", "pairwise", "--at", "0.5", "0", "--samples", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nan" not in out.lower()
    assert "conditional P(S=0) at unit fading = 0.000000e+00" in out
    rc = cli.main(["field", "--mode", "pairwise", "--quantity", "prob-zero", "--step", "0.5", "--samples", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "nan" not in out.lower()
