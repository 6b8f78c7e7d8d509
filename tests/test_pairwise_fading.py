"""Two-phase fading: wedge probability K*exp(-E), the jamming gate P_J*,
policy bounds and the homogeneous near-field law."""

import decimal
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError
from fdjam.colluding_fading import _e1_cf, _exp_e1, _x_exp_e1
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam import montecarlo, pairwise_fading
from fdjam.montecarlo import MCConfig, estimate
from fdjam.oracles import mc_cond_prob_zero_pair, quad_policy_row, quad_prob_zero_pair
from fdjam.pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    _A_TOP,
    _WIDE_RULE,
    _crowded_rule,
    _node_sum,
    _policy_integrand,
    _wedge,
    _wedge_coeffs,
    cond_prob_zero_pair,
    cond_prob_zero_pair_array,
    homogeneous_secrecy,
    homogeneous_tail_bound,
    p1_bound,
    p2_bound,
    pair_terms,
    pj_star,
    policy_prob_zero,
    prob_zero_nojam,
    prob_zero_nojam_origin,
    secrecy_sample_pair,
    semi_dynamic_cap,
)

ORIGIN = gains(0.0, 0.0, 2.0)  # a = b = 4


def test_symmetric_reference_point() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    t = pair_terms(ORIGIN, params, 1.0, 1.0, 1.0)
    assert t.k == pytest.approx(1.0 / 21.0, rel=1e-12)
    assert t.e_exp == pytest.approx(5.0, rel=1e-12)
    p = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert p == pytest.approx(math.exp(-5.0) / 21.0, rel=1e-12)
    assert p == pytest.approx(3.2085e-4, rel=1e-3)


def test_closed_form_matches_quadrature() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    closed = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    quad = quad_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert abs(closed - quad) < 2e-4
    # and an asymmetric draw
    g = gains(0.3, -0.2, 2.0)
    closed = cond_prob_zero_pair(g, params, 0.7, 1.8, 0.4)
    quad = quad_prob_zero_pair(g, params, 0.7, 1.8, 0.4)
    assert abs(closed - quad) < 2e-4


def test_closed_form_matches_frequency_count() -> None:
    g = gains(0.25, 0.1, 2.0)
    params = SystemParams(p_t=10.0, p_j=0.5, rho=0.1)
    closed = cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0)
    est = mc_cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0, MCConfig(seed=21, n_samples=200_000))
    se = math.sqrt(closed * (1.0 - closed) / est.n)
    assert abs(est.mean - closed) <= 3.0 * se


def test_swap_symmetry() -> None:
    params = SystemParams(p_t=2.0, p_j=3.0, rho=0.2)
    g = gains(0.4, 0.3, 2.0)
    direct = cond_prob_zero_pair(g, params, 0.9, 1.4, 0.3)
    # exchanging the endpoint roles swaps (b1, b2) along with (a, b)
    swapped = cond_prob_zero_pair(g.swapped(), params, 0.9, 0.3, 1.4)
    assert direct == pytest.approx(swapped, rel=1e-12)


def test_array_form_matches_scalar() -> None:
    params = SystemParams(p_t=2.0, p_j=3.0, rho=0.2)
    g = gains(0.4, 0.3, 2.0)
    rng = np.random.default_rng(1)
    at, b1, b2 = rng.exponential(size=(3, 64))
    arr = cond_prob_zero_pair_array(g, params, at, b1, b2)
    for i in range(at.size):
        assert arr[i] == pytest.approx(
            cond_prob_zero_pair(g, params, float(at[i]), float(b1[i]), float(b2[i])), rel=1e-12
        )


def test_no_jamming_values() -> None:
    assert prob_zero_nojam(ORIGIN) == pytest.approx(2.0 / 3.0)
    assert prob_zero_nojam_origin(2.0) == pytest.approx(2.0 / 3.0)
    # without jamming P_J* never gates, and the closed form still applies
    params = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    quad = quad_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    got = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert abs(got - quad) < 2e-4


def test_pj_star_reference_value() -> None:
    star = pj_star(1.0, 1.0, 1.0, 0.1)
    assert star == pytest.approx(10.0 / 9.0, rel=1e-12)
    # no gate when the legit fading cannot beat the jamming geometry
    assert pj_star(0.1, 4.0, 4.0, 0.9) is None
    with pytest.raises(InvalidParameterError):
        pj_star(1.0, 1.0, 1.0, -0.1)


def test_pj_star_gates_the_probability() -> None:
    star = pj_star(1.0, 1.0, 1.0, 0.1)
    above = SystemParams(p_t=1.0, p_j=star * 1.001, rho=0.1)
    below = SystemParams(p_t=1.0, p_j=star * 0.999, rho=0.1)
    assert cond_prob_zero_pair(ORIGIN, above, 1.0, 1.0, 1.0) == 0.0
    t = pair_terms(ORIGIN, below, 1.0, 1.0, 1.0)
    # strict positivity is asserted in log space: K > 0 with a finite
    # exponent means K*exp(-E) > 0 even when the float product underflows
    assert t.k > 0.0 and math.isfinite(t.e_exp)


def test_pj_star_takes_no_square_out_of_range() -> None:
    # rho = 1e155 squared overflowed a float; from 1e-300 to 1e301, a returned root sits where
    # the exact quadratic disc*P^2 - s*P - 1 changes sign, within 1e-12 either side of it
    assert pj_star(1.0, 1.0, 1.0, 1e155) is None
    rng = np.random.default_rng(61)
    draws = rng.uniform(1.0, 10.0, (300, 4)) * 10.0 ** rng.integers(-300, 301, (300, 4)).astype(float)
    draws[rng.random(draws.shape) < 0.1] = 0.0
    eps, roots = Fraction(1, 10**12), 0
    for a_t, b1, b2, rho in draws.tolist():
        got = pj_star(a_t, b1, b2, rho)
        a_t, b1, b2, rho = map(Fraction, (a_t, b1, b2, rho))
        disc, s = a_t**2 - rho**2 * b1 * b2, rho * (b1 + b2)

        def f(p: Fraction) -> Fraction:
            return disc * p * p - s * p - 1

        if got is None:
            assert disc <= 0
        elif got == math.inf:
            assert f(Fraction(sys.float_info.max)) < 0
        else:
            assert f(Fraction(got) * (1 - eps)) < 0 < f(Fraction(got) * (1 + eps))
            roots += 1
    assert roots > 50


@pytest.mark.parametrize("p_j", [1e155, 1e200, 1e300, sys.float_info.max])
def test_a_zero_fading_lies_inside_every_finite_window(p_j: float) -> None:
    # with rho*B~ = 0 the window is A~ < 1/P_J, whose square C0 underflows to 0 past
    # P_J = 6.4e161; A~ = 0, a link with no SINR, lies inside it at every finite power, and
    # outside the empty window of P_J = inf
    for rho, b_t in ((0.0, (1.0, 1.0)), (0.1, (0.0, 0.0))):
        assert cond_prob_zero_pair(ORIGIN, SystemParams(p_t=1.0, p_j=p_j, rho=rho), 0.0, *b_t) == 1.0
        assert cond_prob_zero_pair(ORIGIN, SystemParams(p_t=1.0, p_j=math.inf, rho=rho), 0.0, *b_t) == 0.0


def test_homogeneous_near_field() -> None:
    assert homogeneous_secrecy(1.0, 1.0, 1.0, 0.1) == pytest.approx(math.log2(10.0))
    assert homogeneous_secrecy(0.0, 1.0, 1.0, 0.1) == -math.inf
    assert homogeneous_secrecy(1.0, 0.0, 1.0, 0.1) == math.inf
    with pytest.raises(InvalidParameterError):
        homogeneous_secrecy(1.0, 1.0, 1.0, 0.0)
    assert homogeneous_tail_bound(0.0, 0.1) == pytest.approx(0.1 * math.pi / 4.0)
    assert homogeneous_tail_bound(20.0, 0.1) == 1.0
    # tail mass check against direct sampling
    rng = np.random.default_rng(4)
    at, b1, b2 = rng.exponential(size=(3, 100_000))
    s_vals = np.log2(at / (0.1 * np.sqrt(b1 * b2)))
    for s in (-1.0, 0.0, 1.0):
        frac = float((s_vals <= s).mean())
        assert frac <= homogeneous_tail_bound(s, 0.1) + 3e-3


def test_policy_validation() -> None:
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC)
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1.5)
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.CONSTANT, p_accept=0.5)
    JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1e-4)


def test_full_dynamic_policy_is_exactly_zero() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    mc = MCConfig(seed=1, n_samples=1000)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.FULL_DYNAMIC), ORIGIN, params, mc)
    assert rep.estimate.mean == 0.0
    assert rep.estimate.stderr == 0.0


def test_semi_dynamic_below_its_bounds() -> None:
    params = SystemParams(p_t=1.0, p_j=10.0, rho=0.1)
    mc = MCConfig(seed=5, n_samples=200_000)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), ORIGIN, params, mc)
    assert rep.p1 is not None
    # dominance holds on the shared fading stream, not just in expectation
    assert rep.estimate.mean < rep.p1.mean
    assert rep.p1.mean < semi_dynamic_cap(params.rho)
    assert rep.p1.mean == pytest.approx(p1_bound(params.rho, mc).mean, rel=1e-12)


def test_constant_policy_below_p2_and_above_semi() -> None:
    mc = MCConfig(seed=5, n_samples=200_000)
    rho = 0.1
    semi = policy_prob_zero(
        JamPolicy(JamPolicyKind.SEMI_DYNAMIC),
        ORIGIN,
        SystemParams(p_t=1.0, p_j=10.0, rho=rho),
        mc,
    )
    gaps = []
    for p_j in (1.0, 10.0, 100.0, 1000.0):
        params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
        rep = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), ORIGIN, params, mc)
        assert rep.p2 is not None
        assert rep.estimate.mean < rep.p2.mean
        p1 = p1_bound(rho, mc)
        p2 = p2_bound(rho, p_j, mc)
        assert p1.mean < p2.mean
        assert rep.p2.mean == pytest.approx(p2.mean, rel=1e-12)
        # a fixed power can only do worse than reacting to the fading
        assert semi.estimate.mean <= rep.estimate.mean + 1e-12
        gaps.append(p2.mean - p1.mean)
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))


def _rows_against_the_window_oracle(g: LinkGains, p_j: float, atol: float) -> None:
    rng = np.random.default_rng(17)
    for rho in (0.01, 0.1):
        u, v = rng.exponential(size=(2, 20))
        rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
        params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
        ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u, v)])
        np.testing.assert_allclose(rows[:, 0], ref, rtol=0.0, atol=atol)
        assert np.all(rows[:, 0] < rows[:, 1])


@pytest.mark.parametrize("at", [(0.0, 0.0), (-0.6, 0.0), (0.49, 0.0), (0.499, 0.0)])
@pytest.mark.parametrize("p_j", [1e-3, 1.0, 1e3, math.inf])
def test_policy_integrand_matches_the_window_oracle(at, p_j: float) -> None:
    # near Bob's node the rows fall off over 1/c ~ 1e-4..1e-6 of the window; a
    # 48-node rule in A~ itself was off by up to 9% of the mean at (0.49, 0)
    _rows_against_the_window_oracle(gains(*at, 2.0), p_j, atol=1e-9)


@pytest.mark.parametrize("p_j", [1e-3, 1.0, 1e3, math.inf])
def test_policy_integrand_in_the_far_field(p_j: float) -> None:
    # at (1.3, 0.7) and -30 dB the window ~1/P_J is wider than e^-A~ reaches and is cut
    # at _A_TOP, so the wedge never closes: those rows keep the 48-node rule, within
    # 2.2e-9 of the oracle, where 32 nodes miss by 1.3e-4
    _rows_against_the_window_oracle(gains(1.3, 0.7, 2.0), p_j, atol=1e-8)


def _window(u, v, rho: float, p_j: float) -> np.ndarray:
    """w0 = sqrt((1 + rho*B1~*P_J)*(1 + rho*B2~*P_J))/P_J at finite P_J."""
    return np.sqrt((1.0 + rho * p_j * u) * (1.0 + rho * p_j * v)) / p_j


def test_policy_rule_is_chosen_per_row() -> None:
    # rho = 1, P_J = 0.03: B~ = 0.1 gives w0 ~ 33, a wedge that closes inside the window
    # (32 nodes), and B~ = 30 gives ~ 63, a window cut at _A_TOP (48 nodes); a row's value
    # must not depend on the rows that share its block, or a rung would depend on how
    # montecarlo.estimate blocks the stream
    g, rho, p_j = gains(0.3, 0.2, 2.0), 1.0, 0.03
    edge = np.array([[0.1, 0.1], [30.0, 30.0], [0.1, 30.0], [30.0, 0.1]])
    draws = np.random.default_rng(43).exponential(size=(2500, 2)) * np.array([1.0, 12.0])
    u, v = np.concatenate((edge, draws)).T
    wide = _window(u, v, rho, p_j) > _A_TOP
    assert wide[1] and not wide[0] and 100 < wide.sum() < 2400
    rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
    for i in (0, 1, 2, 3, 1234, 2503):
        assert np.array_equal(_policy_integrand(u[i : i + 1], v[i : i + 1], g.a, g.b, rho, p_j)[0], rows[i])
    for lo, hi in ((7, 2504), (1, 1030), (1500, 1501)):
        assert np.array_equal(_policy_integrand(u[lo:hi], v[lo:hi], g.a, g.b, rho, p_j), rows[lo:hi])
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u[:12], v[:12])])
    np.testing.assert_allclose(rows[:12, 0], ref, rtol=0.0, atol=1e-9)



def test_semi_dynamic_rows_do_not_depend_on_their_block() -> None:
    # rho = 1 at P_J = inf: B~ = 0 gives an empty window (a dead row), B~ ~ 1 a narrow one
    # and B~ = 30 a window of 30, past the split at 3; in one block each row must be what
    # it is alone, where every mask of the closed form holds everywhere or nowhere
    g, rho = gains(0.3, 0.2, 2.0), 1.0
    edge = np.array([[0.0, 1.0], [30.0, 30.0], [0.5, 0.8], [1.0, 0.0], [30.0, 0.5], [0.0, 0.0]])
    u, v = np.concatenate((edge, np.random.default_rng(53).exponential(size=(300, 2)) * np.array([1.0, 12.0]))).T
    w0 = rho * np.sqrt(u * v)
    assert np.count_nonzero(w0 == 0) == 3 and 20 < np.count_nonzero(w0 >= 3.0) < 280
    rows = _policy_integrand(u, v, g.a, g.b, rho, math.inf)
    alone = np.concatenate([_policy_integrand(u[i : i + 1], v[i : i + 1], g.a, g.b, rho, math.inf) for i in range(u.size)])
    assert alone.tobytes() == rows.tobytes()
    assert np.all(rows[w0 == 0] == 0.0) and np.all(rows[w0 > 0, 0] > 0.0)


def test_semi_dynamic_row_is_zero_where_r_s_underflows() -> None:
    # 1e-80 from Bob's node r1 = rho*B1~*a/b = 1e-464 underflows to 0 while the window w0 > 0:
    # r_s*e^0*E1(0) was 0*inf, a nan row with RuntimeWarnings; the row's limit is 0
    g = gains(0.5, 1e-80, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _policy_integrand(np.array([1e-300, 1.0]), np.array([700.0, 1.0]), g.a, g.b, 1e-4, math.inf)
    assert rows[0, 0] == 0.0 and rows[0, 1] > 0.0
    assert 0.0 <= rows[1, 0] <= rows[1, 1]


@pytest.mark.parametrize("p_j", [1e-6, 1e15, math.inf])
@pytest.mark.parametrize("rho", [1e-4, 10.0])
def test_policy_rows_raise_no_floating_point_warning(monkeypatch, rho: float, p_j: float) -> None:
    # B~ at 1e-300 and 700 among ordinary draws, on two lanes: numpy's error state is per
    # thread, so a mask that relied on the caller's would warn in the worker's rows
    monkeypatch.setattr(montecarlo, "_LANES", 2)
    u, v = np.random.default_rng(59).exponential(size=(2, 3000))
    edge = np.array([1e-300, 700.0])
    u[::7], v[::7] = np.resize(np.repeat(edge, 2), u[::7].size), np.resize(np.tile(edge, 2), v[::7].size)
    for at in ((-0.6, 0.0), (0.49, 0.0), (1.3, 0.7)):
        g = gains(*at, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
        assert np.all(np.isfinite(rows)) and np.all(rows >= 0.0) and np.all(rows[:, 0] <= rows[:, 1])


def _rows_past_the_overflow() -> tuple:
    """(u, v): ordinary draws with B~ at 0, 1e-300 and 700 on every seventh row, two lanes' worth."""
    u, v = np.random.default_rng(67).exponential(size=(2, 3000))
    edge = np.array([0.0, 1e-300, 700.0])
    u[::7], v[::7] = np.resize(np.repeat(edge, 3), u[::7].size), np.resize(np.tile(edge, 3), v[::7].size)
    return u, v


# 1e-80 from Bob's node b/a = 1e160 overflows the layer rate c of the constant rows
PAST_THE_OVERFLOW = ((-0.6, 0.0), (0.49, 0.0), (1.3, 0.7), (0.5, 1e-80))


@pytest.mark.parametrize("p_j", [1e155, 1e300, sys.float_info.max])
def test_policy_rows_past_the_overflow_stay_finite_and_bounded(p_j: float) -> None:
    # P_J^2 overflowed a float from 1.34e154: no floating-point warning and rows inside their bounds
    u, v = _rows_past_the_overflow()
    for rho in (0.0, 1e-4, 1.0):
        for at in PAST_THE_OVERFLOW:
            g = gains(*at, 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
            assert np.all(np.isfinite(rows)) and np.all((rows[:, 0] >= 0.0) & (rows[:, 0] <= rows[:, 1]))


@pytest.mark.parametrize(
    "at",
    [
        *PAST_THE_OVERFLOW[:3],
        pytest.param(
            PAST_THE_OVERFLOW[3],
            marks=pytest.mark.xfail(
                strict=True,
                reason="at rho = 1 the rule has too few A~ nodes over L of 366-371 e-folds, 1.4e-7 off (ROADMAP item 19)",
            ),
        ),
    ],
)
@pytest.mark.parametrize("p_j", [1e155, 1e300, sys.float_info.max])
def test_policy_rows_past_the_overflow_are_the_unbounded_rows(p_j: float, at: tuple) -> None:
    # each row with rho*B~ past 1e-100 on both sides is the P_J = inf row, whose window differs
    # by 1/(P_J*rho*B~), to the rule's error
    u, v = _rows_past_the_overflow()
    g = gains(*at, 2.0)
    for rho in (1e-4, 1.0):
        far = rho * np.minimum(u, v) > 1e-100
        rows, unbounded = (_policy_integrand(u, v, g.a, g.b, rho, pj)[far] for pj in (p_j, math.inf))
        np.testing.assert_allclose(rows, unbounded, rtol=1e-9)


def test_constant_policy_at_1e300_is_the_semi_dynamic_one() -> None:
    # the constant rung raised OverflowError past P_J = 1.34e154; now it meets the semi-dynamic
    # closed form within the quadrature's rule error, and its window mass P2 is P1 on the stream
    mc = MCConfig(seed=3, n_samples=20_000)
    for g in (ORIGIN, gains(0.49, 0.0, 2.0)):
        for rho in (0.01, 1.0):
            params = SystemParams(p_t=1.0, p_j=1e300, rho=rho)
            const = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, params, mc)
            semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
            assert const.estimate.mean == pytest.approx(semi.estimate.mean, rel=1e-9, abs=0.0)
            assert const.p2 == semi.p1 == p2_bound(rho, 1e300, mc) == p1_bound(rho, mc)


def test_policy_row_keeps_the_nodes_of_a_tiny_k() -> None:
    # P_J = 1e100 with one B~ = 0: the boundary layer at A~ = 0 drives K = w1/w2 below
    # 1e-30 over most of the window, and those nodes carry the row; a cut at a fixed
    # fraction of w2 dropped them and read up to half the row low
    g, rho, p_j = ORIGIN, 0.01, 1e100
    u, v = np.array([1e-9, 30.0, 700.0]), np.zeros(3)
    rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u, v)])
    np.testing.assert_allclose(rows[:, 0], ref, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("p_j, b_t, want", [(1e100, (30.0, 0.0), 2.7386e-50), (math.inf, (1e-300, 1.0), 1.5e-150)])
def test_per_draw_wedge_keeps_a_tiny_k(p_j: float, b_t: tuple, want: float) -> None:
    # halfway into the window the boundary layer has made K tiny, yet w1 > 0: every form of
    # the per-draw probability is K*exp(-E) from the wedge terms, in the gathering kernel too
    rho = 0.01
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    coeffs = _wedge_coeffs(ORIGIN.a, ORIGIN.b, rho, p_j, *b_t)
    a_t = 0.5 * math.sqrt(coeffs[0] / coeffs[1])
    w1, w2, w3 = (float(w) for w in _wedge(coeffs, a_t))
    wedge = w1 / w2 * math.exp(-w3 / w1)
    assert wedge == pytest.approx(want, rel=1e-4, abs=0.0)
    t = pair_terms(ORIGIN, params, a_t, *b_t)
    far = cond_prob_zero_pair_array(ORIGIN, params, np.concatenate(([a_t], np.full(20, 1e4))), *b_t)
    assert np.all(far[1:] == 0.0)
    for got in (cond_prob_zero_pair(ORIGIN, params, a_t, *b_t), t.k * math.exp(-t.e_exp), far[0]):
        assert got == pytest.approx(wedge, rel=1e-12, abs=0.0)


def test_per_draw_wedge_integrates_to_the_policy_row_at_a_tiny_k() -> None:
    # 200 Gauss-Legendre nodes over [0, w0] in t, A~ = expm1(t*L)/c with L = log1p(c*w0), which
    # spreads the boundary layer of rate c = D1/C0; the row lives where K is tiny
    rho, p_j, b_t = 0.01, 1e100, (30.0, 0.0)
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    c0, c2, d1, _, _ = _wedge_coeffs(ORIGIN.a, ORIGIN.b, rho, p_j, *b_t)
    w0, c = math.sqrt(c0 / c2), d1 / c0
    x, wx = np.polynomial.legendre.leggauss(200)
    t, big_l = 0.5 * (1.0 + x), math.log1p(c * w0)
    a_t = np.expm1(t * big_l) / c
    jacobian = 0.5 * wx * big_l / c * np.exp(t * big_l)
    got = float(np.sum(jacobian * np.exp(-a_t) * cond_prob_zero_pair_array(ORIGIN, params, a_t, *b_t)))
    assert got == pytest.approx(quad_policy_row(ORIGIN, params, *b_t), rel=1e-6, abs=0.0)

@pytest.mark.parametrize("nodes", [1, 3, 5, 32, 48])
def test_node_sum_is_a_sum_of_each_column_alone(nodes: int) -> None:
    # the quadrature's node sum: within the dtype's rounding of an exact sum, and each
    # column bit for bit what it is when summed alone
    vals = np.random.default_rng(nodes).random((nodes, 9))
    alone = [_node_sum(vals[:, j : j + 1].copy())[0] for j in range(9)]
    got = _node_sum(vals.copy())
    np.testing.assert_allclose(got, [math.fsum(col) for col in vals.T], rtol=nodes * 2.3e-16, atol=0.0)
    assert got.tolist() == alone


@pytest.mark.parametrize("at", [(0.0, 0.0), (-0.6, 0.0), (0.49, 0.0), (0.499, 0.0), (1.3, 0.7), (0.2, 1.5)])
def test_closing_rule_against_128_nodes(monkeypatch, at) -> None:
    # where the wedge closes inside the window, 32 crowded nodes are within 1.4e-10 of 128
    # on the same map (measured) and case means within 5e-9; the rows whose window is cut
    # at _A_TOP are the 48-node rows; B~ = 100 gives such rows at rho = 1 below 10 dB
    g = gains(*at, 2.0)
    u, v = np.random.default_rng(31).exponential(size=(2, 2000))
    u, v = np.concatenate((u, [1e-9, 30.0, 100.0])), np.concatenate((v, [1e-9, 30.0, 100.0]))
    wide_rows = 0
    for rho in (1e-4, 0.01, 0.1, 1.0):
        for db in range(-10, 81, 10):
            p_j = 10.0 ** (db / 10.0)
            rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)[:, 0]
            closing = _window(u, v, rho, p_j) <= _A_TOP
            with monkeypatch.context() as m:
                m.setattr(pairwise_fading, "_CLOSING_RULE", _crowded_rule(128))
                fine = _policy_integrand(u, v, g.a, g.b, rho, p_j)[:, 0]
                m.setattr(pairwise_fading, "_CLOSING_RULE", _WIDE_RULE)
                all_48 = _policy_integrand(u, v, g.a, g.b, rho, p_j)[:, 0]
            assert np.all(np.abs(rows[closing] - fine[closing]) <= 1e-9)
            assert abs(rows[closing].mean() - fine[closing].mean()) <= 2e-8 * fine[closing].mean()
            assert np.array_equal(rows[~closing], all_48[~closing])
            wide_rows += int(np.sum(~closing))
    assert wide_rows > 0


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.1, 1.0])
def test_window_oracle_resolves_a_tiny_self_interference_fading(rho: float) -> None:
    # with one B~ tiny, the layer where v1 or u1 reaches 1 lies far below 1e-15*w0; the
    # oracle starts its lower grid below that scale and meets the closed form to 1e-12
    g = gains(0.499, 0.0, 2.0)
    u, v = np.array([1e-9, 1e-9, 30.0]), np.array([30.0, 5.0, 1e-9])
    rows = _policy_integrand(u, v, g.a, g.b, rho, math.inf)[:, 0]
    params = SystemParams(p_t=1.0, p_j=math.inf, rho=rho)
    ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u, v)])
    np.testing.assert_allclose(ref, rows, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "at, rho, p_j, gathered",
    [((-0.6, 0.0), 1.0, 1e4, False), ((-0.6, 0.0), 0.01, 1.0, False), ((0.0, 0.0), 0.01, 1e4, True)],
    ids=["dense", "dense at P_J = 1", "gathered"],
)
def test_kernel_takes_the_window_once_per_draw(monkeypatch, at, rho: float, p_j: float, gathered: bool) -> None:
    # one evaluation of the gain-free window per draw, whether the wedge then runs on every
    # draw or on the live ones alone (under a quarter of them live), with the same bits
    window, wedge, seen = pairwise_fading._wedge_window, pairwise_fading._wedge, {"window": [], "wedge": []}

    def counted_window(rho, p_j, b1_t, b2_t):
        seen["window"].append(np.broadcast(b1_t, b2_t).size)
        return window(rho, p_j, b1_t, b2_t)

    def counted_wedge(coeffs, a_t, *rest):
        seen["wedge"].append(np.size(a_t))
        return wedge(coeffs, a_t, *rest)

    u = montecarlo.sample_matrix(MCConfig(seed=4, n_samples=5000), 3)
    g, params = gains(*at, 2.0), SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    want = cond_prob_zero_pair_array(g, params, *u.T)
    monkeypatch.setattr(pairwise_fading, "_wedge_window", counted_window)
    monkeypatch.setattr(pairwise_fading, "_wedge", counted_wedge)
    got = cond_prob_zero_pair_array(g, params, *u.T)
    assert seen["window"] == [5000] and got.tobytes() == want.tobytes()
    live = np.count_nonzero(got)
    assert seen["wedge"] == ([live] if gathered else [5000]) and (4 * live < 5000) == gathered


# (x, e^x*E1(x)) to 17 digits, from a 40-digit evaluation; the series/continued
# fraction split of _exp_e1 lies at x = 1, and the series cancelled most just below 3
EXP_E1_TABLE = (
    (1e-300, 690.19831223331217),
    (1e-12, 27.053805451055069),
    (1e-3, 6.337874070325488),
    (0.1, 2.0146425447084516),
    (0.5, 0.92291063248373047),
    (0.9999999999999999, 0.59634736232319412),
    (1.0, 0.59634736232319407),
    (2.0, 0.36132861688822258),
    (2.9999999999999996, 0.26208374025531853),
    (3.0, 0.2620837402553185),
    (3.5, 0.23081933159801029),
    (5.0, 0.1704221762847322),
    (10.0, 0.091563333939788082),
    (30.0, 0.032289738758980125),
    (100.0, 0.0099019422867330184),
    (1e4, 9.999000199940024e-5),
    (1e10, 9.999999999e-11),
)


def test_exp_e1_against_a_table() -> None:
    x, want = np.array(EXP_E1_TABLE).T
    np.testing.assert_allclose(_exp_e1(x), want, rtol=1e-15, atol=0.0)


def test_x_exp_e1_against_the_table_and_its_limits() -> None:
    # h(x) = x*e^x*E1(x), the A~ integral of the colluding outage: 0 at x = 0, 1 at x = inf
    x, want = np.array(EXP_E1_TABLE).T
    np.testing.assert_allclose(_x_exp_e1(x), x * want, rtol=1e-15, atol=0.0)
    assert _x_exp_e1(np.array([0.0, math.inf])).tolist() == [0.0, 1.0]


_EULER_GAMMA_60 = decimal.Decimal("0.577215664901532860606512090082402431042159335939923598805767")


def _exp_e1_60_digits(x: float) -> decimal.Decimal:
    """e^x*E1(x) = e^x*(-gamma - ln x - sum_k (-x)^k/(k*k!)) in 60-digit decimals, for 0 < x <= 20.

    The terms of the series reach 20^20/20! ~ 4e7 against E1(20) ~ 1e-10, so
    the sum runs at 90 digits, which leaves more than 60.
    """
    with decimal.localcontext(decimal.Context(prec=90)):
        d, term, total, k = decimal.Decimal(x), decimal.Decimal(1), decimal.Decimal(0), 0
        while k < 2 * d or abs(term) > decimal.Decimal("1e-80"):
            k += 1
            term *= -d / k
            total += term / k
        return (-_EULER_GAMMA_60 - d.ln() - total) * d.exp()


def test_exp_e1_within_3_ulps_of_a_60_digit_series_on_a_dense_grid() -> None:
    # 2 001 points on [1e-3, 20] and the neighbours of x = 1 and 3: the series cancelled
    # past x = 1, up to 239 ulps just below 3, and a 32-term fraction lost 8 ulps on [3, 5)
    x = np.geomspace(1e-3, 20.0, 2001)
    x = np.concatenate((x, np.nextafter(1.0, [0.0, 2.0]), np.nextafter(3.0, [0.0, 4.0]), [1.0, 3.0]))
    want = np.array([float(_exp_e1_60_digits(float(t))) for t in x])
    for got in (_exp_e1(x), _x_exp_e1(x) / x):
        assert np.all(np.abs(got - want) <= 3 * np.spacing(want))


@pytest.mark.parametrize(
    "x",
    [
        np.array([1e-300, 1e-12, 0.5, 0.9999999999999999]),  # all below the split at 1
        np.array([[1.0, 30.0], [1e4, 1e10]]),  # all above it
        np.array([1e-3, 3.0, 0.5, 100.0, 2.0]),  # both sides
        np.empty(0),
        np.array(0.5),
        np.array(5.0),
    ],
    ids=["small", "large", "mixed", "empty", "0-d small", "0-d large"],
)
def test_exp_e1_is_the_bits_of_each_element_alone(x) -> None:
    got = _exp_e1(x)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == x.shape
    alone = [_exp_e1(t) for t in x.ravel().tolist()]
    assert all(type(a) is np.ndarray and a.shape == () for a in alone)
    assert np.array(alone).tobytes() == got.ravel().tobytes()


def test_e1_cf_of_no_elements_is_two_empty_float_arrays() -> None:
    for part in _e1_cf(np.empty(0)):
        assert type(part) is np.ndarray and part.dtype == np.float64 and part.shape == (0,)

@pytest.mark.parametrize("at", [(0.0, 0.0), (-0.6, 0.0), (0.49, 0.0), (0.499, 0.0), (1.3, 0.7)])
@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.1, 1.0])
def test_semi_dynamic_row_matches_the_window_oracle(at, rho: float) -> None:
    # at P_J = inf the row is a closed form in e^x*E1(x); near Bob's node r1 and r2
    # lie 12 decades apart, where a plain sum of four E1 terms loses its digits
    g = gains(*at, 2.0)
    u, v = np.random.default_rng(29).exponential(size=(2, 8))
    # edge rows B~ = 1e-9 and B~ = 30, and B~ = 4, whose window rho*4 at rho = 1 lies
    # just past the split at 3 between the two evaluations of the smooth part
    u = np.concatenate((u, [1e-9, 1e-9, 30.0, 30.0, 4.0]))
    v = np.concatenate((v, [1e-9, 30.0, 1e-9, 30.0, 4.0]))
    rows = _policy_integrand(u, v, g.a, g.b, rho, math.inf)
    params = SystemParams(p_t=1.0, p_j=math.inf, rho=rho)
    ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u, v)])
    gap = np.abs(rows[:, 0] - ref)
    assert np.all(gap <= 1e-12)
    assert np.all(gap <= 1e-9 * ref)
    np.testing.assert_allclose(rows[:, 1], -np.expm1(-rho * np.sqrt(u * v)), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("at", [(0.5, 0.0), (-0.5, 0.0)])
def test_policy_at_an_endpoint_node_keeps_its_bound(at) -> None:
    # any jamming zeroes the probability at a node; the window mass has no gain
    # in it, so each rung still reports its bound on the same stream
    g = gains(*at, 2.0)
    mc = MCConfig(seed=3, n_samples=5000)
    params = SystemParams(p_t=1.0, p_j=10.0, rho=0.1)
    const = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, params, mc)
    semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
    assert const.estimate == semi.estimate == montecarlo.Estimate(0.0, 0.0, mc.n_samples)
    assert const.p1 is None and const.p2 == p2_bound(params.rho, params.p_j, mc)
    assert semi.p2 is None and semi.p1 == p1_bound(params.rho, mc)
    silent = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, silent, mc)
    assert (rep.estimate.mean, rep.p2.mean) == (prob_zero_nojam(g), 1.0)  # the window is unbounded


@pytest.mark.parametrize("g", [LinkGains(math.inf, 3.0), LinkGains(0.25, math.inf)])
def test_constant_policy_without_jamming_at_a_node_is_the_mean_of_its_draws(g: LinkGains) -> None:
    # per draw the node limit is exp(-A~*(1/a + 1/b)), whose mean is prob_zero_nojam's 1/(1 + 1/a + 1/b)
    params, mc = SystemParams(p_t=1.0, p_j=0.0, rho=0.1), MCConfig(seed=3, n_samples=200_000)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, params, mc)
    per_draw = estimate(lambda u: cond_prob_zero_pair_array(g, params, *u.T), mc, draws_per_sample=3)
    assert rep.estimate.mean == prob_zero_nojam(g)
    assert abs(rep.estimate.mean - per_draw.mean) <= 4.0 * per_draw.stderr


@pytest.mark.parametrize("kind", [JamPolicyKind.CONSTANT, JamPolicyKind.SEMI_DYNAMIC])
def test_policy_rung_draws_its_stream_once(monkeypatch, kind: JamPolicyKind) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", 2048)
    drawn = []
    real = montecarlo.exp_chunks

    def counted(config, draws_per_sample=1):
        for chunk in real(config, draws_per_sample):
            drawn.append(chunk.shape[0])
            yield chunk

    monkeypatch.setattr(montecarlo, "exp_chunks", counted)
    mc = MCConfig(seed=6, n_samples=5000)
    params = SystemParams(p_t=1.0, p_j=100.0, rho=0.1)
    rep = policy_prob_zero(JamPolicy(kind), ORIGIN, params, mc)
    assert sum(drawn) == mc.n_samples
    # the bound from the same pass is the public bound on the same stream, bit for bit
    monkeypatch.setattr(montecarlo, "exp_chunks", real)
    if kind is JamPolicyKind.CONSTANT:
        assert rep.p1 is None and rep.p2 == p2_bound(params.rho, params.p_j, mc)
    else:
        assert rep.p2 is None and rep.p1 == p1_bound(params.rho, mc)


def test_constant_policy_no_jam_closed_form() -> None:
    params = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    rep = policy_prob_zero(
        JamPolicy(JamPolicyKind.CONSTANT), ORIGIN, params, MCConfig(seed=2, n_samples=100)
    )
    assert rep.estimate.mean == pytest.approx(2.0 / 3.0)
    assert rep.estimate.stderr == 0.0


def test_general_dynamic_policy_report() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    mc = MCConfig(seed=9, n_samples=50_000)
    rep = policy_prob_zero(
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1e-4), ORIGIN, params, mc
    )
    assert rep.estimate.mean == 0.0
    assert rep.acceptance is not None and 0.0 < rep.acceptance.mean < 1.0
    assert rep.residual is not None and rep.residual.mean <= 1e-4


def test_secrecy_sample_pair_zero_event_frequency() -> None:
    g = gains(0.25, 0.1, 2.0)
    params = SystemParams(p_t=10.0, p_j=0.5, rho=0.1)
    closed = cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    n = 40_000
    draws = rng.exponential(size=(n, 2))
    zero = sum(
        1 for c, d in draws if secrecy_sample_pair(g, params, float(c), float(d)) == 0.0
    )
    se = math.sqrt(closed * (1.0 - closed) / n)
    assert abs(zero / n - closed) <= 3.5 * se


@pytest.mark.parametrize(
    "p_j, rho", [(0.0, 0.1), (math.inf, 0.1), (10.0, 0.0), (math.inf, 0.0)]
)
def test_array_form_node_limit_at_an_endpoint(p_j: float, rho: float) -> None:
    # Eve on (0.5, 0): b = inf.  Jamming drives both phases' failure to 0;
    # without it only the A->B phase can fail, with probability exp(-A~/a)
    g = gains(0.5, 0.0, 2.0)
    assert math.isinf(g.b) and g.a == 1.0
    params = SystemParams(p_t=100.0, p_j=p_j, rho=rho)
    mc = MCConfig(seed=8, n_samples=5000)
    est = estimate(lambda u: cond_prob_zero_pair_array(g, params, u[:, 0], u[:, 1], u[:, 2]), mc, draws_per_sample=3)
    if p_j == 0:
        same_stream = estimate(lambda u: np.exp(-u[:, 0]), mc, draws_per_sample=3)
        assert est.mean == pytest.approx(same_stream.mean, rel=1e-12)
        assert cond_prob_zero_pair(g, params, 2.0, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    else:
        assert (est.mean, est.stderr) == (0.0, 0.0)
        assert cond_prob_zero_pair(g, params, 2.0, 1.0, 1.0) == 0.0


# rows per estimate block: 2048 and fewer run on one lane; 2049 splits after
# two tiles, 8193 after one chunk, and n = 1e5 takes a 65 536- and a 34 464-row block
LANE_ROWS = [1, 1023, 1024, 2049, 8193, 100_000]
LANE_AT = [(0.0, 0.0), (1.3, 0.7), (0.5, 0.0)]  # the last is Bob's node


@pytest.mark.parametrize("kind", [JamPolicyKind.CONSTANT, JamPolicyKind.SEMI_DYNAMIC])
@pytest.mark.parametrize("n", LANE_ROWS)
def test_policy_rows_are_the_same_bits_on_one_and_two_lanes(monkeypatch, n: int, kind: JamPolicyKind) -> None:
    # the reports on the rung's stream, and the rows of one call over all n draws (below
    # the 2^16-row block of estimate); a semi rung runs at P_J = inf whatever params.p_j
    semi = kind is JamPolicyKind.SEMI_DYNAMIC
    u, v = np.random.default_rng(n).exponential(size=(2, n)) * np.array([[1.0], [12.0]])
    for at in LANE_AT:
        g = gains(*at, 2.0)
        for rho in (0.0, 0.01, 1.0):
            for p_j in (math.inf,) if semi else (1e-3, 1.0, 1e4, math.inf):
                params = SystemParams(p_t=1e6, p_j=p_j, rho=rho)
                mc = MCConfig(seed=n % 97, n_samples=n)
                reps, rows = [], []
                for lanes in (1, 2):
                    monkeypatch.setattr(montecarlo, "_LANES", lanes)
                    reps.append(policy_prob_zero(JamPolicy(kind), g, params, mc))
                    if not math.isinf(g.b) and n <= montecarlo._BLOCK:
                        rows.append(_policy_integrand(u, v, g.a, g.b, rho, p_j).tobytes())
                assert repr(reps[0]) == repr(reps[1])
                assert rows[:1] == rows[1:]


def test_policy_rows_lanes_under_contention(monkeypatch) -> None:
    # more lanes than cores and a thread switch every microsecond: a row written by the
    # wrong lane, or twice, would change the rows
    u, v = np.random.default_rng(47).exponential(size=(2, 30_000))
    monkeypatch.setattr(montecarlo, "_LANES", 1)
    want = _policy_integrand(u, v, ORIGIN.a, ORIGIN.b, 0.01, 1e4)
    monkeypatch.setattr(montecarlo, "_LANES", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _policy_integrand(u, v, ORIGIN.a, ORIGIN.b, 0.01, 1e4)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


class _CountedThread(threading.Thread):
    made = 0

    def __init__(self, *args, **kwargs) -> None:
        type(self).made += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("kind", [JamPolicyKind.CONSTANT, JamPolicyKind.SEMI_DYNAMIC])
def test_policy_rows_start_a_thread_only_for_a_second_lane(monkeypatch, kind: JamPolicyKind) -> None:
    # one thread per estimate block that splits; semi-dynamic rows stay on one lane
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    params = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    for lanes, n, threads in ((1, 100_000, 0), (2, 2048, 0), (2, 2049, 1), (2, 100_000, 2)):
        monkeypatch.setattr(montecarlo, "_LANES", lanes)
        _CountedThread.made = 0
        policy_prob_zero(JamPolicy(kind), ORIGIN, params, MCConfig(seed=4, n_samples=n))
        assert _CountedThread.made == (0 if kind is JamPolicyKind.SEMI_DYNAMIC else threads)


def test_a_policy_lane_failure_is_raised_after_every_lane_stopped(monkeypatch) -> None:
    real, raised = pairwise_fading._rows_on_rule, []

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():  # lane 1's rows
            raised.append(RuntimeError("lane 1"))
            raise raised[-1]
        return real(*args)

    monkeypatch.setattr(montecarlo, "_LANES", 2)
    monkeypatch.setattr(pairwise_fading, "_rows_on_rule", failing)
    params = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), ORIGIN, params, MCConfig(seed=5, n_samples=30_000))
    assert info.value is raised[0]
    assert threading.active_count() == before
