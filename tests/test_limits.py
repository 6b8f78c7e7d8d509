"""Limit suite for the five scalar secrecy/outage forms, the kernels under them and the policy quadrature.

Every scalar form is a call into one array kernel, so the properties are
stated once per quantity: no NaN, secrecy >= 0, probabilities in [0, 1], the
kernel on arrays equals the scalar form element by element, and the closed
limits (infinite gain at an endpoint, P_J in {0, inf}, rho = 0, zero
fading, b = rho*a, w1 at the _W1_GUARD cutoff) hold as literal values.
The policy quadrature keeps 0 <= estimate row <= window-bound row, with an
empty window at P_J = inf when rho = 0 or B~ = 0.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdjam.colluding import _secrecy_array, secrecy_ab
from fdjam.colluding_fading import _cond_prob_zero_array, cond_prob_zero, secrecy_sample, v_terms
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam.montecarlo import MCConfig
from fdjam.pairwise_fading import (
    _W1_GUARD,
    JamPolicy,
    JamPolicyKind,
    _cond_prob_zero_pair_kernel,
    _policy_integrand,
    cond_prob_zero_pair,
    p1_bound,
    p2_bound,
    pair_terms,
    pj_star,
    policy_prob_zero,
    prob_zero_nojam,
    secrecy_sample_pair,
)

INF = math.inf
finite_gain = st.floats(1e-3, 1e3)
gain = st.one_of(finite_gain, st.just(INF))
power = st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.just(INF))
rho_s = st.one_of(st.just(0.0), st.floats(1e-4, 0.9))
fading = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
p_t_s = st.floats(1e-2, 1e6)
SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def gain_pairs(draw):
    """(a, b) with at most one endpoint gain; b = rho*a comes in through the examples."""
    a, b = draw(gain), draw(gain)
    assume(not (math.isinf(a) and math.isinf(b)))
    return LinkGains(a, b)


def _link_snr(a_t: float, b_t: float, p: SystemParams) -> float:
    """SNR_AB = A~*P_T/(1 + rho*B~*P_J), with a zero jamming factor read as no jamming."""
    if p.p_j == 0 or p.rho * b_t == 0:
        return a_t * p.p_t
    return 0.0 if math.isinf(p.p_j) else a_t * p.p_t / (1.0 + p.rho * b_t * p.p_j)


@SETTINGS
@given(gain_pairs(), rho_s, power, p_t_s, fading, fading, fading, fading, fading)
@example(LinkGains(INF, 1.0), 0.1, 10.0, 100.0, 1.0, 1.0, 1.0, 0.0, 0.4)
@example(LinkGains(1.0, INF), 0.0, INF, 100.0, 1.0, 0.0, 1.0, 0.7, 0.0)
@example(LinkGains(4.0, 0.4), 0.1, 50.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0)  # b = rho*a
def test_secrecy_limits(g, rho, p_j, p_t, a_t, b_t, b2_t, c, d) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
    s_ab = secrecy_sample(g, p, c, d, a_t, b_t)
    s_pair = secrecy_sample_pair(g, p, c, d, a_t, b_t, b2_t)
    s_static = secrecy_ab(g, p)
    for s in (s_ab, s_pair, s_static):
        assert not math.isnan(s) and s >= 0.0
    top = math.log2(1.0 + _link_snr(a_t, b_t, p))
    assert s_ab <= top + 1e-12
    if c == 0.0:  # Eve's path faded out: the whole link rate is secret
        assert s_ab == pytest.approx(top, rel=1e-12, abs=1e-12)
    elif math.isinf(g.a):  # Eve on the transmitter
        assert s_ab == 0.0 and s_static == 0.0
    elif math.isinf(p_j) and d * g.b > 0:  # jamming silences Eve
        assert s_ab == pytest.approx(top, rel=1e-12, abs=1e-12)
    elif p_j == 0 or d == 0:  # Eve hears the transmitter unjammed
        want = max(0.0, top - math.log2(1.0 + c * g.a * p_t))
        assert s_ab == pytest.approx(want, rel=1e-9, abs=1e-12)
    # the kernel on arrays is the scalar form element by element
    ga, gb = np.array([g.a, g.b]), np.array([g.b, g.a])
    arr = _secrecy_array(ga, gb, p_t, rho, p_j, np.array([c, d]), np.array([d, c]), a_t, np.array([b_t, b2_t]))
    assert arr[0] == s_ab
    assert 0.5 * (arr[0] + arr[1]) == s_pair


@SETTINGS
@given(gain_pairs(), rho_s, power, fading, fading)
@example(LinkGains(1.0, INF), 0.1, 0.0, 2.0, 7.0)
@example(LinkGains(2.0, 1.0), 0.0, INF, 1.5, 0.5)
@example(LinkGains(1.0, INF), 0.1, 10.0, 0.0, 1.0)
@example(LinkGains(4.0, 0.4), 0.1, INF, 1.0, 1.0)  # b = rho*a
def test_colluding_outage_limits(g, rho, p_j, a_t, b_t) -> None:
    p = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    prob = cond_prob_zero(g, p, a_t, b_t)
    t = v_terms(g, p, a_t, b_t)
    assert not math.isnan(prob) and 0.0 <= prob <= 1.0
    assert not math.isnan(t.v1) and not math.isnan(t.v2) and t.v1 >= 0.0 and t.v2 >= 0.0
    if math.isinf(g.a) or a_t == 0.0:  # Eve on the transmitter, or no signal to protect
        assert prob == 1.0
    elif p_j == 0:  # v1 vanishes, even at b = inf
        assert t.v1 == 0.0
        assert prob == pytest.approx(math.exp(-a_t / g.a), rel=1e-15)
    elif math.isinf(g.b):  # Eve on the jammer
        assert prob == 0.0
    elif math.isinf(p_j) and rho * b_t == 0:  # free jamming
        assert prob == 0.0 and t.v2 == pytest.approx(a_t / g.a, rel=1e-15)
    elif math.isinf(p_j):
        assert t.v2 == 0.0
        assert prob == pytest.approx(1.0 / (1.0 + g.b * a_t / (g.a * rho * b_t)), rel=1e-12)
    a_arr = np.array([a_t, 0.5, 2.0])
    arr = _cond_prob_zero_array(g.a, g.b, rho, p_j, a_arr, np.full(3, b_t))
    assert arr[0] == prob
    assert np.all((arr >= 0.0) & (arr <= 1.0))


@SETTINGS
@given(gain_pairs(), rho_s, power, fading, fading, fading)
@example(LinkGains(INF, 1.0), 0.1, 0.0, 1.0, 1.0, 1.0)
@example(LinkGains(1.0, INF), 0.0, 10.0, 1.0, 1.0, 1.0)
@example(LinkGains(1.0, 1.0), 0.0, INF, 0.0, 0.0, 0.0)
@example(LinkGains(1e-3, 1e-3), 0.1, INF, 1e-300, 0.5, 0.5)  # K rounds above 1 as A~ -> 0
def test_pairwise_outage_limits(g, rho, p_j, a_t, b1_t, b2_t) -> None:
    p = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    prob = cond_prob_zero_pair(g, p, a_t, b1_t, b2_t)
    assert not math.isnan(prob) and 0.0 <= prob <= 1.0
    inv = (0.0 if math.isinf(g.a) else 1.0 / g.a) + (0.0 if math.isinf(g.b) else 1.0 / g.b)
    node = math.isinf(g.a) or math.isinf(g.b)
    if p_j == 0:  # K = 1 and E = A~(1/a + 1/b), and the node limit is the same form
        assert prob == pytest.approx(math.exp(-a_t * inv), rel=1e-9, abs=1e-300)
    elif node:
        assert prob == 0.0
    elif math.isinf(p_j) and a_t**2 >= rho**2 * b1_t * b2_t:  # outside the window A~ < rho*sqrt(B1~*B2~)
        assert prob == 0.0
    elif math.isinf(p_j) and a_t == 0.0:
        assert prob == pytest.approx(1.0, rel=1e-12)
    if not node:
        t = pair_terms(g, p, a_t, b1_t, b2_t)
        assert not any(math.isnan(v) for v in (t.k, t.e_exp, t.c_min, t.v1, t.u1))
        assert prob == (0.0 if t.k == 0.0 else pytest.approx(t.k * math.exp(-t.e_exp), rel=1e-12, abs=1e-300))
    a = np.array([g.a, 2.0, INF if not math.isinf(g.b) else 3.0])
    b = np.array([g.b, 0.5, 1.0])
    arr = _cond_prob_zero_pair_kernel(a, b, rho, p_j, a_t, b1_t, b2_t)
    assert arr[0] == prob
    assert np.all((arr >= 0.0) & (arr <= 1.0))


@SETTINGS
@given(finite_gain, finite_gain, st.floats(1e-3, 0.9), st.floats(0.1, 5.0), fading, fading, st.floats(-1e-13, 1e-13))
def test_pairwise_outage_at_the_w1_cutoff(a, b, rho, a_t, b1_t, b2_t, eps) -> None:
    # around the gate P_J* the wedge closes: w1 crosses 0 and K*exp(-E)
    # must go to 0 without NaN, and is exactly 0 wherever w1 <= _W1_GUARD*w2
    star = pj_star(a_t, b1_t, b2_t, rho)
    assume(star is not None)
    g = LinkGains(a, b)
    p = SystemParams(p_t=1.0, p_j=star * (1.0 + eps), rho=rho)
    prob = cond_prob_zero_pair(g, p, a_t, b1_t, b2_t)
    t = pair_terms(g, p, a_t, b1_t, b2_t)
    assert not math.isnan(prob) and 0.0 <= prob <= 1e-10
    if not t.w1 > _W1_GUARD * t.w2:
        assert prob == 0.0 and t.k == 0.0 and t.e_exp == INF
    assert cond_prob_zero_pair(g, SystemParams(p_t=1.0, p_j=star * 1.001, rho=rho), a_t, b1_t, b2_t) == 0.0


@SETTINGS
@given(finite_gain, finite_gain, rho_s, st.one_of(st.floats(1e-3, 1e6), st.just(INF)), fading, fading)
@example(1.0, 1.0, 0.0, INF, 1.0, 1.0)  # rho = 0: empty window
@example(4.0, 4.0, 0.1, INF, 0.0, 2.0)  # B1~ = 0: empty window
@example(4.0, 4.0, 0.1, 10.0, 0.0, 0.0)  # B~ = 0 at finite power: window 1/P_J
@example(1e-3, 1e3, 0.5, 1e6, 10.0, 1e-6)  # c*w0 far above 1
def test_policy_integrand_limits(a, b, rho, p_j, b1_t, b2_t) -> None:
    # rows for (B1~, B2~), the same swapped, and both zero
    u, v = np.array([b1_t, b2_t, 0.0]), np.array([b2_t, b1_t, 0.0])
    rows = _policy_integrand(u, v, a, b, rho, p_j)
    assert not np.any(np.isnan(rows))
    assert np.all((rows >= 0.0) & (rows <= 1.0))
    assert np.all(rows[:, 0] <= rows[:, 1])  # estimate <= P2 (P1 at P_J = inf) row by row
    if math.isinf(p_j):
        empty = rho * u * v == 0.0  # window rho*sqrt(B1~*B2~) is empty
        assert np.all(rows[empty] == 0.0)


def test_policy_integrand_at_vanishing_power() -> None:
    # c*w0 -> 0: K -> 1 and E -> A~(1/a + 1/b) over a window wider than e^-A~ reaches,
    # so each row is the no-jam closed form 1/(1 + 1/a + 1/b)
    g = gains(0.3, 0.2, 2.0)
    u, v = np.array([0.0, 0.5, 3.0]), np.array([1.0, 0.5, 0.0])
    for p_j in (1e-9, 1e-12):
        rows = _policy_integrand(u, v, g.a, g.b, 0.1, p_j)
        assert rows[:, 0] == pytest.approx(prob_zero_nojam(g), rel=1e-8)
        assert np.all(rows[:, 1] == 1.0)


@pytest.mark.parametrize("p_j", [10.0, INF])
def test_policy_prob_zero_at_rho_zero(p_j: float) -> None:
    # no self-interference: the semi-dynamic window rho*sqrt(B1~*B2~) is empty, so its
    # estimate and P1 are exactly 0; the constant policy keeps the window 1/P_J
    mc = MCConfig(seed=4, n_samples=3000, chunk=1000)
    params = SystemParams(p_t=1.0, p_j=p_j, rho=0.0)
    g = gains(-0.2, 0.3, 2.0)
    semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
    assert (semi.estimate.mean, semi.estimate.stderr, semi.p1.mean) == (0.0, 0.0, 0.0)
    assert semi.p1 == p1_bound(0.0, mc)
    const = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, params, mc)
    if math.isinf(p_j):
        assert (const.estimate.mean, const.p2.mean) == (0.0, 0.0)
    else:
        assert const.p2 == p2_bound(0.0, p_j, mc)
        assert const.p2.mean == pytest.approx(-math.expm1(-1.0 / p_j), rel=1e-12)  # B~ drops out
        assert 0.0 < const.estimate.mean < const.p2.mean
