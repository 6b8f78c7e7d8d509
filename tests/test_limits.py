"""Limit suite for the five scalar secrecy/outage forms, the kernels under them, the jam-derivative
coefficients, the CDF lower bound, the near-field law and the policy rows.

Every scalar form is a call into one array kernel, so the properties are
stated once per quantity: no NaN, secrecy >= 0, probabilities in [0, 1], the
kernel on arrays equals the scalar form element by element, and the closed
limits (infinite gain at an endpoint, P_J in {0, inf}, rho = 0, zero
fading, b = rho*a, w1 = 0 at the jamming gate) hold as literal values.
The SNR forms (snr_ab, the secrecy static, per fading draw and over a
field at P_T = 1e308, and T) match a 60-digit decimal evaluation of the
raw SNRs wherever those lie in the float range.
The pairwise wedge coefficients reproduce the w-form K = w1/w2, E = w3/w1
and the closed forms of the window and the layer rate.  The policy rows
(the quadrature at finite P_J, the closed form at P_J = inf) keep
0 <= estimate row <= window-bound row, with an empty window at P_J = inf
when rho = 0 or B~ = 0.  The CDF lower bound and the near-field law keep
their node, rho = 0 and infinite-level limits, with typed errors the only
failures.  So do the T factor and the forms built on it (secrecy_from_t,
the x-axis slope, the left/right asymmetry), the asymptotic forms (the
slope's singularity, the asymmetry's large-P_J limit, the near/far-field
plateaus, the node peaks), lambda, the decreasing-response
probability, rho_for_eta and the jam-response classes.  The colluding
unconditional outage, its upper bound and the prob-zero cubature stay in
[0, 1], each below its bound.  The windowed pairwise kernel gives the bits
of the wedge taken on every draw, in every layout.  The geometry (the sign
of b - rho*a, the regions, the rho disk), gamma, the zero-region predicate,
the worst location and the optimal jamming power keep their node, rho = 0
and boundary limits, with typed errors the only failures: gamma raises on
b = rho*a, where it diverges.  So do the pair positivity forms, which say
exactly where the pair secrecy is positive, and the origin-extremum forms,
whose curvature reaches its limit 0 at P_J = inf.
"""

import decimal
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdjam import montecarlo, pairwise_fading
from fdjam.colluding import (
    _secrecy_array,
    gamma_coeff,
    jam_derivative_coeffs,
    lambda_factor,
    opt_jam,
    p_j_opt_array,
    positivity,
    secrecy_ab,
    snr_ab,
    worst_location,
    zero_region_predicate,
)
from fdjam.colluding_fading import (
    JamResponseKind,
    _cond_prob_zero_array,
    _prob_zero_cubature,
    _v_arrays,
    cdf_lower_bound,
    classify_jam_response,
    cond_prob_zero,
    decreasing_prob_complement,
    decreasing_prob_lower_bound,
    rho_for_eta,
    secrecy_sample,
    uncond_prob_zero,
    uncond_upper_bound,
)
from fdjam.errors import InvalidParameterError, RegimeWarning, UnboundedOptimumError, UnsupportedRegimeError
from fdjam.fields import GridSpec, build_field
from fdjam.geometry import (
    DiskSide,
    LinkGains,
    Region,
    SystemParams,
    gain_fields,
    gains,
    region4_containment_threshold,
    region_classify,
    rho_disk,
    sign_b_minus_rho_a,
)
from fdjam.montecarlo import MCConfig
from fdjam.oracles import deriv_x_axis_even_alpha
from fdjam.pairwise import (
    ExtremumClass,
    deriv_x_axis,
    lr_asymmetry,
    lr_asymmetry_asymptotic,
    near_far_field,
    node_peaks,
    origin_curvature,
    origin_extremum,
    origin_extremum_approx,
    origin_extremum_threshold,
    pair_hypotheses_hold,
    positivity_exists_pj,
    positivity_nojam,
    positivity_pair,
    positivity_universal,
    secrecy_from_t,
    secrecy_pair,
    singularity_asymptote,
    t_factor,
)
from fdjam.pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    _cond_prob_zero_pair_kernel,
    _policy_integrand,
    _wedge,
    _wedge_coeffs,
    _wedge_window,
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
    secrecy_sample_pair,
)

INF = math.inf
finite_gain = st.floats(1e-3, 1e3)
gain = st.one_of(finite_gain, st.just(INF))
power = st.one_of(
    st.just(0.0), st.floats(1e-3, 1e6), st.floats(1e6, 1e300), st.floats(1e300, sys.float_info.max), st.just(INF)
)
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


D60 = decimal.Context(prec=60)
BIG = D60.create_decimal(1e308)  # the true values compared lie at or below the float 1e308, to 60 digits
log_gain = st.one_of(st.floats(-3.0, 305.0).map(lambda e: 10.0**e), st.just(INF))
log_p_t = st.floats(-2.0, 306.0).map(lambda e: 10.0**e)


def _snr_60(sig: float, jam: float, p_t: float, p_j: float, fade: float = 1.0, jam_fade: float = 1.0) -> Decimal:
    """fade*sig*P_T/(1 + jam_fade*jam*P_J) in 60 digits from the exact floats; no jamming where a factor is 0."""
    if fade == 0:
        return Decimal(0)
    if math.isinf(sig):
        return Decimal("Infinity")
    with decimal.localcontext(D60):
        top = Decimal(fade) * Decimal(sig) * Decimal(p_t)
        if jam_fade == 0 or jam == 0 or p_j == 0:
            return top
        if math.isinf(jam) or math.isinf(p_j):
            return Decimal(0)
        return top / (1 + Decimal(jam_fade) * Decimal(jam) * Decimal(p_j))


def _bits_60(snr_link: Decimal, snr_eve: Decimal) -> float | None:
    """[log2(1 + SNR_AB) - log2(1 + SNR_AE)]^+ in 60 digits; None where an SNR is past 1e308 (Eve's may be inf)."""
    if snr_link > BIG or (BIG < snr_eve < Decimal("Infinity")):
        return None
    if snr_eve.is_infinite():
        return 0.0
    with decimal.localcontext(D60):
        return float(max(Decimal(0), ((1 + snr_link).ln() - (1 + snr_eve).ln()) / Decimal(2).ln()))


@SETTINGS
@given(log_gain, log_gain, log_p_t, power, rho_s, fading, fading, fading, fading, fading)
@example(1e303, 1.0, 1e6, 1e305, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)  # a*P_T overflowed before b*P_J divided it: 0 bits
@example(1e200, 1e-10, 1e200, 1e250, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0)  # T = 1e160 read inf
@example(gains(-0.49999999, 0.0, 2.0).a, gains(-0.49999999, 0.0, 2.0).b, 1e300, 1e300, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
@example(100.0, 1.0, 1e307, INF, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)  # inf/inf: nan
@example(100.0, 1.0, 1e307, INF, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0)
@example(100.0, 1.0, 1e307, 1e300, 0.01, 1.0, 1.0, 1.0, 1.0, 1.0)
@example(1e300, 1e300, 1e300, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 10.0)  # P_J <= 1: fade*sig*P_T overflows, the SNR does not
def test_snr_forms_match_a_60_digit_evaluation(a, b, p_t, p_j, rho, a_t, b_t, b2_t, c, d) -> None:
    """secrecy_sample(_pair), secrecy_ab, snr_ab and t_factor against the raw SNR formulas in 60 digits.

    Compared where the true SNRs and T lie at or below 1e308, to 1e-12*max(1, value).
    """
    assume(not (math.isinf(a) and math.isinf(b)))
    g, p = LinkGains(a, b), SystemParams(p_t=p_t, p_j=p_j, rho=rho)

    def check(got: float, want: float | None) -> None:
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    link = _snr_60(1.0, rho, p_t, p_j)
    link_t, link_t2 = (_snr_60(1.0, rho, p_t, p_j, a_t, bt) for bt in (b_t, b2_t))
    if link <= BIG:
        check(snr_ab(p), float(link))
    check(secrecy_ab(g, p), _bits_60(link, _snr_60(a, b, p_t, p_j)))
    s_ab = _bits_60(link_t, _snr_60(a, b, p_t, p_j, c, d))
    check(secrecy_sample(g, p, c, d, a_t, b_t), s_ab)
    s_ba = _bits_60(link_t2, _snr_60(b, a, p_t, p_j, d, c))
    if s_ab is not None and s_ba is not None:
        check(secrecy_sample_pair(g, p, c, d, a_t, b_t, b2_t), 0.5 * (s_ab + s_ba))
    if not (math.isinf(a) or math.isinf(b)):
        x, y = _snr_60(a, b, p_t, p_j), _snr_60(b, a, p_t, p_j)
        with decimal.localcontext(D60):
            t = (1 + x) * (1 + y)
        if t <= BIG:
            check(t_factor(g, p), float(t))


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
@pytest.mark.parametrize("p_j, rho", [(1e300, 0.0), (1e300, 0.01), (INF, 0.0), (INF, 0.01)])
def test_secrecy_field_at_the_float_limit_matches_a_60_digit_evaluation(mode: str, p_j: float, rho: float) -> None:
    # at P_T = 1e308 a*P_T overflowed: at P_J = inf the colluding field had 176 nan cells at rho = 0
    # (the pairwise one 313 at rho = 0.01), and at 1e300 the same cells read 0 for up to 999 bits
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.1)
    fg = build_field(mode, SystemParams(p_t=1e308, p_j=p_j, rho=rho), grid)
    a_f, b_f = gain_fields(*np.meshgrid(grid.xs(), grid.ys()), 2.0)
    link = _snr_60(1.0, rho, 1e308, p_j)
    for got, a, b in zip(fg.values.flat, a_f.flat, b_f.flat):
        if math.isinf(a) or math.isinf(b):
            continue
        s_ab = _bits_60(link, _snr_60(a, b, 1e308, p_j))
        want = s_ab if mode == "colluding" else 0.5 * (s_ab + _bits_60(link, _snr_60(b, a, 1e308, p_j)))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@SETTINGS
@given(gain_pairs(), rho_s, p_t_s)
@example(gains(0.5, 0.0, 2.0), 0.1, 100.0)  # Bob's node at a = 1: c1 meets inf*0
@example(LinkGains(INF, 0.05), 0.1, 100.0)  # Alice's node with b < rho: c0 meets inf - inf
@example(LinkGains(2.0, INF), 0.0, 100.0)  # rho = 0 against an infinite gain
@example(LinkGains(194.0, 0.5), 0.5, 9.266459458053175e305)  # b = rho with a*P_T overflowing: c0 met inf*0
def test_jam_derivative_coeffs_limits(g, rho, p_t) -> None:
    c2, c1, c0 = jam_derivative_coeffs(g, rho, p_t)
    assert not any(math.isnan(c) for c in (c2, c1, c0))
    a, b = g.a, g.b
    if math.isinf(a):
        k = b + p_t * (b - rho)
        assert c0 == (-rho if k == 0 else math.copysign(INF, k))
    elif not math.isinf(b):  # off the nodes the polynomial is the plain formula, a zero factor zeroing its term
        c0_want = a * b - rho + (0.0 if b == rho else a * p_t * (b - rho))
        assert (c2, c1, c0) == (rho * b * (b - rho * a), 2.0 * rho * b * (a - 1.0), c0_want)
    if rho == 0:
        assert c2 == 0.0 and c1 == 0.0


@SETTINGS
@given(gain_pairs(), rho_s, power, fading, fading)
@example(LinkGains(1.0, INF), 0.1, 0.0, 2.0, 7.0)
@example(LinkGains(2.0, 1.0), 0.0, INF, 1.5, 0.5)
@example(LinkGains(1.0, INF), 0.1, 10.0, 0.0, 1.0)
@example(LinkGains(4.0, 0.4), 0.1, INF, 1.0, 1.0)  # b = rho*a
def test_colluding_outage_limits(g, rho, p_j, a_t, b_t) -> None:
    p = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    prob = cond_prob_zero(g, p, a_t, b_t)
    v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, rho, p_j, a_t, b_t))
    assert not math.isnan(prob) and 0.0 <= prob <= 1.0
    assert not math.isnan(v1) and not math.isnan(v2) and v1 >= 0.0 and v2 >= 0.0
    if math.isinf(g.a) or a_t == 0.0:  # Eve on the transmitter, or no signal to protect
        assert prob == 1.0
    elif p_j == 0:  # v1 vanishes, even at b = inf
        assert v1 == 0.0
        assert prob == pytest.approx(math.exp(-a_t / g.a), rel=1e-15)
    elif math.isinf(g.b):  # Eve on the jammer
        assert prob == 0.0
    elif math.isinf(p_j) and rho * b_t == 0:  # free jamming
        assert prob == 0.0 and v2 == pytest.approx(a_t / g.a, rel=1e-15)
    elif math.isinf(p_j):
        assert v2 == 0.0
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
@example(LinkGains(0.5, 2.0), 0.0, INF, 0.7, 1.3, 0.4)  # no self-interference at P_J = inf
@example(LinkGains(0.5, 2.0), 0.1, INF, 0.7, 0.0, 0.4)  # none in the A->B phase only
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
        v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, rho, p_j, a_t, b1_t))
        u1, u2 = (float(u) for u in _v_arrays(g.b, g.a, rho, p_j, a_t, b2_t))
        assert not any(math.isnan(v) for v in (t.k, t.e_exp, v1, u1))
        for thr, gain, b_t in ((v2, g.a, b1_t), (u2, g.b, b2_t)):
            if rho * b_t == 0:  # a phase the jamming cannot reach keeps A~/gain at every P_J, inf included
                assert thr == a_t / gain
            elif math.isinf(p_j):
                assert thr == 0.0
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
    # must go to 0 without NaN, and is exactly 0 wherever w1 <= 0
    star = pj_star(a_t, b1_t, b2_t, rho)
    assume(star is not None)
    g = LinkGains(a, b)
    p = SystemParams(p_t=1.0, p_j=star * (1.0 + eps), rho=rho)
    prob = cond_prob_zero_pair(g, p, a_t, b1_t, b2_t)
    t = pair_terms(g, p, a_t, b1_t, b2_t)
    w1 = float(_wedge(_wedge_coeffs(a, b, rho, p.p_j, b1_t, b2_t), a_t)[0])
    assert not math.isnan(prob) and 0.0 <= prob <= 1e-10
    if not w1 > 0.0:
        assert prob == 0.0 and t.k == 0.0 and t.e_exp == INF
    assert cond_prob_zero_pair(g, SystemParams(p_t=1.0, p_j=star * 1.001, rho=rho), a_t, b1_t, b2_t) == 0.0


def _w_form(a: float, b: float, rho: float, p_j: float, a_t: float, b1_t: float, b2_t: float) -> float:
    """cond_prob_zero_pair as K*exp(-E), K = w1/w2 and E = w3/w1, with the w's written out in exact
    rational arithmetic, where no power of P_J overflows (divided by P_J^2 at P_J = inf, where E = 0)."""
    if math.isinf(a) or math.isinf(b):
        return math.exp(-a_t * (1.0 / a + 1.0 / b)) if p_j == 0 else 0.0
    a, b, rho, a_t, b1_t, b2_t = map(Fraction, (a, b, rho, a_t, b1_t, b2_t))
    if math.isinf(p_j):
        w1 = a * b * (rho**2 * b1_t * b2_t - a_t**2)
        w2 = (a * a_t + rho * b * b2_t) * (b * a_t + rho * a * b1_t)
        w3 = Fraction(0)
    else:
        p_j = Fraction(p_j)
        q1, q2 = 1 + rho * b1_t * p_j, 1 + rho * b2_t * p_j
        w1 = a * b * (q1 * q2 - a_t**2 * p_j**2)
        w2 = (a * a_t * p_j + b * q2) * (b * a_t * p_j + a * q1)
        w3 = a_t * (a * q1 + b * q2 + (a + b) * a_t * p_j)
    if not w1 > 0:
        return 0.0
    return float(w1 / w2) * math.exp(-float(min(w3 / w1, 800)))  # e^-800 is 0; a larger E overflows float()


def _assert_matches_w_form(a, b, rho, p_j, a_t, b1_t, b2_t) -> None:
    want = _w_form(a, b, rho, p_j, a_t, b1_t, b2_t)
    got = _cond_prob_zero_pair_kernel(np.array([a]), np.array([b]), rho, p_j, np.array([a_t]), b1_t, b2_t)[0]
    assert abs(got - want) <= max(1e-12 * want, 1e-15)


@SETTINGS
@given(gain_pairs(), rho_s, power, fading, fading, fading)
@example(LinkGains(4.0, 0.4), 0.1, 50.0, 1.0, 1.0, 1.0)  # b = rho*a
@example(LinkGains(1.0, 1.0), 0.0, INF, 0.0, 0.0, 0.0)  # rho = 0 and B~ = 0: empty window
@example(LinkGains(2.0, 1.0), 0.1, INF, 0.5, 0.0, 3.0)  # B1~ = 0 at P_J = inf
@example(LinkGains(2.0, 1.0), 0.1, 0.0, 0.5, 1.0, 3.0)  # no jamming
@example(LinkGains(1e-3, 1e-3), 0.1, INF, 1e-300, 0.5, 0.5)  # the w-form's K rounds above 1
@example(LinkGains(1.0, 2.0), 0.5, 1.0, 0.3, 0.2, 3.0)  # a != b and B1~ != B2~: every coefficient counts
def test_wedge_coefficients_match_the_w_form(g, rho, p_j, a_t, b1_t, b2_t) -> None:
    _assert_matches_w_form(g.a, g.b, rho, p_j, a_t, b1_t, b2_t)


@SETTINGS
@given(finite_gain, finite_gain, st.floats(1e-3, 0.9), st.floats(0.1, 5.0), fading, fading, st.floats(-1e-13, 1e-13))
def test_wedge_coefficients_match_the_w_form_at_the_w1_cutoff(a, b, rho, a_t, b1_t, b2_t, eps) -> None:
    star = pj_star(a_t, b1_t, b2_t, rho)
    assume(star is not None)
    _assert_matches_w_form(a, b, rho, star * (1.0 + eps), a_t, b1_t, b2_t)


@SETTINGS
@given(finite_gain, finite_gain, rho_s, st.one_of(st.floats(1e-3, 1e6), st.just(INF)), fading, fading)
@example(1.0, 1.0, 0.0, INF, 1.0, 1.0)  # rho = 0: empty window
@example(4.0, 4.0, 0.1, INF, 0.0, 2.0)  # B1~ = 0: empty window
def test_window_and_layer_rate_from_the_coefficients(a, b, rho, p_j, u, v) -> None:
    # w0 = sqrt(C0/C2) and c = D1/C0 against the closed forms of the window
    # and of the boundary-layer rate at A~ = 0
    c0, c2, d1, _, _ = (float(x) for x in _wedge_coeffs(a, b, rho, p_j, np.array(u), np.array(v)))
    w0 = math.sqrt(c0 / c2)
    if math.isinf(p_j):
        assert w0 == pytest.approx(rho * math.sqrt(u * v), rel=1e-14)
        if c0 > 0:
            assert d1 / c0 == pytest.approx(a / (rho * b * v) + b / (rho * a * u), rel=1e-13)
    else:
        q1, q2 = 1.0 + rho * u * p_j, 1.0 + rho * v * p_j
        assert w0 == pytest.approx(math.sqrt(rho**2 * u * v + (1.0 + rho * (u + v) * p_j) / p_j**2), rel=1e-14)
        assert d1 / c0 == pytest.approx(p_j * (a / (b * q2) + b / (a * q1)), rel=1e-13)


def _wedge_on_every_draw(a, b, rho: float, p_j: float, a_t, b1_t, b2_t) -> tuple:
    """(K*exp(-E) or 0, live, E) with the wedge terms taken on every draw, no window test first."""
    w1, w2, w3 = _wedge(_wedge_coeffs(a, b, rho, p_j, b1_t, b2_t), a_t)
    live = w1 > 0.0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        e_exp = w3 / np.where(live, w1, np.inf)
        return np.where(live, w1 / w2 * np.exp(-e_exp), 0.0), live, e_exp


def _draws_on_the_window_edge(rho: float, p_j: float, seed: int) -> tuple:
    """(A~, B1~, B2~) with A~ on w0 = sqrt(C0/C2), up to 4 ulps either side of it and at 0, w0/2
    and 0.99*w0, for B~ in random draws, zero and one; A~ is clipped at 0 and stays finite where
    the window is unbounded."""
    rng = np.random.default_rng(seed)
    u = np.concatenate((rng.exponential(size=40), [0.0, 0.0, 1.0]))
    v = np.concatenate((rng.exponential(size=40), [0.0, 1.0, 1.0]))
    c0, c2, _, _ = _wedge_window(rho, p_j, u, v)
    with np.errstate(divide="ignore"):
        w0 = np.sqrt(c0 / c2)
    w0 = np.where(np.isfinite(w0), w0, rng.exponential(size=w0.size))  # P_J = 0: every A~ is inside
    edge = [w0]
    for _ in range(4):
        edge = [np.nextafter(edge[0], -INF)] + edge + [np.nextafter(edge[-1], INF)]
    edge += [0.0 * w0, 0.5 * w0, 0.99 * w0]
    a_t = np.maximum(np.concatenate(edge), 0.0)
    return a_t, np.tile(u, len(edge)), np.tile(v, len(edge))


def _record_wedge_sizes(monkeypatch) -> list:
    """The number of draws of every later call to pairwise_fading._wedge, in call order."""
    sizes = []

    def recording(coeffs, a_t, *rest):
        sizes.append(np.size(a_t))
        return _wedge(coeffs, a_t, *rest)

    monkeypatch.setattr(pairwise_fading, "_wedge", recording)
    return sizes


_NODE_MIX = [(0.7, 1.3), (4.0, 0.4), (INF, 0.3), (0.3, INF), (1e-3, 1e3), (2.0, 2.0)]


@pytest.mark.parametrize("rho", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("p_j", [0.0, 1e-3, 1.0, 1e4, INF])
def test_windowed_kernel_on_the_window_edge(monkeypatch, rho: float, p_j: float) -> None:
    # A~ on w0 and a few ulps off it, with node gains mixed in: every element is the scalar
    # form and the wedge taken on every draw, bit for bit, and off the nodes it is 0 exactly
    # where w1 <= 0 or where exp(-E) underflows.  Padded with draws far outside
    # the window, the kernel gathers (the wedge sees fewer draws than the batch) and must
    # give the same bits; at P_J = 0 the window is the whole half-line and nothing is outside.
    a_t, u, v = _draws_on_the_window_edge(rho, p_j, seed=int(1e3 * rho) + 7)
    mix = np.array(_NODE_MIX)[np.arange(a_t.size) % len(_NODE_MIX)]
    a, b = mix[:, 0], mix[:, 1]
    sizes = _record_wedge_sizes(monkeypatch)
    got = _cond_prob_zero_pair_kernel(a, b, rho, p_j, a_t, u, v)
    n, pad = a_t.size, 20 * a_t.size
    far = np.full(pad, 1e4)  # with B~ = 0 the window is A~ < 1/P_J, at most 1e3 here
    padded = _cond_prob_zero_pair_kernel(
        np.concatenate((a, np.full(pad, 0.7))), np.concatenate((b, np.full(pad, 1.3))), rho, p_j,
        np.concatenate((a_t, far)), np.concatenate((u, np.zeros(pad))), np.concatenate((v, np.zeros(pad))),
    )
    node = np.isinf(a) | np.isinf(b)
    want, live, e_exp = _wedge_on_every_draw(np.where(node, 1.0, a), np.where(node, 1.0, b), rho, p_j, a_t, u, v)
    want = np.where(node, np.exp(-a_t * (1.0 / a + 1.0 / b)) if p_j == 0 else 0.0, want)
    assert got.tobytes() == want.tobytes()
    assert padded[:n].tobytes() == want.tobytes() and np.all(padded[n:] == 0.0)
    assert sizes[1] < n + pad or p_j == 0  # the padded batch was gathered, unless the window is unbounded
    assert np.array_equal((got == 0.0)[~node], (~live | (e_exp > 745.0))[~node])
    p = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    for i in range(n):
        assert cond_prob_zero_pair(LinkGains(a[i], b[i]), p, a_t[i], u[i], v[i]) == got[i]
        if not node[i]:
            _assert_matches_w_form(a[i], b[i], rho, p_j, a_t[i], u[i], v[i])


@pytest.mark.parametrize("p_j", [0.0, 1.0, 1e4, INF])
def test_windowed_kernel_is_the_same_in_every_layout(p_j: float) -> None:
    # contiguous columns, strided (m, 3) column views and (cells, n) draws against
    # (cells, 1) gains give the same bits for the same draws
    cells, n = 6, 500
    e = montecarlo._exp_draws(montecarlo._stream(11), (cells * n, 3))
    a = np.repeat(np.array([0.7, 4.0, INF, 0.3, 1e-3, 2.0]), n)
    b = np.repeat(np.array([1.3, 0.4, 0.3, INF, 1e3, 2.0]), n)
    strided = _cond_prob_zero_pair_kernel(a, b, 0.01, p_j, e[:, 0], e[:, 1], e[:, 2])
    contiguous = _cond_prob_zero_pair_kernel(a, b, 0.01, p_j, *np.ascontiguousarray(e.T))
    blocks = _cond_prob_zero_pair_kernel(
        a[::n, None], b[::n, None], 0.01, p_j, *np.moveaxis(e.reshape(cells, n, 3), -1, 0)
    )
    assert not e[:, 0].flags.c_contiguous
    assert strided.tobytes() == contiguous.tobytes() == blocks.reshape(-1).tobytes()


def test_the_wedge_runs_only_on_the_window_at_paper_settings(monkeypatch) -> None:
    # At rho = 0.01, P_J = 1e4 the window holds about pi*rho/4 ~ 0.8% of the draws; the
    # kernel must not take the wedge terms on the rest, in the array form or in a field
    sizes = _record_wedge_sizes(monkeypatch)
    params = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    e = montecarlo._exp_draws(montecarlo._stream(3), (100_000, 3))
    cond_prob_zero_pair_array(gains(0.0, 0.0, 2.0), params, e[:, 0], e[:, 1], e[:, 2])
    assert 0 < sum(sizes) < 0.05 * 100_000
    sizes.clear()
    grid = GridSpec(-1.0, 1.0, -0.95, 1.05, 0.5)
    build_field("pairwise", params, grid, quantity="prob-zero", mc=MCConfig(seed=3, n_samples=4000))
    assert 0 < sum(sizes) < 0.05 * grid.nx * grid.ny * 4000


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
def test_policy_prob_zero_at_rho_zero(monkeypatch, p_j: float) -> None:
    # no self-interference: the semi-dynamic window rho*sqrt(B1~*B2~) is empty, so its
    # estimate and P1 are exactly 0; the constant policy keeps the window 1/P_J
    monkeypatch.setattr(montecarlo, "_BLOCK", 1000)
    mc = MCConfig(seed=4, n_samples=3000)
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


@SETTINGS
@given(gain_pairs(), rho_s, power, st.one_of(st.floats(1e-6, 1.0), st.just(1.0)))
@example(gains(0.5, 0.0, 2.0), 0.01, 1000.0, 0.5)  # Bob's node: b = inf
@example(gains(-0.5, 0.0, 2.0), 0.01, 1000.0, 0.5)  # Alice's node: a = inf
@example(LinkGains(INF, 1.0), 0.0, INF, 0.5)  # a = inf against rho = 0
@example(LinkGains(1.0, INF), 0.0, 10.0, 0.5)  # b = inf against rho = 0
@example(LinkGains(2.0, 0.5), 0.0, 10.0, 0.3)  # rho = 0
def test_cdf_lower_bound_limits(g, rho, p_j, p) -> None:
    if not p_j > 0:
        with pytest.raises(InvalidParameterError):
            cdf_lower_bound(p, g.a, g.b, rho, p_j)
        return
    bound = cdf_lower_bound(p, g.a, g.b, rho, p_j)
    assert not math.isnan(bound) and 0.0 <= bound <= 1.0
    if p == 1.0 or math.isinf(g.b):  # Eve on the jammer: the conditional probability is 0
        assert bound == 1.0
    elif math.isinf(g.a):  # Eve on the transmitter: it is 1
        assert bound == 0.0
    else:
        exact = g.b * p / (g.b * p + g.a * rho * (1.0 - p))  # the CDF at P_J = inf
        assert bound <= exact
        if math.isinf(p_j):
            assert bound == exact


@SETTINGS
@given(fading, fading, fading, rho_s)
@example(0.0, 0.0, 1.0, 0.1)  # no signal and no self-interference: the second wins
@example(1.0, 1.0, 1.0, 0.0)
def test_homogeneous_secrecy_limits(a_t, b1_t, b2_t, rho) -> None:
    if rho == 0:
        with pytest.raises(InvalidParameterError):
            homogeneous_secrecy(a_t, b1_t, b2_t, rho)
        return
    s = homogeneous_secrecy(a_t, b1_t, b2_t, rho)
    assert not math.isnan(s)
    if b1_t * b2_t == 0.0:
        assert s == INF
    elif a_t == 0.0:
        assert s == -INF
    else:
        assert s == pytest.approx(math.log2(a_t / (rho * math.sqrt(b1_t * b2_t))), rel=1e-12, abs=1e-12)


@SETTINGS
@given(st.floats(allow_nan=False), rho_s)
@example(INF, 0.0)  # the level every secrecy lies below
@example(5.0, 0.0)  # no self-interference: the near-field secrecy is infinite
@example(2000.0, 0.1)  # 2^s overflows
@example(1020.0, 1e-300)  # 2^s overflows and the product does not
@example(-INF, 0.1)
def test_homogeneous_tail_bound_limits(s, rho) -> None:
    bound = homogeneous_tail_bound(s, rho)
    assert not math.isnan(bound) and 0.0 <= bound <= 1.0
    if s == INF:
        assert bound == 1.0
    elif rho == 0:
        assert bound == 0.0
    elif s <= 1000.0:
        assert bound == min(1.0, 2.0**s * rho * math.pi / 4.0)
    else:  # in log space
        log_bound = s * math.log(2.0) + math.log(rho * math.pi / 4.0)
        if log_bound >= 0:
            assert bound == 1.0
        else:
            assert math.log(bound) == pytest.approx(log_bound, rel=1e-12)
    if s < 1e300:
        assert homogeneous_tail_bound(s + 1.0, rho) >= bound
    with pytest.raises(InvalidParameterError):
        homogeneous_tail_bound(math.nan, rho)


@SETTINGS
@given(gain_pairs(), rho_s, power, p_t_s)
@example(gains(0.0, 0.0, 2.0), 0.01, INF, 100.0)  # P_J = inf: T = 1, secrecy 0
@example(gains(0.0, 0.0, 2.0), 0.01, 1e300, 100.0)  # b*P_J*a*P_J overflows
@example(gains(0.0, 0.0, 2.0), 0.0, INF, 100.0)  # rho = 0: the whole link rate is secret
@example(gains(0.5, 0.0, 2.0), 0.01, 10.0, 100.0)  # Bob's node
@example(LinkGains(INF, 1.0), 0.1, 10.0, 100.0)  # Alice's node
@example(LinkGains(4.0, 0.4), 0.1, 50.0, 100.0)  # b = rho*a
@example(LinkGains(2.0, 0.5), 0.1, 0.0, 100.0)  # no jamming
def test_t_factor_and_secrecy_from_t_limits(g, rho, p_j, p_t) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
    if math.isinf(g.a) or math.isinf(g.b):
        with pytest.raises(InvalidParameterError):
            t_factor(g, p)
        with pytest.raises(UnsupportedRegimeError):
            secrecy_from_t(g, p)
        return
    t = t_factor(g, p)
    assert not math.isnan(t) and t >= 1.0
    assert t == t_factor(g.swapped(), p)
    if math.isinf(p_j):
        assert t == 1.0
    elif p_j == 0:
        assert t == (1.0 + g.a * p_t) * (1.0 + g.b * p_t)
    if not pair_hypotheses_hold(g, p):
        with pytest.raises(UnsupportedRegimeError):
            secrecy_from_t(g, p)
        return
    s = secrecy_from_t(g, p)
    assert not math.isnan(s)
    assert s == pytest.approx(secrecy_pair(g, p), rel=1e-9, abs=1e-9)


@SETTINGS
@given(gain_pairs(), rho_s, power)
@example(LinkGains(INF, 1.0), 0.1, INF)  # Alice's node
@example(LinkGains(1.0, INF), 0.1, 0.0)  # Bob's node without jamming: b*P_J = inf*0
@example(LinkGains(1.0, INF), 0.0, INF)
@example(LinkGains(2.0, 1.0), 0.0, INF)  # rho = 0 at P_J = inf
@example(LinkGains(4.0, 0.4), 0.1, INF)  # b = rho*a: lambda -> 1 at P_J = inf
def test_lambda_factor_limits(g, rho, p_j) -> None:
    p = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    lam = lambda_factor(g, p)
    assert not math.isnan(lam) and lam >= 0.0
    if math.isinf(g.a):
        assert lam == 0.0
    elif p_j == 0:
        assert lam == 1.0 / g.a
    elif math.isinf(p_j):
        assert lam == (INF if rho == 0 or math.isinf(g.b) else g.b / (rho * g.a))
    elif math.isinf(g.b):
        assert lam == INF
    if abs(lam - 1.0) > 1e-9:  # away from the rounding of lambda = 1, lambda > 1 is positive secrecy
        assert (lam > 1.0) == positivity(g, p)


axis_d = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 5.0))


@SETTINGS
@given(axis_d, rho_s, power, p_t_s)
@example(0.3, 0.01, INF, 100.0)  # P_J = inf: the slope's limit 0
@example(0.3, 0.01, 1e300, 100.0)
@example(1.4, 0.0, INF, 100.0)  # rho = 0 beyond Bob
@example(1.0, 0.01, 10.0, 100.0)  # Bob's node
@example(0.0, 0.01, 10.0, 100.0)  # Alice's node
@example(0.7, 1e-4, 1e4, 100.0)
@example(0.984375, 0.0, 3.395413876356915e97, 498.0)  # P_J^3/(1-d)^7 overflows a float
def test_deriv_x_axis_limits(d, rho, p_j, p_t) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
    if d in (0.0, 1.0):
        with pytest.raises(InvalidParameterError):
            deriv_x_axis(d, p)
        return
    if not pair_hypotheses_hold(gains(d - 0.5, 0.0, 2.0), p):
        with pytest.raises(UnsupportedRegimeError):
            deriv_x_axis(d, p)
        return
    slope = deriv_x_axis(d, p)
    assert not math.isnan(slope)
    if math.isinf(p_j):
        assert slope == 0.0
        return
    if p_j > 1e100:  # the slope falls like P_T/P_J
        assert abs(slope) < 1e-90
    # the literal N(d)/D(d) polynomial, in decimal arithmetic at every finite P_J
    assert slope == pytest.approx(deriv_x_axis_even_alpha(d, p), rel=1e-6, abs=1e-12)


@SETTINGS
@given(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(1e-3, 0.499)), rho_s, power, p_t_s)
@example(0.1, 0.01, INF, 100.0)  # both sides at T = 1
@example(0.1, 0.01, 1e300, 100.0)
@example(0.5, 0.01, 10.0, 100.0)  # the right point is on Bob's node
@example(0.05, 1e-4, 1e4, 1e6)
def test_lr_asymmetry_limits(delta, rho, p_j, p_t) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
    if not 0 < delta < 0.5:
        with pytest.raises(InvalidParameterError):
            lr_asymmetry(delta, p)
        return
    left, right, gap = lr_asymmetry(delta, p)
    assert not any(math.isnan(x) for x in (left, right, gap))
    assert left >= 1.0 and right >= 1.0 and gap == right - left
    if math.isinf(p_j):
        assert (left, right, gap) == (1.0, 1.0, 0.0)


@SETTINGS
@given(st.one_of(st.sampled_from([0.5, -0.5]), st.floats(-5.0, 5.0)), st.floats(2.0, 6.0))
@example(0.5, 2.0)  # Bob's node: the slope diverges
@example(0.49999999999999994, 2.0)
def test_singularity_asymptote_limits(x, alpha) -> None:
    if x == 0.5:
        with pytest.raises(InvalidParameterError):
            singularity_asymptote(x, alpha)
        return
    slope = singularity_asymptote(x, alpha)
    assert not math.isnan(slope) and not math.isinf(slope)
    assert (slope < 0.0) == (x < 0.5)


@SETTINGS
@given(
    st.one_of(st.sampled_from([0.0, 0.5, 5e-324]), st.floats(1e-3, 0.499)),
    power,
    p_t_s,
    st.floats(2.0, 6.0),
)
@example(0.0, 10.0, 100.0, 2.0)  # delta = 0: outside (0, 0.5)
@example(0.1, 0.0, 100.0, 2.0)  # P_J = 0: outside the large-P_J regime
@example(5e-324, INF, 100.0, 2.0)  # delta^(1 - alpha) = inf against P_J = inf: the limit 0
@example(0.05, 1e4, 1e6, 2.0)
def test_lr_asymmetry_asymptotic_limits(delta, p_j, p_t, alpha) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=0.01, alpha=alpha)
    if not 0 < delta < 0.5:
        with pytest.raises(InvalidParameterError):
            lr_asymmetry_asymptotic(delta, p)
        return
    if p_j == 0:
        with pytest.raises(UnsupportedRegimeError):
            lr_asymmetry_asymptotic(delta, p)
        return
    gap = lr_asymmetry_asymptotic(delta, p)
    assert not math.isnan(gap) and gap >= 0.0
    if math.isinf(p_j):
        assert gap == 0.0


@SETTINGS
@given(rho_s, p_t_s, st.booleans(), power, st.floats(1e-3, 2.0), st.floats(2.0, 4.0))
@example(0.0, 100.0, True, 10.0, 0.1, 2.0)  # rho = 0: no coupled power
@example(1e-4, 1e6, True, 0.0, 0.5, 2.0)  # inside the regime, margin 50
@example(0.01, 1e6, True, 0.0, 0.1, 2.0)  # rho above the containment threshold
@example(0.01, 1e6, False, INF, 0.1, 2.0)
@example(1e-4, 1.797693134862316e304, True, 0.0, 1.0, 2.0)  # P_T/rho overflows: far read inf, not 512 bits
@example(1e-4, 1.797693134862316e304, False, INF, 1.0, 2.0)  # there P_J = inf is not the coupled power
def test_near_far_field_limits(rho, p_t, coupled, p_j, delta, alpha) -> None:
    # the coupled power sqrt(P_T/rho) as sqrt(P_T)/sqrt(rho): no quotient to overflow
    coupled_pj = math.sqrt(p_t) / math.sqrt(rho) if rho > 0 else math.nan
    if coupled and rho > 0:
        p_j = coupled_pj
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho, alpha=alpha, delta=delta)
    inside = (
        rho > 0
        and math.isclose(p_j, coupled_pj, rel_tol=1e-9)
        and (delta > 1 or rho < region4_containment_threshold(delta, alpha))
    )
    if not inside:
        with pytest.raises(UnsupportedRegimeError):
            near_far_field(p)
        return
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        field = near_far_field(p)
    assert not any(math.isnan(v) or math.isinf(v) for v in (field.near, field.far, field.margin))
    assert field.near == math.log2(1.0 / rho) and field.margin > 0.0
    assert field.far == pytest.approx(0.5 * (math.log2(p_t) - math.log2(rho)), rel=1e-12)
    assert any(issubclass(w.category, RegimeWarning) for w in seen) == (field.margin < 10.0)


@SETTINGS
@given(rho_s, power, p_t_s, st.floats(2.0, 4.0))
@example(0.01, 0.0, 100.0, 2.0)  # P_J = 0: no peak
@example(0.3, 10.0, 100.0, 2.0)  # rho above 2^-alpha
@example(0.01, INF, 100.0, 2.0)  # the link is jammed out: the peak is 0
@example(0.0, INF, 100.0, 2.0)  # rho = 0: P_J does not reach the link
def test_node_peaks_limits(rho, p_j, p_t, alpha) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho, alpha=alpha)
    if not (p_j > 0 and rho < 2.0**-alpha):
        with pytest.raises(UnsupportedRegimeError):
            node_peaks(p)
        return
    peak = node_peaks(p)
    assert not math.isnan(peak) and 0.0 <= peak <= 0.5 * math.log2(1.0 + p_t)
    if rho == 0:
        assert peak == 0.5 * math.log2(1.0 + p_t)
    elif math.isinf(p_j):
        assert peak == 0.0


@SETTINGS
@given(gain_pairs(), rho_s)
@example(LinkGains(INF, 1.0), 0.1)  # a = inf: the event is sure
@example(LinkGains(1.0, INF), 0.1)  # b = inf: eta = inf
@example(LinkGains(2.0, 0.5), 0.0)  # rho = 0: eta = inf
@example(LinkGains(4.0, 0.4), 0.1)  # b = rho*a: eta = 1
@example(LinkGains(1e3, 1e-3), 0.9)  # eta ~ 1e-6: expm1(-(eta - 1)*a) overflows
@example(LinkGains(800.0, 400.0), 1.0)  # eta = 1/2 past a ~ 709
def test_decreasing_prob_limits(g, rho) -> None:
    comp = decreasing_prob_complement(g.a, g.b, rho)
    low = decreasing_prob_lower_bound(g.a, g.b, rho)
    assert not math.isnan(comp) and 0.0 <= comp <= 1.0
    assert low == 1.0 - comp
    a = g.a
    eta = INF if rho == 0 or math.isinf(g.b) else g.b / (rho * a)
    if math.isinf(a):
        assert comp == 0.0
    elif math.isinf(eta):
        assert comp == pytest.approx(math.exp(-a), rel=1e-12)
    elif eta == 1.0:
        assert comp == pytest.approx((1.0 + a) * math.exp(-a), rel=1e-12)
    elif abs(eta - 1.0) > 0.1 and eta * a < 700:  # the plain closed form keeps its digits there
        want = (eta * math.exp(-a) - math.exp(-eta * a)) / (eta - 1.0)
        assert comp == pytest.approx(want, rel=1e-9, abs=1e-300)


@SETTINGS
@given(gain_pairs(), st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.just(INF)))
@example(LinkGains(1.0, INF), INF)  # inf/inf: no single rho
@example(LinkGains(INF, 1.0), 2.0)  # a = inf: rho = 0
@example(LinkGains(1.0, INF), 2.0)  # b = inf: rho = inf
@example(LinkGains(2.0, 1.0), 0.0)
def test_rho_for_eta_limits(g, eta) -> None:
    if eta == 0 or (math.isinf(g.b) and math.isinf(eta)):
        with pytest.raises(InvalidParameterError):
            rho_for_eta(g.a, g.b, eta)
        return
    rho = rho_for_eta(g.a, g.b, eta)
    assert not math.isnan(rho) and rho >= 0.0
    if math.isinf(g.a) or math.isinf(eta):
        assert rho == 0.0
    elif math.isinf(g.b):
        assert rho == INF
    else:
        assert g.b / (rho * g.a) == pytest.approx(eta, rel=1e-14)


@SETTINGS
@given(gain_pairs(), rho_s, fading, fading)
@example(LinkGains(INF, 1.0), 0.1, 1.0, 0.0)  # a = inf and B~ = 0: a1 = 0*inf
@example(LinkGains(INF, 0.05), 0.1, 1.0, 0.5)  # a = inf with b = rho*B~: a0 = inf*0
@example(LinkGains(1.0, INF), 0.1, 2.0, 1.0)  # b = inf: a1 = inf - inf
@example(LinkGains(1.0, INF), 0.1, 1.0, 1.0)  # b = inf, A~ = a: the minimizer diverges
@example(LinkGains(2.0, 1.0), 0.0, 1.0, 1.0)  # rho = 0
@example(LinkGains(4.0, 0.4), 0.1, 1.0, 4.0)  # b = rho*B~
def test_classify_jam_response_limits(g, rho, a_t, b_t) -> None:
    if rho == 0:
        with pytest.raises(InvalidParameterError):
            classify_jam_response(g, rho, a_t, b_t)
        return
    resp = classify_jam_response(g, rho, a_t, b_t)
    p_opt = resp.p_j_opt
    assert not math.isnan(p_opt)
    if resp.kind is JamResponseKind.OPTIMAL_INFINITE:
        assert p_opt == INF
    elif resp.kind is JamResponseKind.OPTIMAL_FINITE:
        assert 0.0 < p_opt < INF
    else:
        assert p_opt == 0.0

    def prob(p_j: float) -> float:
        return cond_prob_zero(g, SystemParams(p_t=1.0, p_j=p_j, rho=rho), a_t, b_t)

    # the class names the power that minimizes the conditional zero-secrecy probability
    probes = [0.0, 1e-3, 1.0, 1e3, 1e6]
    if resp.kind is JamResponseKind.OPTIMAL_FINITE:
        probes += [p_opt * 0.999, p_opt * 1.001]
    best = prob(1e12 if math.isinf(p_opt) else p_opt)
    assert all(best <= prob(p_j) + 1e-12 for p_j in probes if p_j <= 1e12)
    if math.isinf(g.b):  # Eve on the jammer: any jamming zeroes the probability
        assert resp.kind is not JamResponseKind.OPTIMAL_ZERO


# the colluding outage limits, as _v_arrays takes them: Alice's node, Bob's node with and
# without jamming, rho = 0 at finite and infinite P_J, and b = rho*a (kappa = 1 at P_J = inf)
COLLUDING_LIMITS = [
    (LinkGains(INF, 1.0), 0.1, 10.0),
    (LinkGains(1.0, INF), 0.1, 10.0),
    (LinkGains(1.0, INF), 0.1, 0.0),
    (LinkGains(1.0, INF), 0.1, INF),
    (LinkGains(2.0, 1.0), 0.0, 10.0),
    (LinkGains(2.0, 1.0), 0.0, INF),
    (LinkGains(4.0, 0.4), 0.1, INF),
    (LinkGains(4.0, 0.4), 0.1, 50.0),
]


def _colluding_limit(g: LinkGains, rho: float, p_j: float) -> float | None:
    """The literal zero-secrecy probability where a limit fixes it, else None."""
    if math.isinf(g.a):
        return 1.0  # Eve on the transmitter
    if p_j == 0:
        return g.a / (g.a + 1.0)  # the mean of exp(-A~/a)
    if math.isinf(g.b) or (math.isinf(p_j) and rho == 0):
        return 0.0  # the jamming reaches Eve and spares the link
    return None


def _with_examples(test):
    for args in reversed(COLLUDING_LIMITS):
        test = example(*args)(test)
    return test


@SETTINGS
@given(gain_pairs(), rho_s, power)
@_with_examples
def test_prob_zero_cubature_limits(g, rho, p_j) -> None:
    value, error = (float(v) for v in _prob_zero_cubature(g.a, g.b, rho, p_j))
    bound, _ = (float(v) for v in _prob_zero_cubature(g.a, g.b, rho, p_j, upper=True))
    assert not any(math.isnan(v) for v in (value, error, bound))
    # past P_J ~ 1e13 the outage and its bound meet closer than the 3 ulps (6.7e-16) to
    # which each takes h = x*e^x*E1(x) (test_exp_e1_within_3_ulps_of_a_60_digit_series_on_a_dense_grid),
    # so the bound holds to 2e-15, somewhat more than twice that
    assert 0.0 <= value <= bound * (1.0 + 2e-15) and bound <= 1.0 and error >= 0.0
    limit = _colluding_limit(g, rho, p_j)
    if limit is not None:
        assert (value, error) == (limit, 0.0)
    if math.isinf(p_j) or rho * p_j == 0:
        assert error == 0.0  # closed forms
    # the kernel on arrays is the scalar call element by element
    arr, _ = _prob_zero_cubature(np.array([g.a, 3.0]), np.array([g.b, 0.5]), rho, p_j)
    assert arr[0] == value


@settings(max_examples=100, deadline=None)
@given(gain_pairs(), rho_s, power)
@_with_examples
def test_uncond_prob_zero_limits(g, rho, p_j) -> None:
    p, mc = SystemParams(p_t=1.0, p_j=p_j, rho=rho), MCConfig(seed=3, n_samples=64)
    est, bound = uncond_prob_zero(g, p, mc), uncond_upper_bound(g, p, mc)
    for e in (est, bound):
        assert not math.isnan(e.mean) and not math.isnan(e.stderr)
        assert 0.0 <= e.mean <= 1.0 and e.stderr >= 0.0 and e.n == mc.n_samples
    # exp(-v2)/(1+v1) <= 1/(1+v1) draw by draw on the one stream
    assert est.mean <= bound.mean + 1e-15
    limit = _colluding_limit(g, rho, p_j)
    if limit is not None and (p_j > 0 or math.isinf(g.a)):  # at P_J = 0 a finite a leaves a draw mean
        assert est.mean == limit and est.stderr == 0.0


# gains on the boundary b = rho*a, each with its rho, exact in floating point
ON_BOUNDARY = [(LinkGains(4.0, 0.4), 0.1), (LinkGains(1.0, 1.0), 1.0), (LinkGains(0.5, 0.25), 0.5)]


def _with_boundary_examples(*rest):
    """Add an example per ON_BOUNDARY pair, followed by the arguments rest."""

    def add(test):
        for g, rho in reversed(ON_BOUNDARY):
            test = example(g, rho, *rest)(test)
        return test

    return add


@SETTINGS
@given(gain_pairs(), rho_s)
@_with_boundary_examples()
@example(LinkGains(INF, 1.0), 0.0)  # Alice's node is -1 at rho = 0 too: rho_disk(0) is the point disk there
@example(LinkGains(INF, 1.0), 0.1)
@example(LinkGains(1.0, INF), 0.1)
def test_sign_region_and_gamma_limits(g, rho) -> None:
    s = sign_b_minus_rho_a(g.a, g.b, rho)
    assert s in (-1, 0, 1)
    if math.isinf(g.b):
        assert s == 1
    elif math.isinf(g.a):
        assert s == -1
    elif rho == 0:  # rho*a is identically 0 along rho = 0
        assert s == 1
    else:
        assert s == int(np.sign(g.b - rho * g.a))
    region = region_classify(g, rho)
    assert region is {(True, False): Region.R1, (True, True): Region.R2, (False, False): Region.R3,
                      (False, True): Region.R4}[(s > 0, g.a >= 1.0)]
    if s == 0:
        with pytest.raises(UnsupportedRegimeError):
            gamma_coeff(g, rho)
        return
    gam = gamma_coeff(g, rho)
    assert not math.isnan(gam)
    if math.isinf(g.b):
        assert gam == 0.0
    elif math.isinf(g.a):
        assert gam == (INF if rho == 0 else -1.0 / rho)
    else:
        assert gam == (g.a - 1.0) / (g.b - rho * g.a)


@pytest.mark.parametrize("g, rho", ON_BOUNDARY)
def test_gamma_raises_on_the_boundary(g, rho) -> None:
    assert g.b == rho * g.a and sign_b_minus_rho_a(g.a, g.b, rho) == 0
    with pytest.raises(UnsupportedRegimeError):
        gamma_coeff(g, rho)
    res = opt_jam(g, rho, 100.0)  # the result type still reports them as NaN, with p_j_opt = 0
    assert math.isnan(res.gamma) and math.isnan(res.beta) and res.p_j_opt == 0.0


@SETTINGS
@given(st.one_of(st.just(0.0), st.floats(1e-4, 0.99), st.just(1.0), st.floats(1.01, 100.0)), st.floats(2.0, 6.0),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@example(0.0, 2.0, 1.0, 0.5)
@example(1.0, 2.0, 0.3, -1.0)
@example(0.1, 2.0, -0.5, 0.0)  # the transmitter, inside every rho < 1 disk
@example(0.0, 2.0, -0.5, 0.0)  # Alice's node: the point disk of rho = 0
@example(0.0, 2.0, 0.5, 0.0)
def test_rho_disk_limits(rho, alpha, x, y) -> None:
    # the disk is the sign of b - rho*a at every location off its circle, the endpoints included
    disk = rho_disk(rho, alpha)
    assert not (math.isnan(disk.x0) or math.isnan(disk.r))
    if rho == 1:
        assert disk.side is DiskSide.HALF_PLANE
    else:
        assert disk.r >= 0.0
        assert disk.side is (DiskSide.LEFT_EXCLUSION if rho < 1 else DiskSide.RIGHT_INCLUSION)
        assert (disk.x0 >= 0.5) if rho < 1 else (disk.x0 < 0.0)
    g = gains(x, y, alpha)
    if (abs(x), y) != (0.5, 0.0):  # off the nodes; a gain that overflows next to one is skipped too
        assume(abs(g.b - rho * g.a) > 1e-9 * (g.b + rho * g.a))
    assert bool(disk.secrecy_side(x, y)) == (sign_b_minus_rho_a(g.a, g.b, rho) > 0)
    assert np.array_equal(disk.secrecy_side(np.array([x, x]), np.array([y, y])), [disk.secrecy_side(x, y)] * 2)


@SETTINGS
@given(gain_pairs(), st.one_of(st.just(0.0), st.floats(1e-4, 0.3)), st.floats(2.0, 4.0), power)
@example(LinkGains(4.0, 0.4), 0.1, 2.0, 10.0)  # b = rho*a, folded into R4
@example(LinkGains(INF, 1.0), 0.1, 2.0, 10.0)
@example(LinkGains(1.0, INF), 0.1, 2.0, INF)
@example(LinkGains(4.0, 1.0), 0.0, 2.0, 0.0)
def test_zero_region_predicate_limits(g, rho, alpha, p_j) -> None:
    # in its regime the predicate is "secrecy is zero": it never disagrees with positivity
    p = SystemParams(p_t=100.0, p_j=p_j, rho=rho, alpha=alpha)
    try:
        zero = zero_region_predicate(g, p)
    except UnsupportedRegimeError:
        assert not rho < 2.0**-alpha or not p_j > 0 or region_classify(g, rho) is Region.R3
        return
    assert zero == (not positivity(g, p))


@SETTINGS
@given(st.floats(1e-3, 1.5), st.floats(0.0, 1.0), st.floats(2.0, 4.0), power, st.floats(0.0, 2.0 * math.pi))
@example(0.1, 0.0, 2.0, 1e4, 0.0)
@example(1.0, 0.5, 2.0, INF, 1.0)
@example(0.05, 0.0, 2.0, 0.0, 0.0)
def test_worst_location_limits(delta, rho_frac, alpha, p_j, theta) -> None:
    # within its conditions the candidate (-delta - 0.5, 0) has no more secrecy than another point
    # on the exclusion circle d_A = delta; outside them it raises UnsupportedRegimeError
    rho = rho_frac * region4_containment_threshold(delta, alpha)
    p = SystemParams(p_t=100.0, p_j=p_j, rho=rho, alpha=alpha, delta=delta)
    try:
        loc = worst_location(p)
    except UnsupportedRegimeError:
        return
    assert (loc.x, loc.y) == (-delta - 0.5, 0.0)
    at_loc = secrecy_ab(gains(loc.x, loc.y, alpha), p)
    other = secrecy_ab(gains(-0.5 + delta * math.cos(theta), delta * math.sin(theta), alpha), p)
    assert not math.isnan(at_loc) and at_loc <= other + 1e-12


@SETTINGS
@given(gain_pairs(), rho_s, st.floats(1e-2, 1e6))
@_with_boundary_examples(100.0)
@example(LinkGains(INF, 0.05), 0.1, 100.0)
@example(LinkGains(0.5, INF), 0.1, 100.0)
@example(LinkGains(4.0, 1.0), 0.0, 100.0)
def test_opt_jam_limits(g, rho, p_t) -> None:
    if rho == 0:
        with pytest.raises(UnboundedOptimumError):
            opt_jam(g, rho, p_t)
        with pytest.raises(UnboundedOptimumError):
            p_j_opt_array(np.array([g.a]), np.array([g.b]), rho, p_t)
        return
    res = opt_jam(g, rho, p_t)
    assert not math.isnan(res.p_j_opt) and res.p_j_opt >= 0.0
    assert p_j_opt_array(np.array([g.a, g.a]), np.array([g.b, g.b]), rho, p_t).tolist() == [res.p_j_opt] * 2
    s = sign_b_minus_rho_a(g.a, g.b, rho)
    assert math.isnan(res.gamma) == math.isnan(res.beta) == (s == 0)
    if math.isinf(g.a) or math.isinf(g.b) or s <= 0:
        assert res.p_j_opt == 0.0
        return
    assert res.gamma == gamma_coeff(g, rho)
    # no nearby power and no jamming at all does better, up to the flatness of the optimum
    best = secrecy_ab(g, SystemParams(p_t=p_t, p_j=res.p_j_opt, rho=rho))
    for p_j in (0.0, 0.5 * res.p_j_opt, 2.0 * res.p_j_opt, res.p_j_opt + 1.0):
        assert secrecy_ab(g, SystemParams(p_t=p_t, p_j=p_j, rho=rho)) <= best + 1e-9 * max(best, 1.0)


@SETTINGS
@given(gain_pairs(), rho_s, power, p_t_s)
@_with_boundary_examples(10.0, 100.0)
@example(LinkGains(INF, 1.0), 0.0, 0.0, 100.0)  # Alice's node, rho = 0, no jamming
@example(LinkGains(INF, 1.0), 0.0, INF, 100.0)
@example(LinkGains(INF, 1.0), 0.1, 10.0, 100.0)
@example(LinkGains(1.0, INF), 0.0, 0.0, 100.0)  # Bob's node
@example(LinkGains(1.0, INF), 0.1, INF, 100.0)
@example(LinkGains(4.0, 0.4), 0.1, 0.0, 100.0)  # b = rho*a
@example(LinkGains(4.0, 0.4), 0.1, INF, 100.0)
def test_pair_positivity_limits(g, rho, p_j, p_t) -> None:
    # each form is a plain bool; positivity_pair is the sign of the pair secrecy, at
    # P_J = inf in the limit of large powers (both rates vanish there, lambda does not)
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
    pos = positivity_pair(g, p)
    assert isinstance(pos, bool)
    lams = [lambda_factor(h, p) for h in (g, g.swapped())]
    if all(abs(lam - 1.0) > 1e-9 for lam in lams):  # away from the rounding of lambda = 1
        assert pos == any(lam > 1.0 for lam in lams)
        if not math.isinf(p_j):
            assert pos == (secrecy_pair(g, p) > 0.0)
    nojam = positivity_nojam(g)
    assert isinstance(nojam, bool)
    assert nojam == positivity_pair(g, SystemParams(p_t=p_t, p_j=0.0, rho=rho))
    if min(abs(g.a - 1.0), abs(g.b - 1.0)) > 1e-9:  # away from the rounding of a = 1 or b = 1
        assert nojam == (secrecy_pair(g, SystemParams(p_t=p_t, p_j=0.0, rho=rho)) > 0.0)
    exists = positivity_exists_pj(g, rho)
    assert isinstance(exists, bool)
    if pos:  # a power that works is one that exists
        assert exists
    assert positivity_universal(rho) is (rho < 1.0)


@SETTINGS
@given(rho_s, power, p_t_s, st.floats(2.0, 6.0))
@example(0.0, 0.0, 100.0, 2.0)  # no jamming: below the floor
@example(0.0, INF, 100.0, 2.0)  # T = 1 along the whole axis: the curvature is 0
@example(0.01, INF, 1e6, 4.0)
@example(0.01, 1e300, 100.0, 2.0)  # q*P_J*... overflows in the textbook form
@example(0.01, 1e154, 1e6, 2.0)
@example(1.0, 10.0, 100.0, 2.0)  # rho = 1 is outside the theorem
def test_origin_extremum_limits(rho, p_j, p_t, alpha) -> None:
    p = SystemParams(p_t=p_t, p_j=p_j, rho=rho, alpha=alpha)
    coef = origin_curvature(p)
    assert not math.isnan(coef) and not math.isinf(coef)
    if math.isinf(p_j):
        assert coef == 0.0
    thr = origin_extremum_threshold(p_t, alpha)
    assert not math.isnan(thr) and thr > 0.0
    floor = (1.0 - 2.0**-alpha) / (1.0 - rho) if rho < 1.0 else INF
    if not (rho < 1.0 and p_j > floor):
        for form in (origin_extremum, origin_extremum_approx):
            with pytest.raises(UnsupportedRegimeError):
                form(p)
        return
    want = ExtremumClass.LOCAL_MAX if coef > 0 else ExtremumClass.LOCAL_MIN if coef < 0 else ExtremumClass.BOUNDARY
    assert origin_extremum(p) is want
    approx = ExtremumClass.LOCAL_MAX if p_j > thr else ExtremumClass.LOCAL_MIN if p_j < thr else ExtremumClass.BOUNDARY
    assert origin_extremum_approx(p) is approx
