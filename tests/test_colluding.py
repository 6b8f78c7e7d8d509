"""Static secrecy against colluding eavesdroppers and the optimal jamming power."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdjam.colluding import (
    _at_optimum,
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
from fdjam.errors import InvalidParameterError, UnboundedOptimumError, UnsupportedRegimeError
from fdjam.geometry import LinkGains, Region, SystemParams, gains, region_classify
from fdjam.oracles import golden_max_secrecy


def _params(p_j: float, rho: float = 0.01, p_t: float = 100.0) -> SystemParams:
    return SystemParams(p_t=p_t, p_j=p_j, rho=rho)


def test_snr_and_secrecy_formulas() -> None:
    g = LinkGains(4.0, 1.0)
    params = _params(p_j=50.0)
    assert snr_ab(params) == pytest.approx(100.0 / 1.5)
    lam = lambda_factor(g, params)
    assert lam == pytest.approx(51.0 / (4.0 * 1.5))
    s = secrecy_ab(g, params)
    assert s == pytest.approx(math.log2(1.0 + 100.0 / 1.5) - math.log2(1.0 + 400.0 / 51.0))
    assert (s > 0.0) == (lam > 1.0) == positivity(g, params)


def test_secrecy_clamps_at_zero() -> None:
    g = LinkGains(4.0, 1.0)  # strong eavesdropper, no jamming
    params = _params(p_j=0.0)
    assert secrecy_ab(g, params) == 0.0
    assert not positivity(g, params)


def test_positivity_matches_secrecy_sign() -> None:
    rng = np.random.default_rng(17)
    for _ in range(300):
        g = LinkGains(float(10.0 ** rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-2, 2)))
        params = _params(
            p_j=float(10.0 ** rng.uniform(-2, 4)),
            rho=float(rng.uniform(0.0, 1.5)),
            p_t=float(10.0 ** rng.uniform(0, 3)),
        )
        assert positivity(g, params) == (secrecy_ab(g, params) > 0.0)


def test_gamma_threshold_splits_positivity() -> None:
    g = LinkGains(4.0, 1.0)
    gam = gamma_coeff(g, 0.01)
    assert gam == pytest.approx(3.0 / 0.96)
    assert not positivity(g, _params(p_j=gam * 0.999))
    assert positivity(g, _params(p_j=gam * 1.001))


def test_opt_jam_reference_point() -> None:
    g = LinkGains(4.0, 1.0)
    res = opt_jam(g, rho=0.01, p_t=100.0)
    assert res.region is Region.R2
    assert res.gamma == pytest.approx(3.125)
    assert res.beta == pytest.approx(399.99 / 0.0096)
    assert res.p_j_opt == pytest.approx(207.27051335995608, rel=1e-12)
    # derivative polynomial changes sign exactly there
    c2, c1, c0 = jam_derivative_coeffs(g, 0.01, 100.0)
    p = res.p_j_opt
    assert -c2 * p * p + c1 * p + c0 == pytest.approx(0.0, abs=1e-9)


def test_opt_jam_beats_search_oracle() -> None:
    g = LinkGains(4.0, 1.0)
    res = opt_jam(g, rho=0.01, p_t=100.0)
    pj_oracle, s_oracle = golden_max_secrecy(g, 0.01, 100.0)
    s_closed = secrecy_ab(g, _params(p_j=res.p_j_opt))
    assert abs(pj_oracle - res.p_j_opt) / res.p_j_opt < 1e-6
    assert s_closed >= s_oracle - 1e-10


def test_opt_jam_r1_interior_and_clip() -> None:
    interior = opt_jam(LinkGains(0.5, 2.0), rho=0.1, p_t=10.0)
    assert interior.region is Region.R1
    assert interior.p_j_opt > 0.0
    clipped = opt_jam(LinkGains(0.5, 0.2), rho=0.3, p_t=10.0)
    assert clipped.region is Region.R1
    assert clipped.p_j_opt == 0.0
    # with c0 <= 0 any positive power only hurts
    s0 = secrecy_ab(LinkGains(0.5, 0.2), SystemParams(p_t=10.0, p_j=0.0, rho=0.3))
    s1 = secrecy_ab(LinkGains(0.5, 0.2), SystemParams(p_t=10.0, p_j=1.0, rho=0.3))
    assert s0 > s1


def test_opt_jam_r3_r4_zero() -> None:
    r3 = opt_jam(LinkGains(0.5, 0.01), rho=0.1, p_t=100.0)
    assert r3.region is Region.R3 and r3.p_j_opt == 0.0
    r4 = opt_jam(LinkGains(4.0, 0.01), rho=0.1, p_t=100.0)
    assert r4.region is Region.R4 and r4.p_j_opt == 0.0


def test_opt_jam_unbounded_without_self_interference() -> None:
    with pytest.raises(UnboundedOptimumError):
        opt_jam(LinkGains(4.0, 1.0), rho=0.0, p_t=100.0)


@pytest.mark.parametrize("rho, p_t", [(0.01, 100.0), (0.05, 1e4), (0.2, 1.0)])
def test_opt_jam_node_values_are_the_approach_limits(rho: float, p_t: float) -> None:
    # p_j_opt is 0 at both nodes; the optimal secrecy there is log2(1 + P_T) at
    # Bob's node (the limit P_J -> 0+) and 0 at Alice's.  Along the approaches
    # from three sides at distance eps the gaps are O(eps): p_j_opt within
    # 2*eps*sqrt((1 + P_T)/rho), the secrecy at the optimum within
    # 4*eps*sqrt(rho*(1 + P_T)) bits and gamma within 3*eps relative.  beta is
    # within 2*eps^2*(1 + P_T)/rho at Bob's node.  At Alice's node (b = 1) its
    # limit is L(b) = -(b + P_T*(b - rho))/(rho^2*b), and the gap has two parts:
    # L(b) - L(1) = (P_T/rho)*(d_B^2 - 1) with |d_B^2 - 1| <= 3*eps, which is
    # O(eps), and beta - L(b) = (N*b - rho^2)/(rho^2*b*(b - rho*a)) with
    # N = b + P_T*(b - rho) and a = eps^-2, at most 2*eps^2*(1 + P_T)/rho^3

    def beta_tol(node: float, eps: float) -> float:
        if node > 0:
            return 2.0 * eps * eps * (1.0 + p_t) / rho
        return 3.0 * eps * p_t / rho + 2.0 * eps * eps * (1.0 + p_t) / rho**3

    bob = (0.5, math.log2(1.0 + p_t), 0.0, 0.0)
    alice = (-0.5, 0.0, -1.0 / rho, -(1.0 + p_t * (1.0 - rho)) / rho**2)
    for node, s_node, gam_node, beta_node in (bob, alice):
        g = gains(node, 0.0, 2.0)
        res = opt_jam(g, rho, p_t)
        assert res.p_j_opt == 0.0 and p_j_opt_array(g.a, g.b, rho, p_t) == 0.0
        assert res.gamma == gam_node and res.beta == pytest.approx(beta_node, rel=1e-15)
        s = float(_secrecy_array(g.a, g.b, p_t, rho, _at_optimum(g.b, res.p_j_opt)))
        assert s == pytest.approx(s_node, rel=0.0, abs=1e-15)
        for eps in 10.0 ** -np.arange(2, 9):
            for dx, dy in ((eps, 0.0), (0.0, eps), (-eps, 0.0)):
                near = gains(node + dx, dy, 2.0)
                got = opt_jam(near, rho, p_t)
                assert 0.0 <= got.p_j_opt <= 2.0 * eps * math.sqrt((1.0 + p_t) / rho)
                s = secrecy_ab(near, _params(p_j=got.p_j_opt, rho=rho, p_t=p_t))
                assert s == pytest.approx(s_node, rel=0.0, abs=4.0 * eps * math.sqrt(rho * (1.0 + p_t)))
                assert got.gamma == pytest.approx(gam_node, rel=3.0 * eps, abs=3.0 * eps)
                assert got.beta == pytest.approx(beta_node, rel=0.0, abs=beta_tol(node, eps))


def test_zero_region_predicate() -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.1)
    assert zero_region_predicate(LinkGains(4.0, 0.01), params)  # R4
    g = LinkGains(4.0, 1.0)
    gam = gamma_coeff(g, 0.1)
    assert zero_region_predicate(g, SystemParams(p_t=100.0, p_j=gam * 0.9, rho=0.1))
    assert not zero_region_predicate(g, SystemParams(p_t=100.0, p_j=gam * 1.1, rho=0.1))
    with pytest.raises(UnsupportedRegimeError):
        zero_region_predicate(g, SystemParams(p_t=100.0, p_j=10.0, rho=0.5))  # rho >= 2^-alpha
    with pytest.raises(UnsupportedRegimeError):
        zero_region_predicate(g, SystemParams(p_t=100.0, p_j=0.0, rho=0.1))
    with pytest.raises(UnsupportedRegimeError):
        # an R3 gain pair cannot come from a location when rho < 2^-alpha
        zero_region_predicate(LinkGains(0.5, 0.01), params)


def test_worst_location_candidate() -> None:
    params = SystemParams(p_t=100.0, p_j=1000.0, rho=0.005, alpha=2.0, delta=0.1)
    loc = worst_location(params)
    assert (loc.x, loc.y) == (-0.6, 0.0)
    # the candidate actually minimizes over a coarse probe of the allowed set
    s_cand = secrecy_ab(gains(loc.x, loc.y, 2.0), params)
    rng = np.random.default_rng(8)
    for _ in range(500):
        x, y = rng.uniform(-2, 2, size=2)
        if math.hypot(x + 0.5, y) < params.delta:
            continue
        assert secrecy_ab(gains(float(x), float(y), 2.0), params) >= s_cand - 1e-12


def test_worst_location_preconditions() -> None:
    with pytest.raises(UnsupportedRegimeError):
        worst_location(SystemParams(p_t=100.0, p_j=1000.0, rho=0.005, delta=1.5))
    with pytest.raises(UnsupportedRegimeError):
        worst_location(SystemParams(p_t=100.0, p_j=1000.0, rho=0.01, delta=0.1))
    with pytest.raises(UnsupportedRegimeError):
        worst_location(SystemParams(p_t=100.0, p_j=100.0, rho=0.005, delta=0.1))


_POS = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=_POS, b=_POS, rho=st.floats(min_value=1e-6, max_value=10.0), p_t=_POS, on_boundary=st.booleans())
@example(a=4.0, b=0.04, rho=0.01, p_t=100.0, on_boundary=True)  # b = rho*a
@example(a=1.0, b=2.0, rho=0.1, p_t=10.0, on_boundary=False)  # a = 1, R2 side
@example(a=1.0, b=0.05, rho=0.1, p_t=10.0, on_boundary=False)  # a = 1, R4 side
@example(a=0.5, b=0.2, rho=0.3, p_t=10.0, on_boundary=False)  # R1 clip at c0 <= 0
def test_p_j_opt_array_matches_scalar_exactly(a, b, rho, p_t, on_boundary) -> None:
    if on_boundary:
        b = rho * a
    g = LinkGains(a, b)
    # the closed form assembled from the scalar region and coefficient helpers
    region = region_classify(g, rho)
    c2, _, c0 = jam_derivative_coeffs(g, rho, p_t)
    if region in (Region.R3, Region.R4) or (region is Region.R1 and c0 <= 0):
        want = 0.0
    else:
        gam = gamma_coeff(g, rho)
        want = gam + math.sqrt(gam * gam + c0 / c2)
    got = p_j_opt_array(np.array([a, a]), np.array([b, b]), rho, p_t)
    assert got.shape == (2,)
    assert got[0] == want and got[1] == want
    assert opt_jam(g, rho, p_t).p_j_opt == want


def test_p_j_opt_array_typed_errors() -> None:
    a, b = np.array([4.0, math.inf]), np.array([1.0, 0.25])
    with pytest.raises(UnboundedOptimumError):
        p_j_opt_array(a[:1], b[:1], 0.0, 100.0)
    with pytest.raises(InvalidParameterError):
        p_j_opt_array(a[:1], b[:1], -0.1, 100.0)
