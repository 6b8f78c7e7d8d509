"""Pairwise (two-phase) static secrecy: field structure along the axis,
origin classification, endpoint peaks and plateau levels."""

import math

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError, RegimeWarning, UnsupportedRegimeError
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam.oracles import central_diff, deriv_x_axis_even_alpha
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


def test_pair_secrecy_is_minimum_of_directions() -> None:
    g = gains(0.2, 0.3, 2.0)
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    s = secrecy_pair(g, params)
    s_swapped = secrecy_pair(g.swapped(), params)
    assert s == pytest.approx(s_swapped)
    assert s >= 0.0


def test_mirror_symmetry() -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    for x, y in ((0.3, 0.2), (1.2, -0.4), (0.0, 0.7)):
        left = secrecy_pair(gains(-x, y, 2.0), params)
        right = secrecy_pair(gains(x, y, 2.0), params)
        assert left == pytest.approx(right)


def test_positivity_variants() -> None:
    inside = gains(0.0, 0.0, 2.0)   # within both unit disks
    outside = gains(1.8, 0.0, 2.0)
    assert not positivity_nojam(inside)
    assert positivity_nojam(outside)
    assert positivity_universal(0.5)
    assert not positivity_universal(1.0)
    # with rho >= 1 a point can sit in R4 for both directions at once
    assert not positivity_exists_pj(LinkGains(2.0, 2.0), 1.0)
    assert positivity_exists_pj(LinkGains(2.0, 2.0), 0.5)
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    assert positivity_pair(inside, params) == (secrecy_pair(inside, params) > 0.0)


def test_t_factor_identity() -> None:
    g = gains(0.1, 0.6, 2.0)
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.02)
    a, b, p_t, p_j = g.a, g.b, params.p_t, params.p_j
    direct = (1.0 + a * p_t / (1.0 + b * p_j)) * (1.0 + b * p_t / (1.0 + a * p_j))
    assert t_factor(g, params) == pytest.approx(direct, rel=1e-12)


def test_secrecy_from_t_matches_direct_form() -> None:
    params = SystemParams(p_t=100.0, p_j=50.0, rho=0.02)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        x, y = rng.uniform(-2, 2, size=2)
        g = gains(float(x), float(y), 2.0)
        if not pair_hypotheses_hold(g, params):
            continue
        checked += 1
        assert secrecy_from_t(g, params) == pytest.approx(secrecy_pair(g, params), abs=1e-10)
    assert checked > 50
    with pytest.raises(UnsupportedRegimeError):
        secrecy_from_t(LinkGains(100.0, 0.1), params)


def test_origin_curvature_sign_classifies() -> None:
    params = SystemParams(p_t=100.0, p_j=50.0, rho=0.1)
    coef = origin_curvature(params)

    def s_axis(x: float) -> float:
        return secrecy_pair(gains(x, 0.0, params.alpha), params)

    h = 1e-3
    sampled = s_axis(h) + s_axis(-h) - 2.0 * s_axis(0.0)
    assert (coef > 0.0) == (sampled < 0.0)
    assert origin_extremum(params) is (
        ExtremumClass.LOCAL_MAX if coef > 0 else ExtremumClass.LOCAL_MIN
    )


def test_origin_threshold_value() -> None:
    thr = origin_extremum_threshold(100.0, 2.0)
    assert thr == pytest.approx((-1.0 + math.sqrt(801.0)) / 8.0)
    assert thr == pytest.approx(3.4127429245212264)
    # far from the threshold the truncated rule agrees with the exact one
    for p_j in (1.0, thr * 4.0):
        p = SystemParams(p_t=100.0, p_j=p_j, rho=0.01)
        assert origin_extremum_approx(p) is origin_extremum(p)
    # between the exact flip (~1.3) and the truncated threshold the dropped
    # curvature term decides the sign, and the two rules disagree
    between = SystemParams(p_t=100.0, p_j=2.0, rho=0.01)
    assert origin_extremum(between) is ExtremumClass.LOCAL_MAX
    assert origin_extremum_approx(between) is ExtremumClass.LOCAL_MIN


def test_origin_extremum_preconditions() -> None:
    with pytest.raises(UnsupportedRegimeError):
        origin_extremum(SystemParams(p_t=100.0, p_j=50.0, rho=1.5))
    with pytest.raises(UnsupportedRegimeError):
        origin_extremum(SystemParams(p_t=100.0, p_j=0.1, rho=0.1))


def test_axis_derivative_matches_finite_difference() -> None:
    params = SystemParams(p_t=100.0, p_j=1e4, rho=1e-4)

    def s_axis(d: float) -> float:
        return secrecy_pair(gains(d - 0.5, 0.0, params.alpha), params)

    for d in (0.3, 0.7, 1.4):
        closed = deriv_x_axis(d, params)
        fd = central_diff(s_axis, d, 1e-6)
        assert closed == pytest.approx(fd, rel=1e-4)


def test_axis_derivative_polynomial_form() -> None:
    params = SystemParams(p_t=100.0, p_j=1e4, rho=1e-4)
    for d in (0.3, 0.7, 1.4, 2.2):
        assert deriv_x_axis_even_alpha(d, params) == pytest.approx(
            deriv_x_axis(d, params), rel=1e-9
        )
    with pytest.raises(InvalidParameterError):
        deriv_x_axis_even_alpha(0.3, SystemParams(p_t=100.0, p_j=1e4, rho=1e-4, alpha=3.0))
    with pytest.raises(InvalidParameterError):
        deriv_x_axis_even_alpha(1.0, params)


def test_singularity_asymptote_near_receiver() -> None:
    # tiny rho and large P_J keep the hypotheses alive close to (0.5, 0)
    params = SystemParams(p_t=100.0, p_j=2e6, rho=1e-9)
    x = 0.5 - 1e-3
    exact = deriv_x_axis(x + 0.5, params)
    asym = singularity_asymptote(x, params.alpha)
    assert abs(exact - asym) / abs(asym) <= 0.05
    # even closer the positive-sign hypothesis collapses and the closed
    # derivative refuses the point
    with pytest.raises(UnsupportedRegimeError):
        deriv_x_axis(0.5 - 3e-4 + 0.5, params)


def test_left_right_asymmetry() -> None:
    params = SystemParams(p_t=1e6, p_j=1e4, rho=1e-4, delta=0.05)
    t_left, t_right, diff = lr_asymmetry(0.05, params)
    assert t_right > t_left
    assert diff == pytest.approx(t_right - t_left)
    assert diff == pytest.approx(lr_asymmetry_asymptotic(0.05, params), rel=0.01)
    with pytest.raises(InvalidParameterError):
        lr_asymmetry(0.7, params)


@pytest.mark.parametrize("p_j, sign", [(0.0, -1.0), (10.0, 1.0), (1e4, 1.0)])
def test_lr_asymmetry_sign_turns_with_jamming(p_j: float, sign: float) -> None:
    # unjammed, the side nearer the transmitter has the larger T (T_left 4.47e6
    # against 3.67e6); jamming past delta*sqrt(P_T) = 0.5 hands it to the right
    params = SystemParams(p_t=100.0, p_j=p_j, rho=0.01)
    t_left, t_right, diff = lr_asymmetry(0.05, params)
    assert math.copysign(1.0, diff) == sign and diff == t_right - t_left


def test_node_peaks_value() -> None:
    # rho * P_J = 1 gives (1/2) log2(1 + P_T/2)
    assert node_peaks(SystemParams(p_t=100.0, p_j=100.0, rho=0.01)) == pytest.approx(
        0.5 * math.log2(51.0)
    )
    with pytest.raises(UnsupportedRegimeError):
        node_peaks(SystemParams(p_t=100.0, p_j=0.0, rho=0.01))
    with pytest.raises(UnsupportedRegimeError):
        node_peaks(SystemParams(p_t=100.0, p_j=100.0, rho=0.3))


def test_near_far_plateau_levels() -> None:
    # rho must stay below the containment threshold 0.00826 at delta = 0.1
    rho, p_t = 0.005, 2e10
    params = SystemParams(p_t=p_t, p_j=math.sqrt(p_t / rho), rho=rho)
    field = near_far_field(params)
    assert field.near == pytest.approx(math.log2(1.0 / rho))
    assert field.far == pytest.approx(0.5 * math.log2(p_t / rho))
    assert field.margin == pytest.approx(100.0)
    # the near plateau really holds between the exclusion rings
    for x, y in ((0.0, 0.0), (0.2, 0.3), (-0.3, -0.2)):
        s = secrecy_pair(gains(x, y, 2.0), params)
        assert s == pytest.approx(field.near, abs=0.01)


def test_near_far_margin_warning() -> None:
    rho, p_t = 0.005, 2e6  # margin = delta^2 * sqrt(rho * P_T) = 1
    params = SystemParams(p_t=p_t, p_j=math.sqrt(p_t / rho), rho=rho)
    with pytest.warns(RegimeWarning):
        field = near_far_field(params)
    assert field.margin == pytest.approx(1.0)
    with pytest.raises(UnsupportedRegimeError):
        near_far_field(SystemParams(p_t=100.0, p_j=5.0, rho=0.005))
    with pytest.raises(UnsupportedRegimeError):
        near_far_field(SystemParams(p_t=100.0, p_j=math.sqrt(100.0 / 0.05), rho=0.05))
