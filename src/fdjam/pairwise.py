"""Dual-phase secrecy against a single eavesdropper, no fading.

The endpoints alternate transmitter/jammer roles and each phase carries half
the traffic, so the pair secrecy is the average of the two one-direction
secrecies.  Where both directions are positive it collapses to
log2(1+SNR) - (1/2)log2 T with T = (1+SNR_AE)(1+SNR_BE), and all the x-axis
structure (origin extremum, singularity at the endpoints, left/right
asymmetry, constant near field) lives in T.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .colluding import LOG2E, _secrecy_array, _snr, gamma_coeff, positivity, snr_ab
from .errors import InvalidParameterError, RegimeWarning, UnsupportedRegimeError
from .geometry import (
    LinkGains,
    Region,
    SystemParams,
    _jam_scale,
    gains,
    region4_containment_threshold,
    region_classify,
    sign_b_minus_rho_a,
)

__all__ = [
    "ExtremumClass",
    "NearFarField",
    "secrecy_pair",
    "positivity_pair",
    "positivity_nojam",
    "positivity_exists_pj",
    "positivity_universal",
    "t_factor",
    "secrecy_from_t",
    "pair_hypotheses_hold",
    "origin_curvature",
    "origin_extremum",
    "origin_extremum_threshold",
    "origin_extremum_approx",
    "deriv_x_axis",
    "singularity_asymptote",
    "lr_asymmetry",
    "lr_asymmetry_asymptotic",
    "near_far_field",
    "node_peaks",
]


def _secrecy_pair_array(a, b, p_t: float, rho: float, p_j, c=1.0, d=1.0, a_t=1.0, b1_t=1.0, b2_t=1.0):
    """The pair secrecy over arrays: the mean of the two one-direction secrecies.

    The A->B direction sees self-interference fading b1_t and the B->A
    direction b2_t; the gains and the eavesdropper fadings (c, d) swap with
    the roles.  All ones is the static pair secrecy.
    """
    s_ab = _secrecy_array(a, b, p_t, rho, p_j, c, d, a_t, b1_t)
    s_ba = _secrecy_array(b, a, p_t, rho, p_j, d, c, a_t, b2_t)
    return 0.5 * (s_ab + s_ba)


def secrecy_pair(g: LinkGains, params: SystemParams) -> float:
    """Average of the two one-direction secrecies, each clipped at zero."""
    return float(_secrecy_pair_array(g.a, g.b, params.p_t, params.rho, params.p_j))


def positivity_pair(g: LinkGains, params: SystemParams) -> bool:
    """True iff secrecy_pair > 0 at these exact parameters."""
    return positivity(g, params) or positivity(g.swapped(), params)


def positivity_nojam(g: LinkGains) -> bool:
    """P_J = 0 case: positive iff the point leaves the two-unit-disk lens.

    a >= 1 and b >= 1 together mean both endpoints are within unit distance.
    """
    return not (g.a >= 1.0 and g.b >= 1.0)


def positivity_exists_pj(g: LinkGains, rho: float) -> bool:
    """True iff some P_J >= 0 gives positive pair secrecy: not in R4 twice."""
    in_r4 = region_classify(g, rho) is Region.R4
    in_r4_swapped = region_classify(g.swapped(), rho) is Region.R4
    return not (in_r4 and in_r4_swapped)


def positivity_universal(rho: float) -> bool:
    """True iff rho < 1: then a single P_J can protect every location."""
    return rho < 1.0


def t_factor(g: LinkGains, params: SystemParams) -> float:
    """T = (1+SNR_AE)(1+SNR_BE) = (1 + a*P_T/(1+b*P_J))*(1 + b*P_T/(1+a*P_J)), the SNRs from _snr.

    Every term is positive, so nothing cancels, and the form reaches its
    limit 1 at P_J = inf without inf/inf.
    """
    a, b, p_t, p_j = g.a, g.b, params.p_t, params.p_j
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("t_factor needs finite gains")
    return float((1.0 + _snr(a, b, p_t, p_j)) * (1.0 + _snr(b, a, p_t, p_j)))


def pair_hypotheses_hold(g: LinkGains, params: SystemParams) -> bool:
    """Both directions strictly inside their positive-sign region with P_J above both gammas."""
    a, b, rho = g.a, g.b, params.rho
    if math.isinf(a) or math.isinf(b):
        return False
    if not (sign_b_minus_rho_a(a, b, rho) > 0 and sign_b_minus_rho_a(b, a, rho) > 0):
        return False
    gam = gamma_coeff(g, rho)
    gam_bar = gamma_coeff(g.swapped(), rho)
    return params.p_j > max(gam, gam_bar)


def secrecy_from_t(g: LinkGains, params: SystemParams) -> float:
    """log2(1+SNR) - (1/2)log2 T; valid only under pair_hypotheses_hold."""
    if not pair_hypotheses_hold(g, params):
        raise UnsupportedRegimeError(
            "secrecy_from_t needs both directions positive-signed and P_J > max(gamma, gamma_bar)"
        )
    return math.log2(1.0 + snr_ab(params)) - 0.5 * math.log2(t_factor(g, params))


class ExtremumClass(enum.Enum):
    LOCAL_MAX = "local-max"
    LOCAL_MIN = "local-min"
    BOUNDARY = "boundary"


def _check_origin_hypotheses(params: SystemParams) -> None:
    if not params.rho < 1.0:
        raise UnsupportedRegimeError(f"origin extremum needs rho < 1, got {params.rho}")
    floor = (1.0 - 2.0**-params.alpha) / (1.0 - params.rho)
    if not params.p_j > floor:
        raise UnsupportedRegimeError(
            f"origin extremum needs P_J > {floor:.6g}, got {params.p_j}"
        )


def origin_curvature(params: SystemParams) -> float:
    """Exact x^2 coefficient of T along the x-axis at the origin.

    With q = 2^alpha, u = 1+q*P_J, G = u+q*P_T:
    (4*alpha*q/u^2) * ((alpha+1)*G*P_T/u + alpha*q*((G/u)^2*P_J^2 - (P_J-P_T)^2)).
    Positive curvature of T means a local maximum of secrecy.  It is taken
    in r = 1/u and m = q*P_J/u = 1 - r, as
    4*alpha*q*P_T*r*((alpha+1)*r*(1 + q*P_T*r) + alpha*(1 + m)*(2*m - q*P_T*r^2)).
    On the jamming scale (r_j, i) of _jam_scale u is h/i with h = i + q*r_j,
    so r = i/h and m = q*r_j/h, and P_T enters only as (P_T*i)/h: no
    inf - inf and no overflow at large P_J or P_T, and the limit 0 at
    P_J = inf (i = 0), where T = 1.  At P_J <= 1 (i = 1) the products are
    those of the form above, factor for factor.
    """
    q, alpha, (r_j, i) = 2.0**params.alpha, params.alpha, map(float, _jam_scale(params.p_j))
    inv_h, pt_i = 1.0 / (i + q * r_j), params.p_t * i
    r, m, qtr = i * inv_h, q * r_j / (i + q * r_j), q * pt_i * inv_h
    return 4.0 * alpha * q * pt_i * inv_h * ((alpha + 1.0) * r * (1.0 + qtr) + alpha * (1.0 + m) * (2.0 * m - qtr * r))


def origin_extremum(params: SystemParams) -> ExtremumClass:
    """Classify the origin along the x-axis by the exact curvature of T."""
    _check_origin_hypotheses(params)
    coef = origin_curvature(params)
    if coef > 0:
        return ExtremumClass.LOCAL_MAX
    if coef < 0:
        return ExtremumClass.LOCAL_MIN
    return ExtremumClass.BOUNDARY


def origin_extremum_threshold(p_t: float, alpha: float) -> float:
    """P_J threshold (-1+sqrt(1+2^(alpha+1)*P_T))/2^(alpha+1) of the quadratic approximation."""
    q2 = 2.0 ** (alpha + 1.0)
    return (-1.0 + math.sqrt(1.0 + q2 * p_t)) / q2


def origin_extremum_approx(params: SystemParams) -> ExtremumClass:
    """Threshold-based classification from the truncated curvature expansion.

    Keeps only the part of the curvature that survives dropping the
    (alpha+1)*G*P_T/u term, equivalent to comparing P_J with
    origin_extremum_threshold.  Kept as a reference approximation; it can
    disagree with origin_extremum (and with sampled secrecy) near the
    threshold, where the dropped term decides the sign.
    """
    _check_origin_hypotheses(params)
    thr = origin_extremum_threshold(params.p_t, params.alpha)
    if params.p_j > thr:
        return ExtremumClass.LOCAL_MAX
    if params.p_j < thr:
        return ExtremumClass.LOCAL_MIN
    return ExtremumClass.BOUNDARY


def _axis_gains(d: float, alpha: float) -> LinkGains:
    if not d > 0 or d == 1.0:
        raise InvalidParameterError(f"axis distance must be > 0 and != 1, got {d}")
    return gains(d - 0.5, 0.0, alpha)


def deriv_x_axis(d: float, params: SystemParams) -> float:
    """d/dx of the pair secrecy (bits) along y = 0, at d_A = d.

    Equals -(log2 e)/2 times dlnT/dd; only T varies with position.  With
    x = a*P_T/(1+b*P_J), y = b*P_T/(1+a*P_J) from _snr (T = (1+x)(1+y)) and the
    logarithmic slopes a'/a = -alpha/d, b'/b = alpha/(1-d), which hold for
    any real alpha on both sides of d = 1,
    dlnT/dd = x/(1+x)*(a'/a - b'/b*(1 - 1/f_b)) + y/(1+y)*(b'/b - a'/a*(1 - 1/f_a)),
    f_b = 1+b*P_J and f_a = 1+a*P_J.  The large-P_J parts cancel inside the
    brackets, so at P_J = inf (x = y = 0) the slope is 0.
    """
    g = _axis_gains(d, params.alpha)
    if not pair_hypotheses_hold(g, params):
        raise UnsupportedRegimeError("deriv_x_axis needs the positive-secrecy hypotheses")
    a, b, p_t, p_j, alpha = g.a, g.b, params.p_t, params.p_j, params.alpha
    la, lb = -alpha / d, alpha / (1.0 - d)
    f_b, f_a = 1.0 + b * p_j, 1.0 + a * p_j
    x, y = float(_snr(a, b, p_t, p_j)), float(_snr(b, a, p_t, p_j))
    dlnt = x / (1.0 + x) * (la - lb * (1.0 - 1.0 / f_b)) + y / (1.0 + y) * (lb - la * (1.0 - 1.0 / f_a))
    return -0.5 * LOG2E * dlnt


def singularity_asymptote(x: float, alpha: float) -> float:
    """Leading behavior of deriv_x_axis as x -> 0.5: -(log2 e)/2 * alpha/(0.5-x).

    At x = 0.5 itself, Bob's node, the slope diverges and the form raises.
    """
    if x == 0.5:
        raise InvalidParameterError(f"the asymptote diverges at Bob's node x = 0.5, got {x}")
    return -0.5 * LOG2E * alpha / (0.5 - x)


def lr_asymmetry(delta: float, params: SystemParams) -> tuple[float, float, float]:
    """(T_left, T_right, T_right - T_left) at distance delta from (0.5, 0).

    Without jamming the left side, nearer the transmitter, has the larger
    T: T = (1 + a*P_T)(1 + b*P_T) grows with a.  Jamming turns the gap
    around: past a crossover near P_J = delta^(alpha/2)*sqrt(P_T) for small
    delta (about 0.5 at delta = 0.05, P_T = 100) the right side has the
    larger T, hence the smaller secrecy, until both reach 1 at P_J = inf.
    """
    if not 0 < delta < 0.5:
        raise InvalidParameterError(f"delta must be in (0, 0.5), got {delta}")
    t_left = t_factor(gains(0.5 - delta, 0.0, params.alpha), params)
    t_right = t_factor(gains(0.5 + delta, 0.0, params.alpha), params)
    return t_left, t_right, t_right - t_left


def lr_asymmetry_asymptotic(delta: float, params: SystemParams) -> float:
    """Small-delta, large-P_J limit of the T gap: 2*alpha*delta^(1-alpha)*P_T/P_J.

    delta lies in (0, 0.5), as for lr_asymmetry; P_J = 0 is outside the
    large-P_J regime and raises UnsupportedRegimeError.
    """
    if not 0 < delta < 0.5:
        raise InvalidParameterError(f"delta must be in (0, 0.5), got {delta}")
    if not params.p_j > 0:
        raise UnsupportedRegimeError("lr_asymmetry_asymptotic is a large-P_J limit and needs P_J > 0")
    if math.isinf(params.p_j):
        return 0.0
    try:
        scale = delta ** (1.0 - params.alpha)
    except OverflowError:  # delta within a few ulps of 0: the gap is past every float
        return math.inf
    return 2.0 * params.alpha * scale * params.p_t / params.p_j


@dataclass(frozen=True)
class NearFarField:
    near: float  # log2(1/rho), holds where delta < d_A, d_B < 1
    far: float   # (1/2)log2(P_T/rho), holds far from both endpoints
    margin: float  # delta^alpha * sqrt(rho*P_T); the plateaus need this >> 1


def _coupled_power(p_t: float, rho: float) -> float:
    """The coupled jamming power sqrt(P_T/rho), rho > 0: sqrt(P_T)/sqrt(rho) where P_T/rho overflows."""
    quotient = p_t / rho
    return math.sqrt(quotient) if quotient < math.inf else math.sqrt(p_t) / math.sqrt(rho)


def near_far_field(params: SystemParams) -> NearFarField:
    """Plateau levels of the pair secrecy field under P_J = sqrt(P_T/rho).

    Requires that exact P_J coupling and containment of the zero-secrecy
    disks within the exclusion radius; a small margin (< 10) is reported
    with a warning rather than an error because the plateau degrades
    gradually.
    """
    if not params.rho > 0:
        raise UnsupportedRegimeError("near_far_field needs rho > 0")
    p_j_auto = _coupled_power(params.p_t, params.rho)
    if not math.isclose(params.p_j, p_j_auto, rel_tol=1e-9):
        raise UnsupportedRegimeError(
            f"near_far_field needs P_J = sqrt(P_T/rho) = {p_j_auto:.6g}, got {params.p_j}"
        )
    if params.delta <= 1 and not params.rho < region4_containment_threshold(params.delta, params.alpha):
        raise UnsupportedRegimeError("near_far_field needs rho below the containment threshold")
    margin = params.delta**params.alpha * math.sqrt(params.rho * params.p_t)
    if margin < 10.0:
        warnings.warn(
            f"near/far-field margin delta^alpha*sqrt(rho*P_T) = {margin:.3g} < 10",
            RegimeWarning,
            stacklevel=2,
        )
    return NearFarField(near=math.log2(1.0 / params.rho), far=math.log2(p_j_auto), margin=margin)


def node_peaks(params: SystemParams) -> float:
    """Pair secrecy exactly at the endpoints: (1/2)log2(1+P_T/(1+rho*P_J)).

    A local peak of the field when rho < 2^-alpha and P_J > 0.
    """
    if not params.p_j > 0:
        raise UnsupportedRegimeError("node_peaks needs P_J > 0")
    if not params.rho < 2.0**-params.alpha:
        raise UnsupportedRegimeError(
            f"node_peaks needs rho < 2^-alpha = {2.0**-params.alpha:.6g}, got {params.rho}"
        )
    return 0.5 * math.log2(1.0 + snr_ab(params))
