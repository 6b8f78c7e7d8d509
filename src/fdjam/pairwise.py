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

from .colluding import LOG2E, _secrecy_array, gamma_coeff, positivity, snr_ab
from .errors import InvalidParameterError, RegimeWarning, UnsupportedRegimeError
from .geometry import LinkGains, Region, SystemParams, gains, region_classify

__all__ = [
    "PairSecrecy",
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


@dataclass(frozen=True)
class PairSecrecy:
    s: float
    s_ab: float
    s_ba: float


def _secrecy_pair_array(a, b, p_t: float, rho: float, p_j, c=1.0, d=1.0, a_t=1.0, b1_t=1.0, b2_t=1.0):
    """(pair secrecy, s_ab, s_ba) over arrays: the mean of the two one-direction secrecies.

    The A->B direction sees self-interference fading b1_t and the B->A
    direction b2_t; the gains and the eavesdropper fadings (c, d) swap with
    the roles.  All ones is the static pair secrecy.
    """
    s_ab = _secrecy_array(a, b, p_t, rho, p_j, c, d, a_t, b1_t)
    s_ba = _secrecy_array(b, a, p_t, rho, p_j, d, c, a_t, b2_t)
    return 0.5 * (s_ab + s_ba), s_ab, s_ba


def secrecy_pair(g: LinkGains, params: SystemParams) -> PairSecrecy:
    """Average of the two one-direction secrecies, each clipped at zero."""
    s, s_ab, s_ba = _secrecy_pair_array(g.a, g.b, params.p_t, params.rho, params.p_j)
    return PairSecrecy(s=float(s), s_ab=float(s_ab), s_ba=float(s_ba))


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
    """T = (1+SNR_AE)(1+SNR_BE) in its cancellation-free rational form."""
    a, b, p_t, p_j = g.a, g.b, params.p_t, params.p_j
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("t_factor needs finite gains")
    num = (1.0 + b * p_j + a * p_t) * (1.0 + a * p_j + b * p_t)
    return num / ((1.0 + b * p_j) * (1.0 + a * p_j))


def pair_hypotheses_hold(g: LinkGains, params: SystemParams) -> bool:
    """Both directions strictly inside their positive-sign region with P_J above both gammas."""
    a, b, rho = g.a, g.b, params.rho
    if math.isinf(a) or math.isinf(b):
        return False
    if not (b - rho * a > 0 and a - rho * b > 0):
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
    Positive curvature of T means a local maximum of secrecy.
    """
    q = 2.0**params.alpha
    u = 1.0 + q * params.p_j
    big_g = u + q * params.p_t
    bracket = (params.alpha + 1.0) * big_g * params.p_t / u + params.alpha * q * (
        (big_g / u) ** 2 * params.p_j**2 - (params.p_j - params.p_t) ** 2
    )
    return 4.0 * params.alpha * q / u**2 * bracket


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

    Equals -(log2 e)/2 times dlnT/dd; only T varies with position.  Uses
    a' = -alpha*a/d and b' = alpha*b/(1-d), which is valid for any real
    alpha on both sides of d = 1.
    """
    g = _axis_gains(d, params.alpha)
    if not pair_hypotheses_hold(g, params):
        raise UnsupportedRegimeError("deriv_x_axis needs the positive-secrecy hypotheses")
    a, b, p_t, p_j, alpha = g.a, g.b, params.p_t, params.p_j, params.alpha
    ap = -alpha * a / d
    bp = alpha * b / (1.0 - d)
    f1 = 1.0 + b * p_j + a * p_t
    f2 = 1.0 + a * p_j + b * p_t
    f3 = 1.0 + b * p_j
    f4 = 1.0 + a * p_j
    dlnt = (bp * p_j + ap * p_t) / f1 + (ap * p_j + bp * p_t) / f2 - bp * p_j / f3 - ap * p_j / f4
    return -0.5 * LOG2E * dlnt


def singularity_asymptote(x: float, alpha: float) -> float:
    """Leading behavior of deriv_x_axis as x -> 0.5: -(log2 e)/2 * alpha/(0.5-x)."""
    return -0.5 * LOG2E * alpha / (0.5 - x)


def lr_asymmetry(delta: float, params: SystemParams) -> tuple[float, float, float]:
    """(T_left, T_right, T_right - T_left) at distance delta from (0.5, 0).

    The right side always has the larger T, hence the smaller secrecy.
    """
    if not 0 < delta < 0.5:
        raise InvalidParameterError(f"delta must be in (0, 0.5), got {delta}")
    t_left = t_factor(gains(0.5 - delta, 0.0, params.alpha), params)
    t_right = t_factor(gains(0.5 + delta, 0.0, params.alpha), params)
    return t_left, t_right, t_right - t_left


def lr_asymmetry_asymptotic(delta: float, params: SystemParams) -> float:
    """Small-delta, large-P_J limit of the T gap: 2*alpha*delta^(1-alpha)*P_T/P_J."""
    return 2.0 * params.alpha * delta ** (1.0 - params.alpha) * params.p_t / params.p_j


@dataclass(frozen=True)
class NearFarField:
    near: float  # log2(1/rho), holds where delta < d_A, d_B < 1
    far: float   # (1/2)log2(P_T/rho), holds far from both endpoints
    margin: float  # delta^alpha * sqrt(rho*P_T); the plateaus need this >> 1


def near_far_field(params: SystemParams) -> NearFarField:
    """Plateau levels of the pair secrecy field under P_J = sqrt(P_T/rho).

    Requires that exact P_J coupling and containment of the zero-secrecy
    disks within the exclusion radius; a small margin (< 10) is reported
    with a warning rather than an error because the plateau degrades
    gradually.
    """
    from .geometry import region4_containment_threshold

    if not params.rho > 0:
        raise UnsupportedRegimeError("near_far_field needs rho > 0")
    p_j_auto = math.sqrt(params.p_t / params.rho)
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
    return NearFarField(
        near=math.log2(1.0 / params.rho),
        far=0.5 * math.log2(params.p_t / params.rho),
        margin=margin,
    )


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
