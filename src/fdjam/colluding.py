"""Secrecy against colluding eavesdroppers without small-scale fading.

One transmitter sends while the full-duplex receiver jams.  Colluding
eavesdroppers at (x, y) combine what they hear from both endpoints, so the
wiretap SNR uses the total gain pair (a, b).  Everything here is a pure
function of LinkGains and SystemParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnboundedOptimumError, UnsupportedRegimeError
from .geometry import (
    EveLocation,
    LinkGains,
    Region,
    SystemParams,
    _jam_scale,
    _sign_array,
    gains,
    region4_containment_threshold,
    region_classify,
    sign_b_minus_rho_a,
)

__all__ = [
    "OptJamResult",
    "snr_ab",
    "secrecy_ab",
    "lambda_factor",
    "gamma_coeff",
    "positivity",
    "zero_region_predicate",
    "jam_derivative_coeffs",
    "opt_jam",
    "p_j_opt_array",
    "worst_location",
]

LOG2E = math.log2(math.e)


def _snr(sig, jam, p_t: float, p_j, fade=1.0, jam_fade=1.0) -> np.ndarray:
    """SNR = fade*sig*P_T/(1 + jam_fade*jam*P_J) over arrays that broadcast; p_j may be one per element.

    sig is the gain from the sender and jam the one from the jammer.  On
    the jamming scale (r, i) of _jam_scale it is fade*sig*(P_T*i)/h with
    h = i + jam_fade*jam*r: at P_J <= 1 the plain form, and past it no P_J
    overflows it.  Where fade*sig*(P_T*i) overflows (h > 1, or h = inf
    where the jammer's gain is), the quotient (P_T*i)/h is taken first.
    Limits: a jamming term with a zero factor means no jamming, also
    against an infinite gain or at P_J = 0, and so does h = 0 (P_J = inf
    where no jamming reaches): the unjammed fade*sig*P_T.  sig = inf gives
    inf, and fade = 0 gives 0.  These are taken only on the elements where
    the plain quotient is not finite or nothing jams, gathered and
    scattered back, so an array pays for them in proportion to their number.
    """
    r, i = _jam_scale(p_j)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        gain, jam = fade * sig, jam_fade * jam * r  # jam is NaN only where 0*inf, a zero factor
        snr = np.asarray(gain * (p_t * i) / (i + jam))
        if (fix := ~np.isfinite(snr) | (jam == 0)).any():  # the limits, and the overflow, element by element
            g, t, s, f, ii = (np.broadcast_to(x, fix.shape)[fix] for x in (gain, jam, sig, fade, i))
            snr[fix] = np.where((t == 0) | np.isnan(t), g * p_t, g * (p_t * ii / (ii + t)))
            snr[fix] = np.where(np.isinf(s), np.where(f == 0, 0.0, np.inf), snr[fix])
    return snr


def snr_ab(params: SystemParams) -> float:
    """Received SNR on the protected link: P_T / (1 + rho*P_J) (_snr)."""
    return float(_snr(1.0, params.rho, params.p_t, params.p_j))


def _secrecy_array(a, b, p_t: float, rho: float, p_j, c=1.0, d=1.0, a_t=1.0, b_t=1.0) -> np.ndarray:
    """One-direction secrecy [log2(1+SNR_AB) - log2(1+SNR_AE)]^+ over arrays that broadcast.

    SNR_AB = A~*P_T/(1+rho*B~*P_J) and SNR_AE = C~*a*P_T/(1+D~*b*P_J), both
    from _snr, with (a_t, b_t) the link-side and (c, d) the
    eavesdropper-side fading; all ones is the static secrecy.  p_j is a
    scalar or one power per element.
    """
    snr_ab, snr_ae = _snr(1.0, rho, p_t, p_j, a_t, b_t), _snr(a, b, p_t, p_j, c, d)
    return np.maximum(0.0, (np.log1p(snr_ab) - np.log1p(snr_ae)) / math.log(2.0))


def secrecy_ab(g: LinkGains, params: SystemParams) -> float:
    """Secrecy capacity [C_AB - C_AE]^+ in bits per channel use."""
    return float(_secrecy_array(g.a, g.b, params.p_t, params.rho, params.p_j))


def lambda_factor(g: LinkGains, params: SystemParams) -> float:
    """lambda = (1 + b*P_J) / (a*(1 + rho*P_J)); secrecy is positive iff > 1.

    Taken as (i + b*r)/(a*(i + rho*r)) on the jamming scale (r, i) of
    _jam_scale, which no P_J overflows: P_J = inf is i = 0, and a zero
    denominator gives inf.
    """
    a, b, rho, p_j = g.a, g.b, params.rho, params.p_j
    if math.isinf(a):
        return 0.0
    r, i = map(float, _jam_scale(p_j))
    num = i if p_j == 0 else i + b * r  # guards inf*0 when b is infinite
    return num / den if (den := a * (i + rho * r)) else math.inf


def _gamma_array(a, b, rho: float) -> np.ndarray:
    """gamma = (a - 1)/(b - rho*a) over gain arrays that broadcast; NaN on b = rho*a.

    Limits: b = inf gives 0, and a = inf gives -1/rho (inf at rho = 0,
    where b - rho*a = b).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = (a - 1.0) / (b - rho * a)
    gam = np.where(np.isinf(a), math.inf if rho == 0 else -1.0 / rho, gam)
    return np.where(_sign_array(a, b, rho) == 0, math.nan, np.where(np.isinf(b), 0.0, gam))


def gamma_coeff(g: LinkGains, rho: float) -> float:
    """gamma = (a - 1)/(b - rho*a) (_gamma_array).

    This is the jamming power at which secrecy switches on (sign of b - rho*a
    positive) or off (negative).  On the boundary b = rho*a it diverges with
    opposite signs on the two sides, and UnsupportedRegimeError is raised.
    """
    if sign_b_minus_rho_a(g.a, g.b, rho) == 0:
        raise UnsupportedRegimeError(f"gamma is undefined on b = rho*a, got a={g.a}, b={g.b}, rho={rho}")
    return float(_gamma_array(g.a, g.b, rho))


def positivity(g: LinkGains, params: SystemParams) -> bool:
    """True iff secrecy_ab > 0, decided by sign cases rather than floats.

    Cases: b - rho*a > 0 needs P_J > gamma (automatic when a < 1);
    b = rho*a needs a < 1; b - rho*a < 0 needs a < 1 and P_J < gamma.
    """
    s = sign_b_minus_rho_a(g.a, g.b, params.rho)
    if s == 0:
        return g.a < 1.0
    gam = gamma_coeff(g, params.rho)
    if s > 0:
        return g.a < 1.0 or params.p_j > gam
    return g.a < 1.0 and params.p_j < gam


def zero_region_predicate(g: LinkGains, params: SystemParams) -> bool:
    """Membership in the zero-secrecy set R4 union {R1/R2 with P_J <= gamma}.

    Valid for rho < 2^-alpha (where R3 contains no geometric point) and
    P_J > 0; other regimes raise.
    """
    if not params.rho < 2.0**-params.alpha:
        raise UnsupportedRegimeError(
            f"zero_region_predicate needs rho < 2^-alpha, got rho={params.rho}, alpha={params.alpha}"
        )
    if not params.p_j > 0:
        raise UnsupportedRegimeError("zero_region_predicate needs P_J > 0")
    region = region_classify(g, params.rho)
    if region is Region.R3:
        raise UnsupportedRegimeError("R3 input with rho < 2^-alpha is not a geometric point")
    if region is Region.R4:
        return True
    return params.p_j <= gamma_coeff(g, params.rho)


def _jam_coeffs_array(a, b, rho: float, p_t: float) -> tuple:
    """(c2, c1, c0) of the jamming-power derivative over gain arrays that broadcast.

    Limits: a term with an exactly-zero factor is 0 even against an
    infinite gain or an overflowing a*P_T, as in _snr; that 0*inf is the
    only NaN c2 and c1 can meet, and off a = inf the only one c0 can meet
    (b = rho).  At a = inf, c0 = a*(b + P_T*(b - rho)) - rho is infinite
    with the sign of b + P_T*(b - rho), or -rho where that is 0.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        c2 = rho * b * (b - rho * a)
        c1 = 2.0 * rho * b * (a - 1.0)
        c0 = a * b - rho + np.where(b == rho, 0.0, a * p_t * (b - rho))
    k = b + p_t * (b - rho)
    c0 = np.where(np.isinf(a), np.where(k == 0, -rho, np.copysign(math.inf, k)), c0)
    return np.where(np.isnan(c2), 0.0, c2), np.where(np.isnan(c1), 0.0, c1), c0


def jam_derivative_coeffs(g: LinkGains, rho: float, p_t: float) -> tuple[float, float, float]:
    """(c2, c1, c0) with sign(dS/dP_J) = sign(-c2*P_J^2 + c1*P_J + c0) where S > 0."""
    c2, c1, c0 = _jam_coeffs_array(g.a, g.b, rho, p_t)
    return float(c2), float(c1), float(c0)


@dataclass(frozen=True)
class OptJamResult:
    """Optimal jamming power with the quadratic-root ingredients.

    gamma and beta = c0/c2 diverge with opposite signs on the two sides of
    the boundary b = rho*a, and are NaN there.  At Bob's node both are 0,
    their limits; at Alice's node gamma = -1/rho and
    beta = -(b + P_T*(b - rho))/(rho^2*b).  In R3 and R4 the optimum is
    reported as 0: jamming never helps in R3, and in R4 secrecy is
    identically zero so the cheapest power wins.
    """

    p_j_opt: float
    gamma: float
    beta: float
    region: Region


def _opt_jam_array(a, b, rho: float, p_t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma, beta, p_j_opt) over gain arrays that broadcast.

    p_j_opt = [gamma + sqrt(gamma^2 + beta)]^+ where b - rho*a > 0, clipped
    to 0 in R1 when c0 <= 0; 0 on the b - rho*a <= 0 side (R3/R4) and at
    both nodes (a or b infinite).  beta = c0/c2 off the boundary b = rho*a,
    with the node limits of OptJamResult.
    """
    if rho == 0:
        raise UnboundedOptimumError("rho = 0: secrecy increases in P_J without bound")
    if not (rho > 0 and p_t > 0):
        raise InvalidParameterError(f"opt_jam needs rho > 0 and p_t > 0, got rho={rho}, p_t={p_t}")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gam, s = _gamma_array(a, b, rho), _sign_array(a, b, rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        c2, _, c0 = _jam_coeffs_array(a, b, rho, p_t)
        beta = c0 / c2
        root = gam + np.sqrt(gam * gam + beta)
        beta = np.where(np.isinf(a), -(b + p_t * (b - rho)) / (rho * rho * b), beta)
    beta = np.where(s == 0, math.nan, np.where(np.isinf(b), 0.0, beta))
    p_j_opt = np.where((s > 0) & ~((a < 1.0) & (c0 <= 0)) & ~np.isinf(b), root, 0.0)
    return gam, beta, p_j_opt


def p_j_opt_array(a, b, rho: float, p_t: float) -> np.ndarray:
    """opt_jam's p_j_opt over arrays of gains (_opt_jam_array)."""
    return _opt_jam_array(a, b, rho, p_t)[2]


def _at_optimum(b, p_j_opt):
    """The power at which a quantity is taken at the optimum: p_j_opt, or 0+ at Bob's node.

    With b = inf any positive power silences the eavesdropper, so the
    optimum there is the limit P_J -> 0+ (opt_jam).  The smallest positive
    float makes every kernel take that one-sided limit.
    """
    return np.where(np.isinf(b), np.nextafter(0.0, 1.0), p_j_opt)


def opt_jam(g: LinkGains, rho: float, p_t: float) -> OptJamResult:
    """Jamming power maximizing secrecy_ab for fixed gains.

    Closed form [gamma + sqrt(gamma^2 + beta)]^+ in R1/R2 with the R1 clip
    at c0 <= 0; zero in R3/R4 (_opt_jam_array).  rho = 0 makes secrecy
    strictly increasing in P_J on the positive side, so no finite maximizer
    exists.

    At the nodes p_j_opt is the continuous extension 0.  At Alice's node
    (a = inf) secrecy is 0 at every power.  At Bob's node (b = inf) the
    optimal secrecy is log2(1 + P_T): a supremum, approached as P_J -> 0+
    but not attained, since P_J = 0 leaves the eavesdropper unjammed.
    """
    if not p_t > 0:
        raise InvalidParameterError(f"p_t must be > 0, got {p_t}")
    if not rho >= 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    gam, beta, p_j_opt = (float(v) for v in _opt_jam_array(g.a, g.b, rho, p_t))
    return OptJamResult(p_j_opt=p_j_opt, gamma=gam, beta=beta, region=region_classify(g, rho))


def worst_location(params: SystemParams):
    """Most harmful eavesdropper location outside the exclusion radius.

    Requires delta <= 1, rho below the containment threshold
    delta^alpha/(1+delta)^alpha, and P_J above gamma at the candidate point;
    then the minimizer of secrecy over d_A >= delta is (-delta - 0.5, 0).
    """
    if params.delta > 1:
        raise UnsupportedRegimeError(f"worst_location needs delta <= 1, got {params.delta}")
    thr = region4_containment_threshold(params.delta, params.alpha)
    if not params.rho < thr:
        raise UnsupportedRegimeError(
            f"worst_location needs rho < {thr:.6g}, got {params.rho}"
        )
    loc = EveLocation(-params.delta - 0.5, 0.0)
    gam = gamma_coeff(gains(loc.x, loc.y, params.alpha), params.rho)
    if not params.p_j > gam:
        raise UnsupportedRegimeError(
            f"worst_location needs P_J > gamma = {gam:.6g} at the candidate point, got {params.p_j}"
        )
    return loc
