"""Brute-force numeric oracles used to cross-check every closed form.

Nothing here shares algebra with the formulas under test: the maximizer is
a log-grid plus golden-section search over actual secrecy evaluations, the
wedge probability is a direct 2-D quadrature, and the Monte Carlo oracles
count raw indicator events.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .colluding_fading import v_terms
from .errors import InvalidParameterError
from .geometry import LinkGains, SystemParams
from .montecarlo import Estimate, MCConfig, estimate
from .pairwise_fading import pair_terms

__all__ = [
    "golden_section_max",
    "golden_max_secrecy",
    "quad_prob_zero_pair",
    "quad_policy_row",
    "mc_cond_prob_zero_colluding",
    "mc_cond_prob_zero_pair",
    "deriv_x_axis_even_alpha",
    "central_diff",
    "second_diff",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12, iters: int = 200
) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if hi - lo <= tol * max(1.0, abs(lo) + abs(hi)):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def _secrecy_over_pj(g: LinkGains, rho: float, p_t: float, p_j: np.ndarray) -> np.ndarray:
    """Vectorized secrecy_ab(g, .) over a P_J array, recomputed from raw SNRs."""
    snr_main = p_t / (1.0 + rho * p_j)
    snr_eve = g.a * p_t / (1.0 + g.b * p_j)
    return np.maximum(0.0, (np.log1p(snr_main) - np.log1p(snr_eve)) / math.log(2.0))


def golden_max_secrecy(
    g: LinkGains, rho: float, p_t: float, hi: float = 1e9, grid_points: int = 2000
) -> tuple[float, float]:
    """(argmax, max) of secrecy over P_J in [0, hi]: log grid then refinement.

    The grid pins down the basin (the objective need not be unimodal on the
    whole axis once the positive part clips), the golden section polishes it.
    """
    grid = np.concatenate(([0.0], np.geomspace(1e-6, hi, grid_points)))
    vals = _secrecy_over_pj(g, rho, p_t, grid)
    k = int(np.argmax(vals))
    lo_b = grid[max(0, k - 1)]
    hi_b = grid[min(len(grid) - 1, k + 1)]
    if hi_b <= lo_b:
        hi_b = lo_b + 1.0

    def f(pj: float) -> float:
        return float(_secrecy_over_pj(g, rho, p_t, np.asarray([pj]))[0])

    x, fx = golden_section_max(f, lo_b, hi_b)
    if vals[k] > fx:
        return float(grid[k]), float(vals[k])
    return x, fx


def quad_prob_zero_pair(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float
) -> float:
    """Trapezoid quadrature of the wedge probability, 1e-4 absolute or better.

    Integrates e^-c * (e^-y0(c) - e^-y1(c)) for c from c_min to 40 with
    y0 = u1*c + u2 (lower edge) and y1 = (c - v2)/v1 (upper edge).  A
    geometric cluster of points hugging c_min resolves the boundary layer
    that appears when v1 is tiny.
    """
    t = pair_terms(g, params, a_tilde, b1_tilde, b2_tilde)
    cut = 40.0
    if not math.isfinite(t.c_min) or t.c_min >= cut:
        return 0.0
    base = np.linspace(t.c_min, cut, 20001)
    cluster = t.c_min + np.geomspace(1e-12, min(1.0, cut - t.c_min), 2000)
    x = np.unique(np.concatenate([base, cluster]))
    lower = np.exp(-(t.u1 * x + t.u2))
    if t.v1 > 0:
        upper = np.exp(-np.maximum(0.0, (x - t.v2) / t.v1))
    else:
        upper = np.zeros_like(x)
    integrand = np.exp(-x) * np.maximum(0.0, lower - upper)
    return float(np.trapezoid(integrand, x))


def quad_policy_row(g: LinkGains, params: SystemParams, b1_tilde: float, b2_tilde: float) -> float:
    """E over A~ ~ Exp(1) of P{both phases have zero secrecy | A~, b1_tilde, b2_tilde}.

    The wedge probability at each A~ is the c-integral of
    e^-c*(e^-(u1*c + u2) - e^-((c - v2)/v1)) from the wedge's apex (c*, d*),
    e^-(c* + d*)*(1 - v1*u1)/((1 + u1)*(1 + v1)), with the v's and u's read
    off the two phases' SINRs; it vanishes once v1*u1 >= 1, at A~ = w0.  The
    A~ integral is composite Simpson on two geometric grids of 20001 points,
    one in log(A~) over [1e-15*w0, w0/2] for the boundary layer at A~ = 0
    and one in log(w0 - A~) over the upper half, where e^-(c* + d*) closes
    the wedge within a sliver below w0 at finite P_J.  The piece below 1e-15*w0 is
    taken as its length (the integrand is 1 at A~ = 0); the one above
    w0*(1 - 1e-15) is dropped (the integrand vanishes at w0).
    """
    a, b, rho, p_j = g.a, g.b, params.rho, params.p_j
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("quad_policy_row needs finite gains")
    if math.isinf(p_j):
        r1, r2 = rho * b1_tilde, rho * b2_tilde  # SINR_B = A~*P_T/(r1*P_J)
        w0 = math.sqrt(r1 * r2)
    else:
        q1, q2 = 1.0 + rho * b1_tilde * p_j, 1.0 + rho * b2_tilde * p_j
        w0 = math.sqrt(q1 * q2) / p_j
    if w0 == 0.0:
        return 0.0

    def integrand(x: np.ndarray) -> np.ndarray:
        if math.isinf(p_j):
            v1, v2, u1, u2 = b * x / (a * r1), 0.0, a * x / (b * r2), 0.0
        else:
            v1, v2, u1, u2 = b * x * p_j / (a * q1), x / (a * q1), a * x * p_j / (b * q2), x / (b * q2)
        closing = 1.0 - v1 * u1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            apex = (v2 + v1 * u2 + u2 + u1 * v2) / closing
            prob = np.where(closing > 0.0, np.exp(-apex) * closing / ((1.0 + u1) * (1.0 + v1)), 0.0)
        return np.exp(-x) * prob

    def simpson(f: np.ndarray, h: float) -> float:
        return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())

    s, h = np.linspace(math.log(1e-15 * w0), math.log(0.5 * w0), 20001, retstep=True)
    lower = np.exp(s)
    upper = np.exp(s[::-1])  # w0 - A~, from w0/2 down to 1e-15*w0
    return float(
        lower[0] + simpson(lower * integrand(lower), h) + simpson(upper * integrand(w0 - upper), h)
    )


def mc_cond_prob_zero_colluding(
    g: LinkGains, params: SystemParams, a_tilde: float, b_tilde: float, mc: MCConfig
) -> Estimate:
    """Frequency of the one-phase zero-secrecy event over raw (c, d) draws."""
    t = v_terms(g, params, a_tilde, b_tilde)
    if math.isinf(t.v1):
        return Estimate(0.0, 0.0, mc.n_samples)

    def f(u: np.ndarray) -> np.ndarray:
        return (u[:, 0] >= t.v1 * u[:, 1] + t.v2).astype(float)

    return estimate(f, mc, draws_per_sample=2)


def mc_cond_prob_zero_pair(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float, mc: MCConfig
) -> Estimate:
    """Frequency of the two-phase wedge event over raw (c, d) draws."""
    t = pair_terms(g, params, a_tilde, b1_tilde, b2_tilde)

    def f(u: np.ndarray) -> np.ndarray:
        c, d = u[:, 0], u[:, 1]
        first = c >= t.v1 * d + t.v2 if math.isfinite(t.v1) else d <= 0.0
        second = d >= t.u1 * c + t.u2 if math.isfinite(t.u1) else c <= 0.0
        return (first & second).astype(float)

    return estimate(f, mc, draws_per_sample=2)


def deriv_x_axis_even_alpha(d: float, params: SystemParams) -> float:
    """d/dx of the pair secrecy along y = 0 via the explicit N(d)/D(d) polynomial.

    The compact display assumes even alpha so that (1-d)^alpha is positive
    on both sides of d = 1; an independent cross-check of
    pairwise.deriv_x_axis.
    """
    alpha, p_t, p_j = params.alpha, params.p_t, params.p_j
    if alpha != int(alpha) or int(alpha) % 2:
        raise InvalidParameterError(f"literal polynomial form needs even alpha, got {alpha}")
    if not d > 0 or d == 1.0:
        raise InvalidParameterError(f"axis distance must be > 0 and != 1, got {d}")
    e = d
    f = 1.0 - d

    def pw(base: float, k: float) -> float:
        return base**k

    n = (
        -alpha * p_j * p_t**2 * (pw(e, alpha - 1) - pw(f, alpha - 1)) / (pw(e, 2 * alpha) * pw(f, 2 * alpha))
        + alpha * p_t * (pw(e, alpha + 1) - pw(f, alpha + 1)) / (pw(e, alpha + 1) * pw(f, alpha + 1))
        + 2 * alpha * p_j * p_t * (pw(e, 2 * alpha + 1) - pw(f, 2 * alpha + 1)) / (pw(e, 2 * alpha + 1) * pw(f, 2 * alpha + 1))
        + alpha * p_j**2 * p_t * (
            2 * (pw(e, alpha) - pw(f, alpha)) / (pw(e, 2 * alpha + 1) * pw(f, 2 * alpha + 1))
            + (pw(e, 3 * alpha + 1) - pw(f, 3 * alpha + 1)) / (pw(e, 3 * alpha + 1) * pw(f, 3 * alpha + 1))
        )
        + alpha * p_j**3 * p_t * (pw(e, 2 * alpha) - pw(f, 2 * alpha)) / (pw(e, 3 * alpha + 1) * pw(f, 3 * alpha + 1))
        + alpha * p_t**2 * (2 * d - 1.0) / (pw(e, alpha + 1) * pw(f, alpha + 1))
    )
    dd = (
        (1.0 + p_j / pw(f, alpha) + p_t / pw(e, alpha))
        * (1.0 + p_j / pw(f, alpha))
        * (1.0 + p_j / pw(e, alpha) + p_t / pw(f, alpha))
        * (1.0 + p_j / pw(e, alpha))
    )
    return -0.5 * math.log2(math.e) * n / dd


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
