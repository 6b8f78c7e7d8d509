"""Brute-force numeric oracles used to cross-check every closed form.

Nothing here shares algebra with the formulas under test: the maximizer is
the best point of a log grid of actual secrecy evaluations, refined by the
bisected zero of the secrecy's slope taken from the raw SNRs, the
wedge probability is a direct 2-D quadrature, the colluding outage is a
2-D quadrature over both link fadings, and the Monte Carlo oracles count
raw indicator events.  Every zero-secrecy event is read off the SINRs here
(_eve_line), and nothing is imported from the modules of the closed forms.
"""

from __future__ import annotations

import decimal
import math
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError
from .geometry import LinkGains, SystemParams
from .montecarlo import Estimate, MCConfig, estimate

__all__ = [
    "golden_max_secrecy",
    "bisect_max_secrecy",
    "quad_prob_zero_pair",
    "quad_policy_row",
    "quad_prob_zero_colluding",
    "mc_cond_prob_zero_colluding",
    "mc_cond_prob_zero_pair",
    "deriv_x_axis_even_alpha",
    "central_diff",
    "second_diff",
]

_GRID_ROWS = 1000  # lanes per block of _search's (lanes, grid) table, which stays near 16 MB
_GRID = np.concatenate(([0.0], np.geomspace(1e-6, 1e9, 2000)))  # the P_J grid of the maximizers
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)  # per panel of quad_prob_zero_colluding


def _secrecy_over_pj(g: LinkGains, rho, p_t, p_j: np.ndarray) -> np.ndarray:
    """Vectorized secrecy_ab(g, .) over a P_J array, recomputed from raw SNRs.

    Only g.a and g.b are read; they, rho and p_t may be arrays that broadcast
    against p_j.
    """
    snr_main = p_t / (1.0 + rho * p_j)
    snr_eve = g.a * p_t / (1.0 + g.b * p_j)
    return np.maximum(0.0, (np.log1p(snr_main) - np.log1p(snr_eve)) / math.log(2.0))


def _search(g, rho, p_t) -> tuple:
    """(one, x, s, interior): per lane the best point of _GRID, refined by the bisected zero of the slope.

    g is one LinkGains, or a sequence of them run as lanes with rho and p_t
    scalars or one per lane.  The grid pins down the basin (the objective
    need not be unimodal on the whole axis once the positive part clips).
    With SNR_AB = P_T/(1 + rho*P_J) and SNR_AE = a*P_T/(1 + b*P_J), each
    rate falls as its receiver's jamming grows, and in nats
    dS/dP_J = b*SNR_AE/((1 + b*P_J)*(1 + SNR_AE)) - rho*SNR_AB/((1 + rho*P_J)*(1 + SNR_AB)).
    The bracket is the two grid cells around the lane's grid maximum, and
    100 halvings take it to adjacent floats.  A lane is interior where the
    secrecy there is positive and the slope falls from + to - across the
    bracket; x is its root there and the grid maximum elsewhere (an end of
    the grid, or zero secrecy), and s the secrecy at x.
    """
    one = isinstance(g, LinkGains)
    gs = [g] if one else list(g)
    a, b = np.array([x.a for x in gs]), np.array([x.b for x in gs])
    rho, p_t = (np.broadcast_to(np.asarray(v, dtype=float), (len(gs),)) for v in (rho, p_t))
    k, at_k = np.empty(len(gs), dtype=int), np.empty(len(gs))
    for start in range(0, len(gs), _GRID_ROWS):
        blk = slice(start, start + _GRID_ROWS)
        vals = _secrecy_over_pj(SimpleNamespace(a=a[blk, None], b=b[blk, None]), rho[blk, None], p_t[blk, None], _GRID)
        k[blk], at_k[blk] = np.argmax(vals, axis=1), vals.max(axis=1)
    lo, hi = _GRID[np.maximum(k - 1, 0)], _GRID[np.minimum(k + 1, _GRID.size - 1)]

    def slope(pj: np.ndarray) -> np.ndarray:
        snr_main, snr_eve = p_t / (1.0 + rho * pj), a * p_t / (1.0 + b * pj)
        return b * snr_eve / ((1.0 + b * pj) * (1.0 + snr_eve)) - rho * snr_main / ((1.0 + rho * pj) * (1.0 + snr_main))

    interior = (at_k > 0.0) & (slope(lo) > 0.0) & (slope(hi) < 0.0)
    for _ in range(100):
        rise = slope(mid := 0.5 * (lo + hi)) > 0.0
        lo, hi = np.where(rise, mid, lo), np.where(rise, hi, mid)
    x = np.where(interior, 0.5 * (lo + hi), _GRID[k])
    s = np.where(interior, _secrecy_over_pj(SimpleNamespace(a=a, b=b), rho, p_t, x), at_k)
    return one, x, s, interior


def golden_max_secrecy(
    g: LinkGains | Sequence[LinkGains], rho, p_t
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """(argmax, max) of secrecy over P_J in [0, 1e9]: _search's root, or its grid point where there is none.

    g is one LinkGains, or a sequence of them run as lanes with rho and p_t
    scalars or one per lane; lanes give two arrays, each entry equal to the
    lane's own scalar call.
    """
    one, x, s, _ = _search(g, rho, p_t)
    return (float(x[0]), float(s[0])) if one else (x, s)


def bisect_max_secrecy(g: LinkGains | Sequence[LinkGains], rho, p_t) -> float | np.ndarray:
    """The interior maximizer of secrecy over P_J, _search's zero of the slope; NaN where there is none.

    Lanes as in golden_max_secrecy: one LinkGains gives a float, a sequence
    an array.
    """
    one, x, _, interior = _search(g, rho, p_t)
    root = np.where(interior, x, math.nan)
    return float(root[0]) if one else root


def _eve_line(sig: float, jam: float, rho: float, p_j: float, a_t, b_t: float) -> tuple[np.ndarray, np.ndarray]:
    """(v1, v2): one phase has zero secrecy iff Eve's fadings satisfy c >= v1*d + v2.

    Per unit of P_T, which scales both SINRs, the link's is
    A~/(1 + rho*B~*P_J) and Eve's c*sig/(1 + d*jam*P_J), c fading her path
    from the sender (gain sig) and d hers from the jammer (gain jam).  Hers
    reaches the link's iff c >= v2*(1 + d*jam*P_J), v2 = link/sig.  At
    P_J = inf a jammed link's SINR falls as 1/P_J like Eve's, and P_J times
    each compares A~/(rho*B~) with c*sig/(d*jam): v2 = 0.  A product with a
    zero factor is 0, also against an infinite one (no signal, no jamming,
    Eve on the sender); v1 = inf leaves only d = 0.  a_t may be an array.
    """
    a_t = np.asarray(a_t, dtype=float)
    with np.errstate(invalid="ignore"):  # 0*inf, replaced by 0
        if math.isinf(p_j) and rho * b_t > 0:
            return np.where(a_t > 0, a_t / (rho * b_t * sig) * jam, 0.0), np.zeros_like(a_t)
        v2 = (a_t / (1.0 + rho * b_t * p_j) if rho * b_t > 0 else a_t) / sig
        return np.where(v2 > 0, v2 * (jam * p_j if p_j > 0 else 0.0), 0.0), v2


def _wedge_edges(a: float, b: float, rho: float, p_j: float, a_t, b1_t: float, b2_t: float) -> tuple:
    """(v1, v2, u1, u2, c_min): the wedge where both phases have zero secrecy, for finite gains.

    The A->B phase fails on c >= v1*d + v2 (B1~) and the B->A phase, the
    gains and Eve's fadings swapped, on d >= u1*c + u2 (B2~), both by
    _eve_line.  Where v1*u1 < 1 the edges meet at the apex
    (c_min, u1*c_min + u2); elsewhere the wedge is empty and c_min = inf.
    """
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("the wedge oracles need finite gains")
    v1, v2 = _eve_line(a, b, rho, p_j, a_t, b1_t)
    u1, u2 = _eve_line(b, a, rho, p_j, a_t, b2_t)
    with np.errstate(divide="ignore", invalid="ignore"):  # an infinite slope: the wedge is empty
        closing = 1.0 - v1 * u1
        return v1, v2, u1, u2, np.where(closing > 0.0, (v2 + v1 * u2) / closing, np.inf)


def quad_prob_zero_pair(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float
) -> float:
    """Trapezoid quadrature of the wedge probability, 1e-4 absolute or better.

    Integrates e^-c * (e^-y0(c) - e^-y1(c)) for c from c_min to 40 with
    y0 = u1*c + u2 (lower edge) and y1 = (c - v2)/v1 (upper edge), the
    edges of _wedge_edges.  A geometric cluster of points hugging c_min
    resolves the boundary layer that appears when v1 is tiny.
    """
    v1, v2, u1, u2, c_min = map(float, _wedge_edges(g.a, g.b, params.rho, params.p_j, a_tilde, b1_tilde, b2_tilde))
    cut = 40.0
    if not math.isfinite(c_min) or c_min >= cut:
        return 0.0
    base = np.linspace(c_min, cut, 20001)
    cluster = c_min + np.geomspace(1e-12, min(1.0, cut - c_min), 2000)
    x = np.unique(np.concatenate([base, cluster]))
    lower = np.exp(-(u1 * x + u2))
    if v1 > 0:
        upper = np.exp(-np.maximum(0.0, (x - v2) / v1))
    else:
        upper = np.zeros_like(x)
    integrand = np.exp(-x) * np.maximum(0.0, lower - upper)
    return float(np.trapezoid(integrand, x))


def quad_policy_row(g: LinkGains, params: SystemParams, b1_tilde: float, b2_tilde: float) -> float:
    """E over A~ ~ Exp(1) of P{both phases have zero secrecy | A~, b1_tilde, b2_tilde}.

    The wedge probability at each A~ is the c-integral of
    e^-c*(e^-(u1*c + u2) - e^-((c - v2)/v1)) from the wedge's apex (c*, d*),
    e^-(c* + d*)*(1 - v1*u1)/((1 + u1)*(1 + v1)), with the edges of
    _wedge_edges; it vanishes once v1*u1 >= 1, at A~ = w0.  The
    A~ integral is composite Simpson on two geometric grids of 20001 points,
    one in log(A~) over [lo, w0/2] for the boundary layer at A~ = 0 and one
    in log(w0 - A~) over the upper half, where e^-(c* + d*) closes the wedge
    within a sliver below w0 at finite P_J.  lo is 1e-15 times the least of
    w0 and the A~ at which v1 or u1 reaches 1, the scales of that layer; the
    piece below lo is taken as its length (the integrand is 1 at A~ = 0),
    and the one above w0 - 1e-15*w0 is dropped (the integrand vanishes at w0).
    Per unit of P_J the jammed link's noise is h = 1/P_J + rho*B~ (rho*B~ at
    P_J = inf), so w0 = sqrt(h1)*sqrt(h2), each root taken alone so that no
    product of the h's overflows or underflows.  Needs finite gains and
    P_J > 0: without jamming the window is the whole half-line.
    """
    a, b, rho, p_j = g.a, g.b, params.rho, params.p_j
    if math.isinf(a) or math.isinf(b) or not p_j > 0:
        raise InvalidParameterError(f"quad_policy_row needs finite gains and P_J > 0, got P_J = {p_j}")
    h1, h2 = 1.0 / p_j + rho * b1_tilde, 1.0 / p_j + rho * b2_tilde
    w0 = math.sqrt(h1) * math.sqrt(h2)
    layers = (a * h1 / b, b * h2 / a)
    if w0 == 0.0:
        return 0.0
    lo = 1e-15 * min(w0, *layers)

    def integrand(x: np.ndarray) -> np.ndarray:
        v1, _, u1, u2, c_min = _wedge_edges(a, b, rho, p_j, x, b1_tilde, b2_tilde)
        closing = 1.0 - v1 * u1
        prob = np.exp(-(c_min * (1.0 + u1) + u2)) * closing / ((1.0 + u1) * (1.0 + v1))
        return np.exp(-x) * np.where(closing > 0.0, prob, 0.0)

    def simpson(f: np.ndarray, h: float) -> float:
        return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())

    s, h = np.linspace(math.log(lo), math.log(0.5 * w0), 20001, retstep=True)
    lower = np.exp(s)
    s, h_up = np.linspace(math.log(1e-15 * w0), math.log(0.5 * w0), 20001, retstep=True)
    upper = np.exp(s[::-1])  # w0 - A~, from w0/2 down to 1e-15*w0
    return float(
        lower[0] + simpson(lower * integrand(lower), h) + simpson(upper * integrand(w0 - upper), h_up)
    )


def quad_prob_zero_colluding(g: LinkGains, params: SystemParams) -> float:
    """E over (A~, B~) ~ Exp(1)^2 of P{zero secrecy | A~, B~} against colluding eavesdroppers.

    Given the link fadings, secrecy is zero when C~*a*P_T/(1 + D~*b*P_J) >=
    A~*P_T/(1 + rho*B~*P_J) over Exp(1) (C~, D~); with theta =
    A~/(a*(1 + rho*B~*P_J)) and m = theta*b*P_J its D~-mean is
    exp(-theta)/(1 + m), and at P_J = inf theta = 0 and m =
    A~*b/(a*rho*B~).  Both integrals are composite 16-node Gauss-Legendre
    rules on panels: geometric, ratio at most 4, from a quarter of the
    layer scale to 1, then width 4 up to 61 e-folds of the decay.  In B~ the
    layer scale is 1/(rho*P_J), where 1 + rho*B~*P_J vanishes, and 1e-15 at
    P_J = inf, where the A~ integral has a log branch at B~ = 0; in A~ it is
    the pole of 1/(1 + m), on the scale of e^-(A~ + theta), per B~ node.
    Needs finite gains.
    """
    a, b, rho, p_j = g.a, g.b, params.rho, params.p_j
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("quad_prob_zero_colluding needs finite gains")
    if math.isinf(p_j) and rho == 0:
        return 0.0  # the jamming drowns the eavesdropper and spares the link
    layer = 1e-15 if math.isinf(p_j) else 0.25 / max(1.0, rho * p_j)
    b_t, b_w = _panel_rule(np.array([layer]))
    b_t, b_w = b_t[0], b_w[0]
    if math.isinf(p_j):
        theta_per_a, m_per_a = np.zeros_like(b_t), b / (a * rho * b_t)
    else:
        theta_per_a = 1.0 / (a * (1.0 + rho * b_t * p_j))
        m_per_a = theta_per_a * b * p_j
    rate = 1.0 + theta_per_a  # e^-(A~ + theta) = e^-(rate*A~)
    with np.errstate(divide="ignore"):
        u, w = _panel_rule(0.25 * np.minimum(1.0, rate / m_per_a))  # u = rate*A~
    a_t = u / rate[:, None]
    inner = (np.exp(-u) / (1.0 + m_per_a[:, None] * a_t) * w).sum(axis=1) / rate
    return float((np.exp(-b_t) * inner * b_w).sum())


def _panel_rule(layer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights over [0, 61] per row of layer: panels of quad_prob_zero_colluding.

    [0, layer], then as many geometric panels to 1 as the smallest layer
    needs at ratio 4 (shared by every row), then width 4 to 61.
    """
    count = max(1, math.ceil(math.log(1.0 / layer.min()) / math.log(4.0)))
    steps = np.arange(count + 1) / count
    geometric = layer[:, None] ** (1.0 - steps)  # layer .. 1
    linear = np.broadcast_to(np.arange(5.0, 62.0, 4.0), (layer.size, 15))
    edges = np.concatenate((np.zeros((layer.size, 1)), geometric, linear), axis=1)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    nodes = edges[:, :-1, None] + half * (1.0 + _GL16_X)
    return nodes.reshape(layer.size, -1), (half * _GL16_W).reshape(layer.size, -1)


def mc_cond_prob_zero_colluding(
    g: LinkGains, params: SystemParams, a_tilde: float, b_tilde: float, mc: MCConfig
) -> Estimate:
    """Frequency over raw (c, d) draws of Eve's SINR reaching the link's (_eve_line).

    v1 = inf leaves only d = 0, of probability 0, and draws nothing.
    """
    v1, v2 = map(float, _eve_line(g.a, g.b, params.rho, params.p_j, a_tilde, b_tilde))
    if math.isinf(v1):
        return Estimate(0.0, 0.0, mc.n_samples)
    return estimate(lambda u: (u[:, 0] >= v1 * u[:, 1] + v2).astype(float), mc, draws_per_sample=2)


def mc_cond_prob_zero_pair(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float, mc: MCConfig
) -> Estimate:
    """Frequency over raw (c, d) draws of both phases' events (_wedge_edges), for finite gains.

    An infinite slope leaves only c = 0 or d = 0, of probability 0, and draws nothing.
    """
    v1, v2, u1, u2, _ = map(float, _wedge_edges(g.a, g.b, params.rho, params.p_j, a_tilde, b1_tilde, b2_tilde))
    if math.isinf(v1) or math.isinf(u1):
        return Estimate(0.0, 0.0, mc.n_samples)

    def f(u: np.ndarray) -> np.ndarray:
        c, d = u[:, 0], u[:, 1]
        return ((c >= v1 * d + v2) & (d >= u1 * c + u2)).astype(float)

    return estimate(f, mc, draws_per_sample=2)


def deriv_x_axis_even_alpha(d: float, params: SystemParams) -> float:
    """d/dx of the pair secrecy along y = 0 via the explicit N(d)/D(d) polynomial.

    The compact display assumes even alpha so that (1-d)^alpha is positive
    on both sides of d = 1; an independent cross-check of
    pairwise.deriv_x_axis.  The polynomial is evaluated in 40-digit decimal
    arithmetic, whose exponent range holds its powers of P_J and 1/(1-d)
    where floats overflow (P_J^3/(1-d)^(3*alpha+1) near Bob's node).
    """
    if params.alpha != int(params.alpha) or int(params.alpha) % 2:
        raise InvalidParameterError(f"literal polynomial form needs even alpha, got {params.alpha}")
    if not d > 0 or d == 1.0:
        raise InvalidParameterError(f"axis distance must be > 0 and != 1, got {d}")
    with decimal.localcontext(decimal.Context(prec=40, traps=[])):  # inf/inf gives NaN, as in floats
        n, dd = _axis_polynomial(int(params.alpha), *map(decimal.Decimal, (params.p_t, params.p_j, d)))
        return -0.5 * math.log2(math.e) * float(n / dd)


def _axis_polynomial(alpha: int, p_t, p_j, d) -> tuple:
    """(N(d), D(d)) of deriv_x_axis_even_alpha, in the arithmetic of the given numbers."""
    e = d
    f = 1 - d
    n = (
        -alpha * p_j * p_t**2 * (e ** (alpha - 1) - f ** (alpha - 1)) / (e ** (2 * alpha) * f ** (2 * alpha))
        + alpha * p_t * (e ** (alpha + 1) - f ** (alpha + 1)) / (e ** (alpha + 1) * f ** (alpha + 1))
        + 2 * alpha * p_j * p_t * (e ** (2 * alpha + 1) - f ** (2 * alpha + 1)) / (e ** (2 * alpha + 1) * f ** (2 * alpha + 1))
        + alpha * p_j**2 * p_t * (
            2 * (e**alpha - f**alpha) / (e ** (2 * alpha + 1) * f ** (2 * alpha + 1))
            + (e ** (3 * alpha + 1) - f ** (3 * alpha + 1)) / (e ** (3 * alpha + 1) * f ** (3 * alpha + 1))
        )
        + alpha * p_j**3 * p_t * (e ** (2 * alpha) - f ** (2 * alpha)) / (e ** (3 * alpha + 1) * f ** (3 * alpha + 1))
        + alpha * p_t**2 * (2 * d - 1) / (e ** (alpha + 1) * f ** (alpha + 1))
    )
    dd = (
        (1 + p_j / f**alpha + p_t / e**alpha)
        * (1 + p_j / f**alpha)
        * (1 + p_j / e**alpha + p_t / f**alpha)
        * (1 + p_j / e**alpha)
    )
    return n, dd


def central_diff(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f: Callable[[float], float], x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
