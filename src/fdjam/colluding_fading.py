"""Zero-secrecy probabilities for colluding eavesdroppers under Rayleigh fading.

Fading factors are unit-mean exponentials: a_tilde on the protected link,
b_tilde on the residual self-interference path (both known to the link and
conditioned upon), c_tilde and d_tilde on the two eavesdropper paths
(unknown, integrated out).  Zero secrecy given (a_tilde, b_tilde) is the
event c_tilde >= v1*d_tilde + v2 over independent Exp(1) pairs, whose
probability is exp(-v2)/(1+v1).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .colluding import _secrecy_array
from .errors import InvalidParameterError
from .geometry import LinkGains, SystemParams, _jam_scale
from .montecarlo import Estimate, MCConfig, estimate, exp_chunks

__all__ = [
    "JamResponseKind",
    "JamResponse",
    "cond_prob_zero",
    "uncond_prob_zero",
    "uncond_upper_bound",
    "sample_cond_prob_zero",
    "classify_jam_response",
    "decreasing_prob_lower_bound",
    "decreasing_prob_complement",
    "rho_for_eta",
    "cdf_lower_bound",
    "secrecy_sample",
]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [-1, 1], the weights within about 2e-14 relative.

    The nodes are numpy's, which leggauss has already polished by a Newton
    step; its weights come from the derivative before that step and are off
    by up to 1.3e-12 relative at 48 nodes.  Here the weights are
    2/((1 - x^2)*P_n'(x)^2) with P_n' from the three-term recurrence at the
    polished nodes.  Each n is computed once, and the read-only arrays are
    shared by the rules built on them.
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


# e^x*E1(x) (_exp_e1): the power series of E1 below _E1_SPLIT (25 terms, highest first,
# for Horner), a backward continued fraction of 96 terms above (_e1_cf).  Against a 60-digit
# evaluation on [1e-3, 20] both were within 3 ulps; the series cancels past x = 1 (up to
# 239 ulps just below 3), and the fraction needs 96 terms there (80 missed by 31 ulps)
_E1_SPLIT = 1.0
_E1_SERIES = tuple((-1.0) ** (k + 1) / (k * math.factorial(k)) for k in range(25, 0, -1))
_E1_CF_TERMS = 96
_EULER_GAMMA = 0.5772156649015329
# The B~ rules of _prob_zero_cubature: Gauss-Legendre nodes on [0, 1]; a cell reports the
# 48-node value, and its gap to the 32-node one as the error
_B_RULE, _B_CHECK_RULE = ((0.5 * (1.0 + x), 0.5 * w) for x, w in map(_gauss_legendre, (48, 32)))
# What the meta of a field from _prob_zero_cubature says of its method (fields.build_field)
_CUBATURE_META = {
    "method": "cubature",
    "rule": "gauss-legendre in B~ on a log map, A~ in closed form",
    "nodes": _B_RULE[0].size,
    "error_nodes": _B_CHECK_RULE[0].size,
}
# Exp(1) variate past which e^-x < 5e-18: the B~ integral here and _policy_integrand's A~ one stop there
_TAIL_CUT = 40.0
# Smallest stretch L = log1p(c*top) of _log_map; below it the map is linear in t to 1e-8
_MIN_STRETCH = 1e-8
# Cells per block of _prob_zero_cubature: its (cells, nodes) temporaries stay near 0.8 MB
_CUBATURE_CELLS = 2048
# Largest c = rho*P_J that sets the scale of _prob_zero_cubature's B~ map; see there
_MAP_C_CAP = 1e6


def cond_prob_zero(g: LinkGains, params: SystemParams, a_tilde: float, b_tilde: float) -> float:
    """P{zero secrecy | a_tilde, b_tilde} = exp(-v2)/(1+v1)."""
    return float(_cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, a_tilde, b_tilde))


def _v_arrays(a, b, rho: float, p_j, a_t, b_t) -> tuple[np.ndarray, np.ndarray]:
    """v1 = b*A~*P_J/(a*(1+rho*B~*P_J)) and v2 = A~/(a*(1+rho*B~*P_J)) over fading arrays.

    The gains and P_J may be arrays that broadcast.  Both are taken on the
    jamming scale of pairwise_fading._wedge_coeffs, r = min(P_J, 1) and
    i = 1/max(P_J, 1): with h = i + rho*B~*r, v1 = b*A~*r/(a*h) and
    v2 = A~/(a*(h/i)).  At P_J <= 1 these are the forms above, no P_J
    overflows them, and where rho*B~ = 0, h/i is exactly 1.

    Limits: a = inf gives (0, 0); P_J = 0 or A~ = 0 drops v1 (also at
    b = inf); P_J = inf is i = 0, which drops v2 where rho*B~ > 0 and
    leaves v1 = b*A~/(a*rho*B~), and where rho*B~ = 0 (h = 0) sends v1 to
    inf and keeps v2 = A~/a.
    """
    a_t, b_t = np.asarray(a_t, dtype=float), np.asarray(b_t, dtype=float)
    r, i = _jam_scale(p_j)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # h/i overflows only where exp(-v2) is 1
        h = i + rho * b_t * r
        v1, v2 = b * a_t * r / (a * h), a_t / (a * (h / i))
    if np.any(i == 0):  # P_J = inf: h/i is 0/0 where h = 0
        v2 = np.where(h == 0, a_t / a, v2)
    if np.any(i == 0) or np.any(np.isinf(b)):  # 0/0 where h = 0, 0*inf where b = inf
        v1 = np.where((p_j == 0) | (a_t == 0), 0.0, v1)
    if np.any(np.isinf(a)):
        v1, v2 = np.where(np.isinf(a), 0.0, v1), np.where(np.isinf(a), 0.0, v2)
    return v1, v2


def _cond_prob_zero_array(a, b, rho: float, p_j, a_t, b_t) -> np.ndarray:
    """exp(-v2)/(1+v1) over fading arrays, with the limits of _v_arrays."""
    v1, v2 = _v_arrays(a, b, rho, p_j, a_t, b_t)
    return np.exp(-v2) / (1.0 + v1)


def _prob_zero_cubature(a, b, rho: float, p_j, upper: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """E over (A~, B~) ~ Exp(1)^2 of exp(-v2)/(1+v1) per cell, and its error; a, b, p_j broadcast.

    On the jamming scale of _v_arrays, r = min(P_J, 1) and i = 1/max(P_J, 1),
    the A~ integral is s/(s+i)*h(x) with s = a*(i + rho*r*B~),
    x = (s+i)/(b*r) and h(x) = x*e^x*E1(x) (_x_exp_e1); no P_J overflows
    s or b*r.  B~ goes over [0, _TAIL_CUT] on the log map B~ = expm1(t*L)/c,
    c = rho*P_J, L = log1p(c*_TAIL_CUT), which spreads the scale 1/c on
    which s moves over the nodes of _B_RULE; the error is the gap to
    _B_CHECK_RULE.  The map's c stops at _MAP_C_CAP: past it the nodes
    still reach below 1/c, what lies under 1/c weighs at most about 1/c,
    and a map spread over log(c*_TAIL_CUT) e-folds left too few nodes where
    the cell has its mass.  Uncapped, the gap to
    oracles.quad_prob_zero_colluding grew from 1.6e-12 at c = 1e5 to 2.6e-7
    at 1e13, and at rho = 0.5, P_J = 1e100 a cell read 1.02; capped, it
    stayed within 2.9e-12 from c = 1e5 to 1e14.  The limits of _v_arrays
    are taken exactly, with error 0: 1 at a = inf, a/(a+1) at P_J = 0, 0 at
    b = inf for P_J > 0, the B~ mean of a constant at rho*P_J = 0, and at
    P_J = inf, where h(kappa*B~) is left with kappa = a*rho/b, its mean
    kappa*(kappa - 1 - ln kappa)/(kappa - 1)^2 (_pj_inf_mean); on 2 000
    random cells the rule at P_J = 1e300 was up to 3.4e-12 off that mean.
    upper=True gives E{1/(1+v1)} instead, the same construction without
    exp(-v2): the A~ integral is h(s/(b*r)).  Against
    oracles.quad_prob_zero_colluding the relative gap is 5e-15 at paper
    settings and 9e-11 at rho = 1, 80 dB.
    """
    shape = np.broadcast(a, b, p_j).shape
    a, b, p_j = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b, p_j))
    r, i = _jam_scale(p_j)
    val, err = np.zeros(a.size), np.zeros(a.size)
    finite = ~np.isinf(a)
    val[~finite] = 1.0
    off = finite & (p_j == 0)
    val[off] = 1.0 if upper else a[off] / (a[off] + 1.0)
    live = finite & (p_j > 0)  # at b = inf, x = 0 and h(0) = 0 give the limit 0
    inf_pj = live & np.isinf(p_j)
    val[inf_pj] = _pj_inf_mean(a[inf_pj] * rho / b[inf_pj])
    live &= ~inf_pj
    flat = live & (rho * r == 0)
    val[flat] = _a_mean(a[flat] * i[flat], i[flat], b[flat] * r[flat], upper)
    idx = np.flatnonzero(live & ~flat)
    for lo in range(0, idx.size, _CUBATURE_CELLS):
        cells = idx[lo : lo + _CUBATURE_CELLS]
        args = (a[cells], i[cells], rho * r[cells], b[cells] * r[cells], upper)
        val[cells] = _on_b_rule(_B_RULE, *args)
        err[cells] = np.abs(val[cells] - _on_b_rule(_B_CHECK_RULE, *args))
    return val.reshape(shape), err.reshape(shape)


def _on_b_rule(
    rule: tuple, a: np.ndarray, i: np.ndarray, rho_r: np.ndarray, b_r: np.ndarray, upper: bool
) -> np.ndarray:
    """The B~ integral of _a_mean per cell on the rule (t, w), through the log map of _prob_zero_cubature."""
    t, w = rule
    stretch, scale = _log_map(np.minimum(rho_r, _MAP_C_CAP * i) / i * _TAIL_CUT, _TAIL_CUT)  # c = rho*P_J, capped
    tl = t * stretch[:, None]  # (cells, nodes)
    b_t = np.expm1(tl) * scale[:, None]
    s = a[:, None] * (i[:, None] + rho_r[:, None] * b_t)
    # e^-B~ times the map's Jacobian over L*scale
    vals = _a_mean(s, i[:, None], b_r[:, None], upper) * np.exp(tl - b_t)
    return (vals * w).sum(axis=1) * (stretch * scale)


def _log_map(ct: np.ndarray, top) -> tuple[np.ndarray, np.ndarray]:
    """(L, 1/c) of the log map x = expm1(t*L)/c from t in [0, 1] onto [0, top], L = log1p(c*top), from ct = c*top.

    The map spreads a scale 1/c near x = 0 over the nodes.  L stops at
    _MIN_STRETCH, below which the map is linear in t to 1e-8, and so does an
    overflowing ct (inf, or NaN from inf/inf): such a map is linear in t.
    """
    stretch = np.maximum(np.log1p(np.where(np.isfinite(ct), ct, 0.0)), _MIN_STRETCH)
    return stretch, top / np.expm1(stretch)


def _a_mean(s, i, b_r, upper: bool) -> np.ndarray:
    """The A~ integral at s = a*(i + rho*r*B~): s/(s+i)*h((s+i)/(b*r)), or h(s/(b*r)) for upper."""
    if upper:
        return _x_exp_e1(s / b_r)
    return s / (s + i) * _x_exp_e1((s + i) / b_r)


def _pj_inf_mean(kappa: np.ndarray) -> np.ndarray:
    """E over B~ ~ Exp(1) of h(kappa*B~), h(x) = x*e^x*E1(x): kappa*(d - ln kappa)/d^2, d = kappa - 1.

    ln kappa is log1p(d) where d is exact (|d| < 1/2) and log(kappa) where
    kappa - 1 would drop digits of kappa.  Near d = 0, where d - ln kappa
    cancels, (d - ln kappa)/d^2 is its series to d^7 (remainder below
    1e-17).  kappa = 0 gives 0 and kappa = inf gives 1.
    """
    d = kappa - 1.0
    near = np.abs(d) < 1e-2
    safe, d = np.where(near, 1.0, d), np.where(near, d, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) and inf/inf, replaced below
        ln_k = np.where(np.abs(safe) < 0.5, np.log1p(safe), np.log(np.where(near, 1.0, kappa)))
        out = kappa / safe * ((safe - ln_k) / safe)
    series = np.zeros_like(d)
    for k in range(9, 1, -1):
        series = series * d + (-1.0) ** k / k
    out = np.where(near, kappa * series, out)
    return np.where(kappa == 0, 0.0, np.where(np.isinf(kappa), 1.0, out))


def _x_exp_e1(x) -> np.ndarray:
    """h(x) = x*e^x*E1(x) for x >= 0: 0 at x = 0, 1 - g from _e1_cf above _E1_SPLIT, 1 at x = inf.

    The series takes the log of x itself down to the least subnormal.
    """
    x = np.asarray(x, dtype=float)
    out, small = np.empty_like(x), x < _E1_SPLIT
    xs = x[small]
    out[small] = xs * _exp_e1(np.maximum(xs, np.finfo(float).smallest_subnormal))
    out[~small] = 1.0 - _e1_cf(x[~small])[1]
    return out


def _e1_cf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) = (e^x*E1(x), 1 - x*e^x*E1(x)) for x >= _E1_SPLIT, by the backward continued fraction.

    f = 1/(x + 1 - R), R = 1/(x + 3 - 4/(x + 5 - ...)), and g = (1 - R)*f,
    which has no cancellation.
    """
    tail = 0.0
    for k in range(_E1_CF_TERMS, 0, -1):
        tail = k * k / (x + (2 * k + 1) - tail)
    f = 1.0 / (x + 1.0 - tail)
    return f, (1.0 - tail) * f


def _exp_e1(x) -> np.ndarray:
    """e^x*E1(x) for x > 0, E1 the exponential integral int_x^inf e^-t/t dt.

    Below _E1_SPLIT: e^x*(-gamma - log(x) - sum_k (-x)^k/(k*k!)); above it
    the continued fraction of _e1_cf.  The result has the shape of x
    and is an ndarray also for 0-d x.
    """
    x = np.asarray(x, dtype=float)
    return np.asarray(_piecewise(x < _E1_SPLIT, _e1_series, lambda xl: _e1_cf(xl)[0], x))


def _e1_series(x: np.ndarray) -> np.ndarray:
    """e^x*E1(x) below _E1_SPLIT by the power series, its Horner sum started at the highest term."""
    poly = _E1_SERIES[0] * x
    for coeff in _E1_SERIES[1:]:
        poly += coeff
        poly *= x
    return np.exp(x) * (poly - _EULER_GAMMA - np.log(x))


def _piecewise(mask: np.ndarray, on: Callable, off: Callable, *args: np.ndarray) -> np.ndarray:
    """on(*args) where mask holds and off(*args) elsewhere, each called on its own elements of args.

    Where mask holds everywhere (an empty mask too) or nowhere, the arrays
    go to on or off as they are, with no gather and no scatter.
    """
    if mask.all():
        return on(*args)
    if not mask.any():
        return off(*args)
    out = np.empty(mask.shape)
    out[mask] = on(*(x[mask] for x in args))
    out[~mask] = off(*(x[~mask] for x in args))
    return out


def sample_cond_prob_zero(g: LinkGains, params: SystemParams, mc: MCConfig) -> np.ndarray:
    """Conditional zero-secrecy probabilities over sampled (a_tilde, b_tilde), in stream order.

    The stream is read in exp_chunks' blocks and the kernel works element
    by element, so the values do not depend on _BLOCK and only the output
    grows with n.
    """
    out, done = np.empty(mc.n_samples), 0
    for u in exp_chunks(mc, 2):
        out[done : done + u.shape[0]] = _cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, u[:, 0], u[:, 1])
        done += u.shape[0]
    return out


def uncond_prob_zero(g: LinkGains, params: SystemParams, mc: MCConfig) -> Estimate:
    """Monte Carlo mean of cond_prob_zero over (a_tilde, b_tilde) ~ Exp(1)^2."""
    return estimate(
        lambda u: _cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, u[:, 0], u[:, 1]),
        mc,
        draws_per_sample=2,
    )


def uncond_upper_bound(g: LinkGains, params: SystemParams, mc: MCConfig) -> Estimate:
    """Estimate of E{1/(1+v1)}, which dominates uncond_prob_zero samplewise."""

    def f(u: np.ndarray) -> np.ndarray:
        v1, _ = _v_arrays(g.a, g.b, params.rho, params.p_j, u[:, 0], u[:, 1])
        return 1.0 / (1.0 + v1)

    return estimate(f, mc, draws_per_sample=2)


class JamResponseKind(enum.Enum):
    OPTIMAL_INFINITE = "optimal-infinite"
    OPTIMAL_FINITE = "optimal-finite"
    OPTIMAL_ZERO = "optimal-zero"


@dataclass(frozen=True)
class JamResponse:
    kind: JamResponseKind
    p_j_opt: float  # inf / positive value / 0 respectively


def classify_jam_response(g: LinkGains, rho: float, a_tilde: float, b_tilde: float) -> JamResponse:
    """How the conditional zero-secrecy probability responds to P_J.

    With a0 = a(b - rho*B~) and a1 = rho*B~[a(b - rho*B~) - b*A~], the sign
    of d/dP_J of cond_prob_zero is -(a0 + a1*P_J): a0 > 0 with a1 >= 0 means
    larger is always better (optimal-infinite); a0 > 0 with a1 < 0 gives the
    interior minimizer a0/(-a1); a0 <= 0 means jamming only hurts.

    At an endpoint node a product with an exactly-zero factor is 0, and the
    rest are the limits along the infinite gain: at b = inf the bracket of
    a1 is regrouped as b*(a - A~) - a*rho*B~, and the minimizer a0/(-a1)
    tends to a/(rho*B~*(A~ - a)); where it diverges the response is
    optimal-infinite.
    """
    if not rho > 0:
        raise InvalidParameterError(f"classify_jam_response needs rho > 0, got {rho}")
    a, b = g.a, g.b
    a0 = _times(a, b - rho * b_tilde)
    if math.isinf(b):
        bracket = _times(b, a - a_tilde) - a * rho * b_tilde
    else:
        bracket = a0 - b * a_tilde
    a1 = _times(rho * b_tilde, bracket)
    if a0 > 0 and a1 >= 0:
        return JamResponse(JamResponseKind.OPTIMAL_INFINITE, math.inf)
    if a0 > 0:
        p_j_opt = a / (rho * b_tilde * (a_tilde - a)) if math.isinf(a1) else a0 / -a1
        if math.isinf(p_j_opt):
            return JamResponse(JamResponseKind.OPTIMAL_INFINITE, math.inf)
        return JamResponse(JamResponseKind.OPTIMAL_FINITE, p_j_opt)
    return JamResponse(JamResponseKind.OPTIMAL_ZERO, 0.0)


def _times(x: float, y: float) -> float:
    """x*y, with 0 wherever a factor is exactly 0, also against an infinite one."""
    return 0.0 if x == 0 or y == 0 else x * y


def rho_for_eta(a: float, b: float, eta: float) -> float:
    """rho making b/(rho*a) equal eta: 0 at a = inf or eta = inf, inf at b = inf.

    b = inf with eta = inf has no single answer and raises.
    """
    if not eta > 0:
        raise InvalidParameterError(f"eta must be > 0, got {eta}")
    if math.isinf(b) and math.isinf(eta):
        raise InvalidParameterError("rho_for_eta is undefined at b = inf with eta = inf")
    return b / (eta * a)


def decreasing_prob_complement(a: float, b: float, rho: float) -> float:
    """The gap 1 - decreasing_prob_lower_bound, evaluated in log space.

    With eta = b/(rho*a) and delta = eta - 1 the complement is
    exp(-a) * (1 - expm1(-delta*a)/delta), which stays exact to several
    digits even when it is ~1e-42; the eta = 1 limit is (1+a)exp(-a).
    Below eta = 1 the same sum of positive terms is
    exp(-a) - exp(-eta*a)*expm1(delta*a)/(-delta), where expm1(-delta*a)
    would overflow past a ~ 709.
    """
    if not a > 0:
        raise InvalidParameterError(f"a must be > 0, got {a}")
    if math.isinf(a):
        return 0.0
    eta = math.inf if rho == 0 or math.isinf(b) else b / (rho * a)
    if eta <= 0:
        raise InvalidParameterError("b and rho must make eta = b/(rho*a) positive")
    if eta == 1.0:
        return math.exp(math.log1p(a) - a)
    delta = eta - 1.0
    if delta < 0:
        return math.exp(-a) - math.exp(-eta * a) * math.expm1(delta * a) / -delta
    factor = 1.0 - math.expm1(-delta * a) / delta if not math.isinf(delta) else 1.0
    # factor > 0 for all delta > -1, so the log-space route is always open
    return math.exp(-a + math.log(factor))


def decreasing_prob_lower_bound(a: float, b: float, rho: float) -> float:
    """Probability of the fading event {A~ < a, B~ < (b/rho)(1 - A~/a)}.

    On that event the conditional zero-secrecy probability decreases in P_J
    for every P_J (optimal-infinite response), so this lower-bounds the
    probability of a decreasing response.  Closed form
    1 - (1/(eta-1))*(eta*exp(-a) - exp(-eta*a)) with eta = b/(rho*a);
    equals 1 at a = inf and 1 - exp(-a) at eta = inf.
    """
    return 1.0 - decreasing_prob_complement(a, b, rho)


def cdf_lower_bound(p: float, a: float, b: float, rho: float, p_j: float) -> float:
    """Lower bound on the CDF of cond_prob_zero at level p.

    exp(-a(1-p)/(b*P_J*p)) * b*p/(b*p + a*rho*(1-p)); the exponential factor
    disappears at P_J = inf, where the bound is the exact CDF.  Its limits
    at the endpoint nodes: 1 at b = inf (Eve on the jammer, where the
    conditional probability is 0) and 0 at a = inf below p = 1 (Eve on the
    transmitter, where it is 1).  Where both terms of the second factor
    underflow, it is 1/(1 + x), x = a*rho*(1 - p)/(b*p) taken from logs: its
    limit 1 at rho = 0.  Where b*P_J*p underflows, the exponent is taken
    from logs, and past e^7 its factor is 0.
    """
    if not 0 < p <= 1:
        raise InvalidParameterError(f"p must be in (0, 1], got {p}")
    if not p_j > 0:
        raise InvalidParameterError(f"cdf_lower_bound needs P_J > 0, got {p_j}")
    if not a > 0 or not b > 0:
        raise InvalidParameterError("gains must be > 0")
    if p == 1.0 or math.isinf(b):
        return 1.0
    if math.isinf(a):
        return 0.0
    if (den := b * p + a * rho * (1.0 - p)) > 0.0:
        tail = b * p / den
    else:  # 1/(1 + e^x) as e^-m/(e^-m + e^(x - m)), m = max(x, 0), which no x overflows
        x = math.log(a) + (math.log(rho) if rho else -math.inf) + math.log1p(-p) - math.log(b) - math.log(p)
        tail = math.exp(-max(x, 0.0)) / (math.exp(-max(x, 0.0)) + math.exp(min(x, 0.0)))
    if (den := b * p_j * p) > 0.0:
        return math.exp(-a * (1.0 - p) / den) * tail
    log_x = math.log(a) + math.log1p(-p) - math.log(b) - math.log(p_j) - math.log(p)
    return math.exp(-math.exp(min(log_x, 7.0))) * tail


def secrecy_sample(
    g: LinkGains,
    params: SystemParams,
    c_tilde: float,
    d_tilde: float,
    a_tilde: float = 1.0,
    b_tilde: float = 1.0,
) -> float:
    """One fading realization of the secrecy capacity, in bits.

    SNR_AB = A~*P_T/(1+rho*B~*P_J) and SNR_AE = C~*a*P_T/(1+D~*b*P_J).
    """
    return float(_secrecy_array(g.a, g.b, params.p_t, params.rho, params.p_j, c_tilde, d_tilde, a_tilde, b_tilde))
