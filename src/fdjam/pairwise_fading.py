"""Zero-secrecy probabilities and jamming policies for the dual-phase link under fading.

The protected-link fading a_tilde is shared by both phases (reciprocity);
b1_tilde and b2_tilde are the self-interference fadings at the two jamming
receivers; c_tilde and d_tilde are the unknown eavesdropper-path fadings.
Zero secrecy in both phases is the wedge event
{c >= v1*d + v2} and {d >= u1*c + u2} over independent Exp(1) (c, d), whose
probability collapses to K*exp(-E) when w1 > 0 and to 0 otherwise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .pairwise import _secrecy_pair_array
from .errors import InvalidParameterError
from .geometry import LinkGains, SystemParams
from .montecarlo import Estimate, MCConfig, estimate, sample_matrix

__all__ = [
    "FadingSamplePair",
    "ZeroSecrecyTermsPair",
    "JamPolicyKind",
    "JamPolicy",
    "PolicyReport",
    "pair_terms",
    "cond_prob_zero_pair",
    "cond_prob_zero_pair_array",
    "prob_zero_nojam",
    "prob_zero_nojam_origin",
    "eve_at_node_prob",
    "pj_star",
    "policy_prob_zero",
    "p1_bound",
    "p2_bound",
    "semi_dynamic_cap",
    "homogeneous_secrecy",
    "homogeneous_tail_bound",
    "secrecy_sample_pair",
]

# 48 Gauss-Legendre nodes moved from [-1, 1] to t in [0, 1] by t = 1 - ((1 - x)/2)^2,
# which crowds them towards t = 1, where the wedge closes (_policy_integrand)
_GL_X, _GL_WX = np.polynomial.legendre.leggauss(48)
_GL_T, _GL_W = 1.0 - (0.5 * (1.0 - _GL_X)) ** 2, 0.5 * (1.0 - _GL_X) * _GL_WX


@dataclass(frozen=True)
class FadingSamplePair:
    a_tilde: float
    b1_tilde: float
    b2_tilde: float
    c_tilde: float
    d_tilde: float

    def __post_init__(self) -> None:
        for name in ("a_tilde", "b1_tilde", "b2_tilde", "c_tilde", "d_tilde"):
            if not getattr(self, name) >= 0:
                raise InvalidParameterError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ZeroSecrecyTermsPair:
    """All intermediates of the two-phase wedge probability.

    c_min is the smallest c for which the wedge has positive d-width; the
    wedge is empty (probability zero without integrating) when v1*u1 >= 1.
    At infinite P_J the w's diverge while k and e_exp keep their limits, so
    the w fields are reported as inf there.
    """

    v1: float
    v2: float
    u1: float
    u2: float
    c_min: float
    k: float
    e_exp: float
    w1: float
    w2: float
    w3: float


def pair_terms(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float
) -> ZeroSecrecyTermsPair:
    a, b, rho, p_j = g.a, g.b, params.rho, params.p_j
    if math.isinf(a) or math.isinf(b):
        raise InvalidParameterError("pair_terms needs finite gains; use the node limit results")
    if math.isinf(p_j):
        r1 = rho * b1_tilde
        r2 = rho * b2_tilde
        v1 = b * a_tilde / (a * r1) if r1 > 0 else (math.inf if a_tilde > 0 else 0.0)
        u1 = a * a_tilde / (b * r2) if r2 > 0 else (math.inf if a_tilde > 0 else 0.0)
        v2 = u2 = 0.0
        prod = a_tilde * a_tilde / (r1 * r2) if r1 * r2 > 0 else (math.inf if a_tilde > 0 else 0.0)
    else:
        q1 = 1.0 + rho * b1_tilde * p_j
        q2 = 1.0 + rho * b2_tilde * p_j
        v1 = b * a_tilde * p_j / (a * q1)
        v2 = a_tilde / (a * q1)
        u1 = a * a_tilde * p_j / (b * q2)
        u2 = a_tilde / (b * q2)
        prod = a_tilde**2 * p_j**2 / (q1 * q2)
    c_min = (v2 + v1 * u2) / (1.0 - prod) if prod < 1.0 else math.inf
    w1, w2, w3 = (float(w) for w in _w_terms(a, b, rho, p_j, a_tilde, b1_tilde, b2_tilde))
    live = w1 > _W1_GUARD * w2
    k, e_exp = (min(w1 / w2, 1.0), w3 / w1) if live else (0.0, math.inf)
    if math.isinf(p_j):
        w1 = w2 = w3 = math.inf
    return ZeroSecrecyTermsPair(
        v1=v1, v2=v2, u1=u1, u2=u2, c_min=c_min, k=k, e_exp=e_exp, w1=w1, w2=w2, w3=w3
    )


# Below this fraction of w2, w1 is treated as 0: K has already vanished and
# E = w3/w1 would overflow before the product does.
_W1_GUARD = 1e-30


def _w_terms(a, b, rho: float, p_j: float, a_t, b1_t, b2_t) -> tuple:
    """(w1, w2, w3) of the wedge probability K*exp(-E), K = w1/w2, E = w3/w1.

    At P_J = inf the w's diverge; they are returned divided by P_J^2, whose
    limits a*b*(rho^2*B1~*B2~ - A~^2), (a*A~ + rho*b*B2~)*(b*A~ + rho*a*B1~)
    and 0 give the limits of K and E = 0.
    """
    if math.isinf(p_j):
        w1 = a * b * (rho**2 * b1_t * b2_t - a_t**2)
        return w1, (a * a_t + rho * b * b2_t) * (b * a_t + rho * a * b1_t), 0.0
    q1 = 1.0 + rho * b1_t * p_j
    q2 = 1.0 + rho * b2_t * p_j
    w1 = a * b * (q1 * q2 - a_t**2 * p_j**2)
    w2 = (a * a_t * p_j + b * q2) * (b * a_t * p_j + a * q1)
    w3 = a_t * (a * q1 + b * q2 + (a + b) * a_t * p_j)
    return w1, w2, w3


def cond_prob_zero_pair(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float
) -> float:
    """P{both phases have zero secrecy | a_tilde, b1_tilde, b2_tilde}."""
    return float(_cond_prob_zero_pair_kernel(g.a, g.b, params.rho, params.p_j, a_tilde, b1_tilde, b2_tilde))


def cond_prob_zero_pair_array(
    g: LinkGains, params: SystemParams, a_t: np.ndarray, b1_t: np.ndarray, b2_t: np.ndarray
) -> np.ndarray:
    """Vectorized cond_prob_zero_pair over fading arrays."""
    return _cond_prob_zero_pair_kernel(g.a, g.b, params.rho, params.p_j, a_t, b1_t, b2_t)


def _cond_prob_zero_pair_kernel(a, b, rho: float, p_j: float, a_t, b1_t, b2_t) -> np.ndarray:
    """cond_prob_zero_pair over fading arrays; the gains a, b may be arrays that broadcast.

    K*exp(-E) where w1 > _W1_GUARD*w2, else 0.  At an endpoint node (a or
    b infinite) the limit is 0 for P_J > 0 and exp(-A~*(1/a + 1/b)) without
    jamming, where only the finite-gain phase can fail.
    """
    a_t, node = np.asarray(a_t, dtype=float), np.isinf(a) | np.isinf(b)
    if np.any(node):
        limit = np.exp(-a_t * (1.0 / a + 1.0 / b)) if p_j == 0 else 0.0
        a, b = np.where(node, 1.0, a), np.where(node, 1.0, b)
    w1, w2, w3 = _w_terms(a, b, rho, p_j, a_t, b1_t, b2_t)
    live = w1 > _W1_GUARD * w2
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # K < 1 exactly; the clip removes rounding above 1 as A~ -> 0
        val = np.where(live, np.minimum(w1 / w2, 1.0), 0.0)
        if not math.isinf(p_j):  # E = 0 at P_J = inf
            val = val * np.exp(-w3 / np.where(live, w1, 1.0))
    return np.where(node, limit, val) if np.any(node) else val


def prob_zero_nojam(g: LinkGains) -> float:
    """Unconditional P{S = 0} without jamming: 1/(1 + 1/a + 1/b)."""
    inv_a = 0.0 if math.isinf(g.a) else 1.0 / g.a
    inv_b = 0.0 if math.isinf(g.b) else 1.0 / g.b
    return 1.0 / (1.0 + inv_a + inv_b)


def prob_zero_nojam_origin(alpha: float) -> float:
    """The maximum of prob_zero_nojam over locations: 1/(1+0.5^(alpha-1)) at the origin."""
    return 1.0 / (1.0 + 0.5 ** (alpha - 1.0))


def eve_at_node_prob(params: SystemParams) -> float:
    """P{S = 0} with the eavesdropper exactly at an endpoint.

    Any positive jamming power drives it to zero; without jamming it is the
    no-jam node value 0.5.
    """
    return 0.0 if params.p_j > 0 else 0.5


def pj_star(a_tilde: float, b1_tilde: float, b2_tilde: float, rho: float) -> float | None:
    """Smallest jamming power that forces the conditional probability to zero.

    Exists iff a_tilde^2 > rho^2*b1_tilde*b2_tilde; w1 <= 0 (wedge empty)
    for every P_J >= the returned root.  None when the fading draw leaves
    w1 positive for all powers.
    """
    if not rho >= 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    disc = a_tilde**2 - rho**2 * b1_tilde * b2_tilde
    if not disc > 0:
        return None
    s = rho * (b1_tilde + b2_tilde)
    return (s + math.sqrt(s * s + 4.0 * disc)) / (2.0 * disc)


class JamPolicyKind(enum.Enum):
    CONSTANT = "constant"
    SEMI_DYNAMIC = "semi-dynamic"
    FULL_DYNAMIC = "full-dynamic"
    GENERAL_DYNAMIC = "general-dynamic"


@dataclass(frozen=True)
class JamPolicy:
    kind: JamPolicyKind
    p_accept: float | None = None  # only for general-dynamic

    def __post_init__(self) -> None:
        if self.kind is JamPolicyKind.GENERAL_DYNAMIC:
            if self.p_accept is None or not 0.0 < self.p_accept < 1.0:
                raise InvalidParameterError("general-dynamic needs p_accept in (0, 1)")
        elif self.p_accept is not None:
            raise InvalidParameterError("p_accept only applies to general-dynamic")


@dataclass(frozen=True)
class PolicyReport:
    """Zero-secrecy probability of a policy plus its closed-form companions.

    p1/p2 are the analytic upper bounds evaluated on the same fading stream
    as the estimate, so estimate < p1 (semi-dynamic) and estimate < p2
    (constant) hold samplewise, not just in expectation.  residual is the
    mean conditional probability over accepted states for general-dynamic.
    """

    policy: JamPolicy
    estimate: Estimate
    p1: Estimate | None = None
    p2: Estimate | None = None
    acceptance: Estimate | None = None
    residual: Estimate | None = None


def semi_dynamic_cap(rho: float) -> float:
    """Analytic cap pi*rho/4 on P1 = E{1 - exp(-rho*sqrt(b1*b2))}."""
    return math.pi * rho / 4.0


def _window(u, v, rho: float, p_j: float):
    """Upper end w0 of the A~ window outside which the wedge is empty at power P_J.

    w0 = sqrt(rho^2*B1~*B2~ + (1+rho*(B1~+B2~)*P_J)/P_J^2), which shrinks to
    rho*sqrt(B1~*B2~) as P_J grows; P_J = inf gives that limit.
    """
    if math.isinf(p_j):
        return rho * np.sqrt(u * v)
    return np.sqrt(rho**2 * u * v + (1.0 + rho * (u + v) * p_j) / p_j**2)


def _layer_rate(u, v, a: float, b: float, rho: float, p_j: float):
    """Rate c of the boundary layer at A~ = 0, where cond_prob_zero_pair falls like 1/(1 + c*A~).

    c = P_J*(a/(b*q2) + b/(a*q1)) with q = 1 + rho*B~*P_J; at P_J = inf it is
    a/(rho*b*B2~) + b/(rho*a*B1~), infinite where the window is empty.
    """
    if math.isinf(p_j):
        with np.errstate(divide="ignore"):
            return a / (rho * b * v) + b / (rho * a * u)
    return p_j * (a / (b * (1.0 + rho * v * p_j)) + b / (a * (1.0 + rho * u * p_j)))


# Rows per quadrature tile: a (rows, 48) temporary stays in cache (~0.4 MB).
_TILE_ROWS = 1024
# Smallest stretch L = log1p(c*w0); below it the map is linear in t to 1e-8.
_MIN_STRETCH = 1e-8
# A~ past which e^-A~ < 5e-18: the quadrature stops there when the window is wider.
_A_TOP = 40.0


def _policy_integrand(u: np.ndarray, v: np.ndarray, a: float, b: float, rho: float, p_j: float) -> np.ndarray:
    """Per (b1, b2) row: [E_A{cond_prob_zero_pair * 1[A < w0]}, 1 - exp(-w0)], shape (m, 2).

    The first column integrates e^-A~ * cond_prob_zero_pair over [0, top],
    top = min(w0, _A_TOP), in t in [0, 1] with A~ = top*expm1(t*L)/expm1(L),
    L = log1p(c*top), that is A~ = expm1(t*L)/c: the map spreads the boundary
    layer of rate c at A~ = 0 over the nodes, and the nodes crowd towards
    t = 1, where at finite P_J e^-E closes the wedge within a sliver below
    w0.  An empty window (rho = 0 or B~ = 0 at P_J = inf) gives 0.  Rows go
    through in tiles of _TILE_ROWS so the (rows, 48) kernel temporaries stay
    in cache.  The second column is the window bound (P2, or P1 at P_J = inf)
    on the same row.
    """
    w0 = _window(u, v, rho, p_j)
    top = np.minimum(w0, _A_TOP)
    with np.errstate(invalid="ignore"):  # c*top = inf*0 where the window is empty
        ct = _layer_rate(u, v, a, b, rho, p_j) * top
    stretch = np.maximum(np.log1p(np.where(np.isfinite(ct), ct, 0.0)), _MIN_STRETCH)
    scale = top / np.expm1(stretch)  # 1/c, or 0 on an empty window
    out = np.empty((u.shape[0], 2))
    for lo in range(0, u.shape[0], _TILE_ROWS):
        rows = slice(lo, lo + _TILE_ROWS)
        tl = _GL_T * stretch[rows, None]  # (rows, 48)
        w = np.expm1(tl) * scale[rows, None]
        vals = _cond_prob_zero_pair_kernel(a, b, rho, p_j, w, u[rows, None], v[rows, None])
        out[rows, 0] = (np.exp(tl - w) * vals) @ _GL_W * (stretch[rows] * scale[rows])
    out[:, 1] = -np.expm1(-w0)
    return out


def policy_prob_zero(
    policy: JamPolicy, g: LinkGains, params: SystemParams, mc: MCConfig
) -> PolicyReport:
    """Zero-secrecy probability achieved by a jamming-power policy.

    constant: P_J = params.p_j throughout.  Only draws with a_tilde below
    the window w0(b1, b2) can fail, and the a_tilde coordinate is integrated
    in closed quadrature (the estimator averages a deterministic function of
    (b1, b2), which both cuts variance and makes estimate < p2 hold draw by
    draw); p_j = 0 falls back to the exact no-jam closed form.

    semi-dynamic: P_J > pj_star whenever it exists, unbounded power
    otherwise; the constant construction at P_J = inf, bounded by p1.

    full-dynamic: power chosen per (c, d) reality; never zero secrecy.

    general-dynamic(p): transmit only when the conditional probability is
    at most p, then suppress dynamically (zero secrecy never happens);
    reports the acceptance probability and the mean accepted conditional
    probability as the residual.
    """
    a, b, rho = g.a, g.b, params.rho
    kind = policy.kind
    if kind is JamPolicyKind.FULL_DYNAMIC:
        return PolicyReport(policy=policy, estimate=Estimate(0.0, 0.0, mc.n_samples))
    if kind in (JamPolicyKind.CONSTANT, JamPolicyKind.SEMI_DYNAMIC):
        semi = kind is JamPolicyKind.SEMI_DYNAMIC
        p_j = math.inf if semi else params.p_j
        if math.isinf(a) or math.isinf(b):
            val = eve_at_node_prob(replace(params, p_j=p_j))
            return PolicyReport(policy=policy, estimate=Estimate(val, 0.0, mc.n_samples))
        if p_j == 0:
            return PolicyReport(
                policy=policy,
                estimate=Estimate(prob_zero_nojam(g), 0.0, mc.n_samples),
                p2=Estimate(1.0, 0.0, mc.n_samples),
            )
        est, bound = estimate(lambda uv: _policy_integrand(uv[:, 0], uv[:, 1], a, b, rho, p_j), mc, draws_per_sample=2)
        if semi:
            return PolicyReport(policy=policy, estimate=est, p1=bound)
        return PolicyReport(policy=policy, estimate=est, p2=bound)
    # general-dynamic
    p = float(policy.p_accept)
    draws = sample_matrix(mc, 3)
    cond = cond_prob_zero_pair_array(g, params, draws[:, 0], draws[:, 1], draws[:, 2])
    accepted = cond <= p
    n = cond.size
    acc_mean = float(accepted.mean())
    acc_stderr = math.sqrt(max(acc_mean * (1.0 - acc_mean), 0.0) / n)
    n_acc = int(accepted.sum())
    if n_acc > 1:
        sub = cond[accepted]
        res = Estimate(float(sub.mean()), float(sub.std(ddof=1) / math.sqrt(n_acc)), n_acc)
    else:
        res = Estimate(float(cond[accepted].mean()) if n_acc else 0.0, 0.0, n_acc)
    return PolicyReport(
        policy=policy,
        estimate=Estimate(0.0, 0.0, n),
        acceptance=Estimate(acc_mean, acc_stderr, n),
        residual=res,
    )


def p1_bound(rho: float, mc: MCConfig) -> Estimate:
    """P1 = E{1 - exp(-rho*sqrt(b1*b2))}, the semi-dynamic failure-window mass."""
    return p2_bound(rho, math.inf, mc)


def p2_bound(rho: float, p_j: float, mc: MCConfig) -> Estimate:
    """P2 = E{1 - exp(-w0)}, the constant-policy failure-window mass.

    w0 = sqrt(rho^2*b1*b2 + (1+rho*(b1+b2)*P_J)/P_J^2) shrinks to the P1
    window as P_J grows (P_J = inf gives P1); the same fading stream as
    p1_bound (same config) makes P1 < P2 hold draw by draw at finite P_J.
    """
    if not p_j > 0:
        raise InvalidParameterError(f"p2_bound needs P_J > 0, got {p_j}")
    return estimate(lambda uv: -np.expm1(-_window(uv[:, 0], uv[:, 1], rho, p_j)), mc, draws_per_sample=2)


def homogeneous_secrecy(a_tilde: float, b1_tilde: float, b2_tilde: float, rho: float) -> float:
    """Near-field secrecy under fading: log2(a_tilde/(rho*sqrt(b1*b2))).

    Location drops out across the whole near plateau; negative values mean
    the realized secrecy is essentially zero.
    """
    if not rho > 0:
        raise InvalidParameterError(f"rho must be > 0, got {rho}")
    denom = rho * math.sqrt(b1_tilde * b2_tilde)
    if denom == 0.0:
        return math.inf
    if a_tilde == 0.0:
        return -math.inf
    return math.log2(a_tilde / denom)


def homogeneous_tail_bound(s: float, rho: float) -> float:
    """P{near-field secrecy <= s} < 2^s * rho * pi/4 (clipped at 1)."""
    return min(1.0, 2.0**s * rho * math.pi / 4.0)


def secrecy_sample_pair(
    g: LinkGains,
    params: SystemParams,
    c_tilde: float,
    d_tilde: float,
    a_tilde: float = 1.0,
    b1_tilde: float = 1.0,
    b2_tilde: float = 1.0,
) -> float:
    """One fading realization of the pair secrecy, in bits: the mean of the two directions.

    The A->B direction sees self-interference fading b1_tilde and the
    B->A direction b2_tilde; the eavesdropper fadings swap with the roles.
    """
    s, _, _ = _secrecy_pair_array(
        g.a, g.b, params.p_t, params.rho, params.p_j, c_tilde, d_tilde, a_tilde, b1_tilde, b2_tilde
    )
    return float(s)
