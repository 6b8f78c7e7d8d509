"""Zero-secrecy probabilities and jamming policies for the dual-phase link under fading.

The protected-link fading a_tilde is shared by both phases (reciprocity);
b1_tilde and b2_tilde are the self-interference fadings at the two jamming
receivers; c_tilde and d_tilde are the unknown eavesdropper-path fadings.
Zero secrecy in both phases is the wedge event
{c >= v1*d + v2} and {d >= u1*c + u2} over independent Exp(1) (c, d), whose
probability collapses to K*exp(-E) when w1 > 0 and to 0 otherwise.
"""

from __future__ import annotations

import decimal
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .colluding_fading import _e1_cf, _exp_e1, _gauss_legendre, _log_map, _piecewise
from .colluding_fading import _TAIL_CUT as _A_TOP  # the A~ quadrature stops there; a wider window takes _WIDE_RULE
from .errors import InvalidParameterError
from .geometry import LinkGains, SystemParams, _jam_scale
from .montecarlo import Estimate, MCConfig, estimate, exp_chunks
from .pairwise import _secrecy_pair_array

__all__ = [
    "ZeroSecrecyTermsPair",
    "JamPolicyKind",
    "JamPolicy",
    "PolicyReport",
    "pair_terms",
    "cond_prob_zero_pair",
    "cond_prob_zero_pair_array",
    "prob_zero_nojam",
    "prob_zero_nojam_origin",
    "pj_star",
    "policy_prob_zero",
    "p1_bound",
    "p2_bound",
    "semi_dynamic_cap",
    "homogeneous_secrecy",
    "homogeneous_tail_bound",
    "secrecy_sample_pair",
]


def _crowded_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, w): n Gauss-Legendre nodes moved from [-1, 1] to t in [0, 1] by t = 1 - ((1 - x)/2)^2.

    The map crowds the nodes towards t = 1, where the wedge closes
    (_policy_integrand, finite P_J).
    """
    x, wx = _gauss_legendre(n)
    return 1.0 - (0.5 * (1.0 - x)) ** 2, 0.5 * (1.0 - x) * wx


# The A~ rules of _policy_integrand: 32 nodes for a row whose wedge closes inside its
# window (w0 <= _A_TOP), 48 for one whose window is cut at _A_TOP and never closes
_CLOSING_RULE = _crowded_rule(32)
_WIDE_RULE = _crowded_rule(48)
# 12 Gauss-Legendre nodes on [0, 1] for the smooth part of the semi-dynamic row (_semi_dynamic_row)
# where its window w0 is below _FAR_SPLIT; from there on the part is a closed form in e^x*E1(x)
_GL12_X, _GL12_WX = _gauss_legendre(12)
_GL12_T, _GL12_W = 0.5 * (1.0 + _GL12_X), 0.5 * _GL12_WX
_FAR_SPLIT = 3.0


@dataclass(frozen=True)
class ZeroSecrecyTermsPair:
    """The two factors of the wedge probability K*exp(-E): k = K = w1/w2 and e_exp = E = w3/w1."""

    k: float
    e_exp: float


def pair_terms(
    g: LinkGains, params: SystemParams, a_tilde: float, b1_tilde: float, b2_tilde: float
) -> ZeroSecrecyTermsPair:
    """K and E at one fading draw, for finite gains; an empty wedge (w1 <= 0) gives K = 0, E = inf."""
    if math.isinf(g.a) or math.isinf(g.b):
        raise InvalidParameterError("pair_terms needs finite gains; use the node limit results")
    coeffs = _wedge_coeffs(g.a, g.b, params.rho, params.p_j, b1_tilde, b2_tilde)
    w1, w2, w3 = (float(w) for w in _wedge(coeffs, a_tilde))
    return ZeroSecrecyTermsPair(w1 / w2, w3 / w1) if w1 > 0.0 else ZeroSecrecyTermsPair(0.0, math.inf)


def _wedge_coeffs(a, b, rho: float, p_j: float, b1_t, b2_t) -> tuple:
    """Coefficients (C0, C2, D1, S, Z) of the wedge terms as polynomials in A~.

    w1 = C0 - C2*A~^2, w2 = C0 + D1*A~ + C2*A~^2 and w3 = A~*(S + Z*A~) give
    the wedge probability K*exp(-E), K = w1/w2, E = w3/w1.  With
    q = 1 + rho*B~*P_J and the common factor a*b divided out, the w's have
    C0 = q1*q2, C2 = P_J^2, D1 = P_J*(q1*a/b + q2*b/a), S = q1/b + q2/a
    and Z = P_J*(1/a + 1/b).  K and E keep their value when all five are
    divided by one factor, here max(1, P_J)^2: with r = min(P_J, 1),
    i = 1/max(P_J, 1) and h = i + rho*r*B~ (h = q at P_J <= 1), C0 = h1*h2,
    C2 = r^2, D1 = r*(h1*a/b + h2*b/a), S = i*(h1/b + h2/a) and
    Z = r*i*(1/a + 1/b).  None of them overflows as P_J grows, and
    P_J = inf is the member i = 0, the limits of K and of E = 0.  The window
    outside which the wedge is empty is w0 = sqrt(C0/C2), and the boundary
    layer at A~ = 0, where K falls like 1/(1 + c*A~), has rate c = D1/C0.
    C0, C2 and h come from _wedge_window, the rest from _window_coeffs.
    """
    return _window_coeffs(a, b, p_j, *_wedge_window(rho, p_j, b1_t, b2_t))


def _window_coeffs(a, b, p_j: float, c0, c2, h1, h2) -> tuple:
    """(C0, C2, D1, S, Z) of _wedge_coeffs from the window (C0, C2, h1, h2) of _wedge_window and the gains."""
    (r, i), inv_a, inv_b = _jam_scale(p_j), 1.0 / a, 1.0 / b
    d1 = (r * a * inv_b) * h1 + (r * b * inv_a) * h2
    return c0, c2, d1, (i * inv_b) * h1 + (i * inv_a) * h2, (r * i) * (inv_a + inv_b)


def _wedge_window(rho: float, p_j: float, b1_t, b2_t) -> tuple:
    """(C0, C2, h1, h2), the gain-free part of _wedge_coeffs, h = i + rho*r*B~.

    Where rho*B~ = 0, h1*h2 = i^2 underflows to 0 past P_J = 6.4e161, and
    A~ = 0, inside every finite window, would read an empty one.  So C0 adds
    min(i, 5e-324): the least float at finite P_J, which moves no C0 of
    2^-1020 or more, and 0 at P_J = inf.
    """
    r, i = _jam_scale(p_j)
    h1, h2 = i + (rho * r) * b1_t, i + (rho * r) * b2_t
    return h1 * h2 + min(i, math.ulp(0.0)), r**2, h1, h2


def _window_mass(c0, c2) -> tuple:
    """(w0, 1 - e^-w0): the window w0 = sqrt(C0/C2), past which the wedge is empty, and its Exp(1) mass."""
    w0 = np.sqrt(c0 / c2)
    return w0, -np.expm1(-w0)


def _wedge(coeffs: tuple, a_t, out: tuple | None = None) -> tuple:
    """(w1, w2, w3) at A~ = a_t from _wedge_coeffs, written into the three arrays of out, or of new ones.

    w1 <= C0 <= w2 also after rounding, so K = w1/w2 <= 1.
    """
    c0, c2, d1, s, z = coeffs
    o1, o2, o3 = out or (np.empty(np.broadcast_shapes(*map(np.shape, (c0, d1, s, a_t)))) for _ in range(3))
    c2a2 = np.multiply(c2, np.multiply(a_t, a_t, out=o1), out=o1)
    w2 = np.add(np.add(c0, np.multiply(d1, a_t, out=o2), out=o2), c2a2, out=o2)
    w3 = np.multiply(a_t, np.add(s, np.multiply(z, a_t, out=o3), out=o3), out=o3)
    return np.subtract(c0, c2a2, out=o1), w2, w3


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

    K*exp(-E) where w1 > 0, else 0.  The gain-free window comes first, once
    per draw, and its test C0 > C2*A~^2 is exactly w1 > 0: fl(C0 - x) > 0
    iff C0 > x.  Where under a quarter of the draws are inside, the wedge
    is taken on those alone, from their gathered window and gains, and
    scattered into zeros.  At an endpoint node (a or b infinite) the limit
    is 0 for P_J > 0 and exp(-A~*(1/a + 1/b)) without jamming, where only
    the finite-gain phase can fail.
    """
    a_t, node = np.asarray(a_t, dtype=float), np.isinf(a) | np.isinf(b)
    if np.any(node):
        limit = np.exp(-a_t * (1.0 / a + 1.0 / b)) if p_j == 0 else 0.0
        a, b = np.where(node, 1.0, a), np.where(node, 1.0, b)
    c0, c2, h1, h2 = _wedge_window(rho, p_j, b1_t, b2_t)
    live = c0 > a_t * a_t * c2  # the square first: numpy multiplies into its buffer
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), live.shape)
    if gather := 4 * np.count_nonzero(live) < live.size:
        pick = np.flatnonzero(np.broadcast_to(live, shape))
        a, b, a_t, c0, h1, h2 = (np.broadcast_to(x, shape).flat[pick] for x in (a, b, a_t, c0, h1, h2))
    # each array goes after its last use: the dense path holds fewer at once than the wedge's
    # coefficients and terms together
    coeffs = _window_coeffs(a, b, p_j, c0, c2, h1, h2)
    del c0, h1, h2
    w1, w2, w3 = _wedge(coeffs, a_t)
    del coeffs
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if gather:  # every gathered draw is inside
            np.put(val := np.zeros(shape), pick, w1 / w2 * np.exp(-w3 / w1))
        else:  # E = 0 where masked: numpy's exp is ~20x slower where its result underflows
            val = np.where(live, w1 / w2 * np.exp(-w3 / np.where(live, w1, np.inf)), 0.0)
    return np.where(node, limit, val) if np.any(node) else val


def prob_zero_nojam(g: LinkGains) -> float:
    """Unconditional P{S = 0} without jamming: 1/(1 + 1/a + 1/b)."""
    return 1.0 / (1.0 + 1.0 / g.a + 1.0 / g.b)


def prob_zero_nojam_origin(alpha: float) -> float:
    """The maximum of prob_zero_nojam over locations: 1/(1+0.5^(alpha-1)) at the origin."""
    return 1.0 / (1.0 + 0.5 ** (alpha - 1.0))


def pj_star(a_tilde: float, b1_tilde: float, b2_tilde: float, rho: float) -> float | None:
    """Smallest jamming power that forces the conditional probability to zero.

    Exists iff a_tilde^2 > rho^2*b1_tilde*b2_tilde; w1 <= 0 (wedge empty)
    for every P_J >= the returned root.  None when the fading draw leaves
    w1 positive for all powers.  disc and s are taken exactly in decimals,
    which no product of floats overflows or underflows, and the root to 40
    digits; it is inf past the float range, where only unbounded power
    empties the wedge.
    """
    if not rho >= 0:
        raise InvalidParameterError(f"rho must be >= 0, got {rho}")
    a_tilde, b1_tilde, b2_tilde, rho = map(decimal.Decimal, (a_tilde, b1_tilde, b2_tilde, rho))
    with decimal.localcontext(decimal.Context(prec=4000, traps=[])) as ctx:  # more digits than four floats' product
        disc, s = a_tilde**2 - rho**2 * b1_tilde * b2_tilde, rho * (b1_tilde + b2_tilde)
        ctx.prec = 40
        return float((s + (s * s + 4 * disc).sqrt()) / (2 * disc)) if disc > 0 else None


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
    (constant) hold samplewise, not just in expectation.  For general-dynamic,
    acceptance is the exact share of accepted draws with its binomial stderr,
    and residual is the mean conditional probability over accepted states,
    reduced block by block like every estimate, so no n-long array is held.
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


# Rows per quadrature tile: the five (nodes, rows) temporaries stay in cache (~1.3 MB at
# 32 nodes, ~2 MB at 48).
_TILE_ROWS = 1024
# Rows per block of a lane of _policy_integrand: its per-row temporaries stay near 64 kB.
_CHUNK_ROWS = 8 * _TILE_ROWS
# Floor of the quadrature's exp argument: e^-700 < 1e-304 adds nothing to a row, and
# numpy's exp runs 20-100x slower where its result is subnormal or underflows.
_EXP_FLOOR = -700.0


def _policy_integrand(u: np.ndarray, v: np.ndarray, a: float, b: float, rho: float, p_j: float) -> np.ndarray:
    """Per (b1, b2) row: [E_A{cond_prob_zero_pair * 1[A < w0]}, 1 - exp(-w0)], shape (m, 2).

    At P_J = inf the first column is the closed form _semi_dynamic_row.  At
    finite P_J it integrates e^-A~ * cond_prob_zero_pair over [0, top],
    top = min(w0, _A_TOP), in t in [0, 1] with A~ = top*expm1(t*L)/expm1(L),
    L = log1p(c*top), that is A~ = expm1(t*L)/c: the map spreads the boundary
    layer of rate c at A~ = 0 over the nodes (c*w0 reaches about 1e4 near
    an endpoint).  Each row picks its rule from its own window: where the
    wedge closes inside it (w0 <= _A_TOP), e^-E closes it within a sliver
    below w0, and the 32 nodes of _CLOSING_RULE, crowded towards t = 1,
    resolve it; a window cut at _A_TOP (at P_J below about 0.025) never
    closes, and such a row takes the 48 nodes of _WIDE_RULE.  Against
    oracles.quad_policy_row a closing row was within 2e-12 from (-0.6, 0)
    to (0.499, 0), and a wide row at (1.3, 0.7), -30 dB, within 2.2e-9 on
    48 nodes, where 32 miss by 1.3e-4 and 24 by 5.8e-3.  The wedge
    coefficients, w0 and c come once per row from _wedge_coeffs; a node
    costs one exp (_rows_on_rule).  The second column is the window bound
    (P2, or P1 at P_J = inf) on the same row.

    A row depends on itself alone, so at finite P_J past 2*_TILE_ROWS rows
    they are split between lanes (montecarlo._run_lanes), in blocks of
    _CHUNK_ROWS, the same bits on any number of lanes; the calling thread
    allocates each lane's _rows_on_rule slab, sized for the rules at the
    call.  Semi-dynamic rows, about 190 numpy calls (ufuncs, array
    functions, gathers and scatters) on short arrays per block at rho =
    0.01, stay on one lane: two lanes passing the GIL ran them 8% slower,
    where constant rows ran 24% faster on two.
    """
    out = np.empty((u.shape[0], 2))

    def lane(lo: int, hi: int):
        # the 48-node size even where only 32 nodes run: glibc's mmap and trim thresholds follow the
        # largest block freed, and after a smaller slab the prob-zero fields ran 8-15% slower
        nodes = max(_CLOSING_RULE[0].size, _WIDE_RULE[0].size)
        work = None if math.isinf(p_j) else np.empty((5, nodes, _TILE_ROWS))
        chunks = (slice(i, min(i + _CHUNK_ROWS, hi)) for i in range(lo, hi, _CHUNK_ROWS))
        return (_policy_rows(u[r], v[r], a, b, rho, p_j, work, out[r]) for r in chunks)

    montecarlo._run_lanes(lane, u.shape[0], max(1, u.shape[0]) if math.isinf(p_j) else 2 * _TILE_ROWS)
    return out


def _policy_rows(u, v, a: float, b: float, rho: float, p_j: float, work, out: np.ndarray) -> None:
    """One block of _policy_integrand's rows, written into out, shape (rows, 2)."""
    window = _wedge_window(rho, p_j, u, v)
    w0, out[:, 1] = _window_mass(*window[:2])
    if math.isinf(p_j):  # the closed form reads the window alone
        out[:, 0] = _semi_dynamic_row((rho * a / b) * u, (rho * b / a) * v, w0)
        return
    c0, c2, d1, s, z = _window_coeffs(a, b, p_j, *window)
    top = np.minimum(w0, _A_TOP)
    with np.errstate(invalid="ignore", over="ignore"):  # c = D1/C0 overflows only at extreme P_J
        stretch, scale = _log_map(d1 / c0 * top, top)
    wide, closing = (functools.partial(_rows_on_rule, rule, c2, z, work) for rule in (_WIDE_RULE, _CLOSING_RULE))
    out[:, 0] = _piecewise(w0 > _A_TOP, wide, closing, c0, d1, s, stretch, scale)


def _rows_on_rule(rule: tuple, c2: float, z: float, work: np.ndarray, c0, d1, s, stretch, scale) -> np.ndarray:
    """The first column of _policy_integrand at finite P_J for some rows, on the A~ rule (t, w).

    c0, d1, s, stretch and scale hold those rows only; C2 and Z are the
    same for every row.  At a node, A~ =
    expm1(t*L)*scale, and one exp of t*L - A~ - E gives e^-A~*e^-E times
    the map's Jacobian over L*scale.  One mask, w1 raised to +0 before K =
    w1/w2 and E = w3/w1 are taken, makes a node outside the wedge (w1 <= 0)
    add exactly +0: K = +0, and E = +inf, or NaN where w3 underflows at
    extreme P_J, which np.fmax takes to the exp floor.  A node inside adds
    K*e^-E however small K is; where the boundary layer has made K tiny
    over the whole window (c*A~ past 1e30, only at extreme P_J, gains or
    B~), those nodes carry the row.  Rows go through in tiles of
    _TILE_ROWS, in five (nodes, rows) views of work, the caller's
    (5, >= nodes, _TILE_ROWS) slab, which every tile reuses; _node_sum
    makes each row's value depend on that row alone.
    """
    t, w = rule
    row = np.empty(c0.size)
    work = work[:, : t.size]
    with np.errstate(divide="ignore", invalid="ignore"):  # E = w3/+0, or 0/0, on a dead node; per thread
        for lo in range(0, c0.size, _TILE_ROWS):
            rows = slice(lo, lo + _TILE_ROWS)
            tl, a_t, w1, w2, w3 = work[:, :, : scale[rows].size]  # (nodes, rows) each
            np.multiply(t[:, None], stretch[rows], out=tl)
            np.multiply(np.expm1(tl, out=a_t), scale[rows], out=a_t)
            _wedge((c0[rows], c2, d1[rows], s[rows], z), a_t, out=(w1, w2, w3))
            tl -= a_t  # t*L - A~
            np.maximum(w1, 0.0, out=w1)
            tl -= np.divide(w3, w1, out=w3)
            vals = np.divide(w1, w2, out=w1)  # K
            vals *= np.exp(np.fmax(tl, _EXP_FLOOR, out=tl), out=tl)
            vals *= w[:, None]
            row[rows] = _node_sum(vals) * (stretch[rows] * scale[rows])
    return row


def _node_sum(vals: np.ndarray) -> np.ndarray:
    """The sum over axis 0 (the nodes), by halving in place.

    Every column takes the same additions in the same order whatever the
    other columns hold; a BLAS matrix-vector product rounds its trailing
    columns differently, which would make a row's value depend on its tile.
    """
    k = vals.shape[0]
    while k > 1:
        half = k // 2
        vals[:half] += vals[k - half : k]
        k -= half
    return vals[0]


def _semi_dynamic_row(r1: np.ndarray, r2: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """E_A{cond_prob_zero_pair * 1[A < w0]} at P_J = inf, in closed form.

    There E = 0 and K = w1/w2 = (r1*r2 - A~^2)/((A~ + r1)*(A~ + r2)) with
    r1 = rho*B1~*a/b, r2 = rho*B2~*b/a and w0 = sqrt(r1*r2).  With
    r_s = min(r1, r2) <= w0 <= r_b = max(r1, r2), K = r_s/(A~ + r_s) -
    A~/(A~ + r_b), two positive terms whose integrals differ by at least
    2 - 1/ln 2 ~ 56% of the first, so the difference keeps its digits:
    - r_s*int_0^w0 e^-A~/(A~ + r_s) = r_s*(f(r_s) - e^-w0*f(r_s + w0)),
      f = _exp_e1;
    - int_0^w0 e^-A~*A~/(A~ + r_b), whose pole lies at least w0 below the
      window: 12 Gauss-Legendre nodes for w0 < _FAR_SPLIT, and above it
      g(r_b) - e^-w0*(g(r_b + w0) + w0*f(r_b + w0)) with g(x) = 1 - x*f(x)
      from the continued fraction (_e1_cf), free of cancellation.
    A plain sum of the four E1 terms cancels near Bob's node, where r1 and
    r2 lie 12 decades apart: at (0.499, 0), rho = 1e-4, it missed a row by
    110 times its value.  A row agrees with a 40-digit evaluation to 2e-15.
    An empty window (rho = 0 or B~ = 0) gives 0, and so does r_s = 0, its
    limit also where r_s underflows while w0 > 0.
    """
    r_s = np.minimum(r1, r2)
    return _piecewise(r_s > 0, _semi_dynamic_live, lambda r_s, r_b, w0: np.zeros_like(w0), r_s, np.maximum(r1, r2), w0)


def _semi_dynamic_live(r_s: np.ndarray, r_b: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """_semi_dynamic_row on rows with r_s > 0, from r_s = min(r1, r2) and r_b = max(r1, r2); w0 = 0 gives 0."""
    e_w0 = np.exp(-w0)
    f = _exp_e1(np.concatenate((r_s, r_s + w0)))
    near = r_s * (f[: r_s.size] - e_w0 * f[r_s.size :])
    return near - _piecewise(w0 >= _FAR_SPLIT, _far_tail, _far_nodes, r_b, w0)


def _far_nodes(r_b: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """int_0^w0 e^-A~*A~/(A~ + r_b) on the 12 Gauss-Legendre nodes, for w0 < _FAR_SPLIT."""
    acc = np.zeros_like(w0)
    for t, w in zip(_GL12_T, _GL12_W):
        x = t * w0
        acc += w * np.exp(-x) * x / (x + r_b)
    return acc * w0


def _far_tail(r_b: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """The same integral for w0 >= _FAR_SPLIT: g(r_b) - e^-w0*(g(r_b + w0) + w0*f(r_b + w0)), r_b >= w0."""
    x = np.concatenate((r_b, r_b + w0))
    fx, gx = _e1_cf(x)
    return gx[: r_b.size] - np.exp(-w0) * (gx[r_b.size :] + w0 * fx[r_b.size :])


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
    otherwise; the constant construction at P_J = inf, bounded by p1, with
    the a_tilde integral in closed form.

    At an endpoint node any jamming zeroes the estimate, and the bound is
    still p2 (p1) on the same stream: the window has no gain in it.

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
        p_j, n = (math.inf if semi else params.p_j), mc.n_samples
        if p_j == 0:  # the mean of the per-draw exp(-A~*(1/a + 1/b)), at a node too
            val = prob_zero_nojam(g)
            return PolicyReport(policy=policy, estimate=Estimate(val, 0.0, n), p2=Estimate(1.0, 0.0, n))
        if math.isinf(a) or math.isinf(b):  # jamming zeroes the probability, and the window has no gain in it
            est, bound = Estimate(0.0, 0.0, n), p2_bound(rho, p_j, mc)
        else:
            est, bound = estimate(
                lambda uv: _policy_integrand(uv[:, 0], uv[:, 1], a, b, rho, p_j), mc, draws_per_sample=2
            )
        return PolicyReport(policy=policy, estimate=est, **{"p1" if semi else "p2": bound})
    # general-dynamic: each block's accepted conditionals join the residual in stream order
    p, n, total = float(policy.p_accept), mc.n_samples, None
    for u in exp_chunks(mc, 3):
        cond = cond_prob_zero_pair_array(g, params, u[:, 0], u[:, 1], u[:, 2])
        total = montecarlo._combine(total, cond[cond <= p])
    residual = montecarlo._finish(total)
    acc_mean = residual.n / n  # the exact count, not a mean of 0/1 values
    acc_stderr = math.sqrt(max(acc_mean * (1.0 - acc_mean), 0.0) / n)
    return PolicyReport(
        policy=policy,
        estimate=Estimate(0.0, 0.0, n),
        acceptance=Estimate(acc_mean, acc_stderr, n),
        residual=residual,
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

    def window_mass(uv: np.ndarray) -> np.ndarray:
        return _window_mass(*_wedge_window(rho, p_j, uv[:, 0], uv[:, 1])[:2])[1]

    return estimate(window_mass, mc, draws_per_sample=2)


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
    """P{near-field secrecy <= s} < 2^s * rho * pi/4 (clipped at 1).

    At s = inf it is 1.  At rho = 0 the near-field secrecy is infinite, so
    it is 0 for every finite s.  Past s = 1000, where 2^s overflows, it is
    taken in log space.
    """
    if not rho >= 0 or math.isnan(s):
        raise InvalidParameterError(f"homogeneous_tail_bound needs rho >= 0 and a level s, got rho={rho}, s={s}")
    if s == math.inf:
        return 1.0
    if rho == 0:
        return 0.0
    if s > 1000.0:
        return math.exp(min(0.0, s * math.log(2.0) + math.log(rho * math.pi / 4.0)))
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
    p_t, rho, p_j = params.p_t, params.rho, params.p_j
    return float(_secrecy_pair_array(g.a, g.b, p_t, rho, p_j, c_tilde, d_tilde, a_tilde, b1_tilde, b2_tilde))
