"""Self-check suites: closed forms against slow references, literal values and identities.

A suite is a generator of (check name, passed, detail) tuples, one per
named check; its name lives only as its key in _SUITES, and run_suite turns
each tuple into a CheckResult under that name, so the CLI can print a
pass/fail table and scripts can gate on the outcome.  Test inputs come from
numpy's default_rng(seed), apart from the Monte Carlo draws, which come
from fdjam.montecarlo's stream.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .colluding import _secrecy_array, opt_jam, positivity, secrecy_ab
from .colluding_fading import (
    JamResponseKind,
    cdf_lower_bound,
    classify_jam_response,
    cond_prob_zero,
    decreasing_prob_complement,
    rho_for_eta,
)
from .geometry import (
    DiskSide,
    LinkGains,
    Region,
    SystemParams,
    gains,
    region4_containment_threshold,
    region_classify,
    rho_disk,
    sign_b_minus_rho_a,
)
from .montecarlo import Estimate, MCConfig, ecdf, estimate, sample_matrix
from .oracles import (
    central_diff,
    deriv_x_axis_even_alpha,
    golden_max_secrecy,
    mc_cond_prob_zero_colluding,
    mc_cond_prob_zero_pair,
    quad_prob_zero_pair,
    second_diff,
)
from .pairwise import (
    _secrecy_pair_array,
    deriv_x_axis,
    lr_asymmetry,
    lr_asymmetry_asymptotic,
    node_peaks,
    origin_curvature,
    pair_hypotheses_hold,
    secrecy_from_t,
    secrecy_pair,
)
from .pairwise_fading import (
    cond_prob_zero_pair,
    homogeneous_secrecy,
    p1_bound,
    pair_terms,
    pj_star,
    prob_zero_nojam,
    prob_zero_nojam_origin,
    semi_dynamic_cap,
)

__all__ = ["CheckResult", "available_suites", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


_Checks = Iterator[tuple[str, bool, str]]  # (check name, passed, detail)


def _binomial_se(p: float, n: int) -> float:
    """Standard error of an n-draw event frequency whose true probability is p.

    Taken from the closed form under test rather than from the sample: a run
    that sees no event has sample stderr 0, which would fail a correct p ~ 1e-9.
    """
    return math.sqrt(p * (1.0 - p) / n)


def _mc_gate(closed: float, mc: Estimate) -> tuple[bool, float]:
    """Whether mc's event frequency is within 4 binomial standard errors of closed, plus 1e-12, and that width."""
    width = 4.0 * _binomial_se(closed, mc.n)
    return abs(closed - mc.mean) <= width + 1e-12, width


def _suite_geometry(seed: int) -> _Checks:
    thr = region4_containment_threshold(0.1, 2.0)
    yield "containment-threshold", abs(thr - 0.008264462809917356) < 1e-15, f"threshold(0.1, 2) = {thr:.12g}"

    worst = 0.0
    for rho in (0.2, 0.7):
        for alpha in (2.0, 3.0):
            disk = rho_disk(rho, alpha)
            for theta in np.linspace(0.0, 2 * math.pi, 17):
                x = -disk.x0 + disk.r * math.cos(theta)
                y = disk.r * math.sin(theta)
                g = gains(x, y, alpha)
                worst = max(worst, abs(g.b - rho * g.a) / (rho * g.a))
    yield "disk-boundary", worst < 1e-9, f"max |b-rho*a| rel = {worst:.2e}"

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(200):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        rho = rng.uniform(0.05, 0.9)
        alpha = float(rng.choice([2.0, 3.0, 4.0]))
        g = gains(x, y, alpha)
        if not (math.isfinite(g.a) and math.isfinite(g.b)):
            continue
        s = sign_b_minus_rho_a(g.a, g.b, rho)
        if s == 0:
            continue
        region = region_classify(g, rho)
        disk = rho_disk(rho, alpha)
        ok &= (s > 0) == (region in (Region.R1, Region.R2)) == disk.secrecy_side(x, y)
    yield "region-disk-consistency", ok, ""

    half = rho_disk(1.0, 2.0)
    ok = half.side is DiskSide.HALF_PLANE and half.secrecy_side(0.1, 5.0) and not half.secrecy_side(-0.1, 5.0)
    yield "rho-one-halfplane", ok, ""


def _suite_optjam(seed: int) -> _Checks:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(200):
        g = LinkGains(a=float(10.0 ** rng.uniform(-3, 3)), b=float(10.0 ** rng.uniform(-3, 3)))
        rho = float(10.0 ** rng.uniform(-4, math.log10(0.5)))
        p_t = float(10.0 ** rng.uniform(0, 4))
        res = opt_jam(g, rho, p_t)
        probes = [0.0, 1e-3, 1.0, 1e3, 1e6]
        if res.p_j_opt > 0:
            probes += [res.p_j_opt * 0.999, res.p_j_opt * 1.001]
        pj = float(10.0 ** rng.uniform(-2, 4))
        # secrecy_ab at the optimum, the probes and pj, as one kernel call
        s = _secrecy_array(g.a, g.b, p_t, rho, np.array([res.p_j_opt, *probes, pj]))
        if np.any(s[1:-1] > s[0] + 1e-10):
            bad += 1
        if positivity(g, SystemParams(p_t=p_t, p_j=pj, rho=rho)) != (s[-1] > 0):
            bad += 1
    yield "stationarity-batch", bad == 0, f"{bad} violations / 200 draws"

    g = LinkGains(a=4.0, b=1.0)
    res = opt_jam(g, 0.01, 100.0)
    pj_o, s_o = golden_max_secrecy(g, 0.01, 100.0)
    s_closed = secrecy_ab(g, SystemParams(p_t=100.0, p_j=res.p_j_opt, rho=0.01))
    ok = abs(res.p_j_opt - pj_o) / pj_o < 1e-6 or abs(s_closed - s_o) < 1e-10
    yield "oracle-example", ok, f"closed form {res.p_j_opt:.6f}, search {pj_o:.6f}"


def _suite_colluding_fading(seed: int) -> _Checks:
    g = LinkGains(a=1.0, b=1.0)
    params = SystemParams(p_t=100.0, p_j=0.0, rho=0.1)
    p = cond_prob_zero(g, params, a_tilde=1.0, b_tilde=2.3)
    yield "no-jam-conditional", abs(p - math.exp(-1.0)) < 1e-15, f"P = {p:.12g}, expect e^-1"

    rng = np.random.default_rng(seed)
    ok = True
    detail = ""
    for _ in range(3):
        g = LinkGains(a=float(10.0 ** rng.uniform(-1, 1)), b=float(10.0 ** rng.uniform(-1, 1)))
        params = SystemParams(p_t=100.0, p_j=float(10.0 ** rng.uniform(-1, 2)), rho=float(rng.uniform(0.01, 0.3)))
        at, bt = float(rng.exponential()), float(rng.exponential())
        closed = cond_prob_zero(g, params, at, bt)
        mc = mc_cond_prob_zero_colluding(g, params, at, bt, MCConfig(seed=seed + 7, n_samples=200_000))
        passed, width = _mc_gate(closed, mc)
        ok &= passed
        detail = f"last gap {abs(closed - mc.mean):.2e} vs 4se {width:.2e}"
    yield "conditional-vs-mc", ok, detail

    a, b = 100.0, 1.1**-2
    comp = decreasing_prob_complement(a, b, rho_for_eta(a, b, 1.01))
    target = math.exp(-100.0) * (101.0 - 100.0 * math.exp(-1.0))
    yield "decreasing-tail", abs(comp - target) / target < 1e-9, f"complement = {comp:.6e}"

    a, b, rho, pr = 100.0, 0.25, 0.003, 0.4
    inf_bound = cdf_lower_bound(pr, a, b, rho, math.inf)
    exact = b * pr / (b * pr + a * rho * (1 - pr))
    yield "cdf-bound-unbounded-jam", abs(inf_bound - exact) < 1e-15, ""

    ok = True
    for _ in range(50):
        g = LinkGains(a=float(10.0 ** rng.uniform(-1, 1)), b=float(10.0 ** rng.uniform(-1, 1)))
        rho = float(rng.uniform(0.02, 0.5))
        at, bt = float(rng.exponential()), float(rng.exponential())
        resp = classify_jam_response(g, rho, at, bt)

        def prob(pj: float) -> float:
            return cond_prob_zero(g, SystemParams(p_t=1.0, p_j=pj, rho=rho), at, bt)

        # the classes name the P_J that minimizes the zero-secrecy probability
        if resp.kind is JamResponseKind.OPTIMAL_INFINITE:
            ok &= prob(1e9) <= prob(1.0) + 1e-12 and prob(1e9) <= prob(1e4) + 1e-12
        elif resp.kind is JamResponseKind.OPTIMAL_FINITE:
            pj = resp.p_j_opt
            ok &= prob(pj) <= prob(pj * 0.8) + 1e-12 and prob(pj) <= prob(pj * 1.25) + 1e-12
        else:
            ok &= prob(0.0) <= prob(1.0) + 1e-12 and prob(0.0) <= prob(100.0) + 1e-12
    yield "jam-response-classes", ok, ""


def _suite_pairwise(seed: int) -> _Checks:
    rng = np.random.default_rng(seed)

    ok = True
    for _ in range(100):
        g = LinkGains(a=float(10.0 ** rng.uniform(-2, 2)), b=float(10.0 ** rng.uniform(-2, 2)))
        params = SystemParams(p_t=100.0, p_j=float(10.0 ** rng.uniform(-1, 3)), rho=float(rng.uniform(0, 0.5)))
        ok &= abs(secrecy_pair(g, params) - secrecy_pair(g.swapped(), params)) < 1e-12
    yield "swap-symmetry", ok, ""

    draws, s_t = [], []  # (a, b, P_T, P_J, rho) and secrecy_from_t there
    while len(draws) < 50:
        g = LinkGains(a=float(rng.uniform(0.05, 0.8)), b=float(rng.uniform(0.05, 0.8)))
        params = SystemParams(
            p_t=float(10.0 ** rng.uniform(1, 3)),
            p_j=float(10.0 ** rng.uniform(1, 3)),
            rho=float(rng.uniform(1e-4, 0.01)),
        )
        if not pair_hypotheses_hold(g, params):
            continue
        draws.append((g.a, g.b, params.p_t, params.p_j, params.rho))
        s_t.append(secrecy_from_t(g, params))
    a, b, p_t, p_j, rho = np.array(draws).T
    s_p = _secrecy_pair_array(a, b, p_t, rho, p_j)  # secrecy_pair's kernel, one call
    yield "t-factor-identity", bool(np.all(np.abs(np.array(s_t) - s_p) < 1e-10 * np.maximum(1.0, s_p))), ""

    params = SystemParams(p_t=100.0, p_j=1e4, rho=1e-4)
    worst = 0.0
    for d in (0.3, 0.7, 1.4):
        fd = central_diff(lambda dd: secrecy_pair(gains(dd - 0.5, 0.0, params.alpha), params), d, 1e-5)
        an = deriv_x_axis(d, params)
        worst = max(worst, abs(an - fd) / abs(fd))
        worst = max(worst, abs(deriv_x_axis_even_alpha(d, params) - an) / abs(an))
    yield "axis-derivative-fd", worst < 1e-4, f"max rel err = {worst:.2e}"

    params = SystemParams(p_t=100.0, p_j=50.0, rho=0.1)
    coef = origin_curvature(params)
    s2 = second_diff(lambda x: secrecy_pair(gains(x, 0.0, params.alpha), params), 0.0, 1e-3)
    yield "origin-curvature-sign", (coef > 0) == (s2 < 0), f"coef = {coef:.4g}, sampled S'' = {s2:.4g}"

    peak = node_peaks(SystemParams(p_t=100.0, p_j=100.0, rho=0.01))
    yield "node-peak", abs(peak - 0.5 * math.log2(51.0)) < 1e-12, f"peak = {peak:.4f}"

    params = SystemParams(p_t=1e6, p_j=1e4, rho=1e-4, delta=0.05)
    _, _, diff = lr_asymmetry(0.05, params)
    asym = lr_asymmetry_asymptotic(0.05, params)
    yield "lr-asymmetry", abs(diff - asym) / asym < 0.01, f"exact {diff:.2f} vs asymptotic {asym:.2f}"


def _suite_pairwise_fading(seed: int) -> _Checks:
    g0 = LinkGains(a=4.0, b=4.0)
    params = SystemParams(p_t=100.0, p_j=1.0, rho=0.1)
    t = pair_terms(g0, params, 1.0, 1.0, 1.0)
    closed = cond_prob_zero_pair(g0, params, 1.0, 1.0, 1.0)
    ok = abs(t.k - 1.0 / 21.0) < 1e-12 and abs(t.e_exp - 5.0) < 1e-12 and abs(closed - 3.2085e-4) < 5e-8
    yield "symmetric-example", ok, f"K={t.k:.6f} E={t.e_exp:.4f} P={closed:.4e}"

    quad = quad_prob_zero_pair(g0, params, 1.0, 1.0, 1.0)
    yield "quadrature-example", abs(closed - quad) < 2e-4, f"closed {closed:.6e} vs quad {quad:.6e}"

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(3):
        g = LinkGains(a=float(10.0 ** rng.uniform(-0.5, 1)), b=float(10.0 ** rng.uniform(-0.5, 1)))
        params = SystemParams(p_t=100.0, p_j=float(10.0 ** rng.uniform(-1, 1.5)), rho=float(rng.uniform(0.01, 0.3)))
        at, b1, b2 = (float(rng.exponential()) for _ in range(3))
        closed = cond_prob_zero_pair(g, params, at, b1, b2)
        mc = mc_cond_prob_zero_pair(g, params, at, b1, b2, MCConfig(seed=seed + 11, n_samples=200_000))
        ok &= _mc_gate(closed, mc)[0]
    yield "conditional-vs-mc", ok, ""

    star = pj_star(1.0, 1.0, 1.0, 0.1)
    gate_ok = star is not None and abs(star - 10.0 / 9.0) < 1e-12
    if gate_ok:
        above = cond_prob_zero_pair(g0, SystemParams(p_t=1.0, p_j=star * 1.001, rho=0.1), 1.0, 1.0, 1.0)
        below = cond_prob_zero_pair(g0, SystemParams(p_t=1.0, p_j=star * 0.999, rho=0.1), 1.0, 1.0, 1.0)
        gate_ok = above == 0.0 and below > 0.0
    yield "jam-power-gate", gate_ok, f"P_J* = {star}"

    origin = prob_zero_nojam_origin(2.0)
    ok = abs(origin - 2.0 / 3.0) < 1e-15 and abs(prob_zero_nojam(LinkGains(a=4.0, b=4.0)) - 2.0 / 3.0) < 1e-15
    yield "no-jam-origin", ok, f"P = {origin:.6f}"

    # the true gap to the cap is ~rho^2/2, so the sample size must keep
    # 3 standard errors well inside 5e-5 at rho = 0.01
    rho = 0.01
    p1 = p1_bound(rho, MCConfig(seed=seed, n_samples=1_000_000))
    cap = semi_dynamic_cap(rho)
    yield "p1-under-cap", p1.mean + 3.0 * p1.stderr < cap, f"P1 = {p1.mean:.3e} < pi*rho/4 = {cap:.3e}"

    s = homogeneous_secrecy(1.0, 1.0, 1.0, 0.1)
    yield "homogeneous-value", abs(s - math.log2(10.0)) < 1e-12, f"S = {s:.4f}"


def _suite_montecarlo(seed: int) -> _Checks:
    cfg = MCConfig(seed=seed, n_samples=200_000)
    est = estimate(lambda u: u, cfg)
    yield "unit-mean", abs(est.mean - 1.0) <= 5.0 * est.stderr, f"mean = {est.mean:.5f} +- {est.stderr:.5f}"

    same = est == estimate(lambda u: u, cfg) and bool(np.array_equal(sample_matrix(cfg, 1), sample_matrix(cfg, 1)))
    yield "determinism", same, ""

    const = estimate(lambda u: np.full(u.shape[0], 2.5), MCConfig(seed=seed, n_samples=10_000))
    yield "constant-stderr", const.mean == 2.5 and const.stderr == 0.0, ""

    f = ecdf(np.array([3.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.5, 3.0]))
    yield "ecdf-steps", bool(np.allclose(f, [0.0, 1 / 3, 1 / 3, 1.0])), ""


_SUITES = {
    "geometry": _suite_geometry,
    "optjam": _suite_optjam,
    "colluding-fading": _suite_colluding_fading,
    "pairwise": _suite_pairwise,
    "pairwise-fading": _suite_pairwise_fading,
    "montecarlo": _suite_montecarlo,
}


def available_suites() -> list[str]:
    return [*_SUITES.keys(), "all"]


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or every suite for name="all"."""
    if name not in available_suites():
        raise KeyError(f"unknown suite {name!r}; choose from {available_suites()}")
    names = list(_SUITES) if name == "all" else [name]
    return [CheckResult(key, check, bool(ok), detail) for key in names for check, ok, detail in _SUITES[key](seed)]
