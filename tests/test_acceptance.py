"""End-to-end acceptance gates.

One test per headline claim; each prints a single [PASS]/[FAIL] line with
the measured numbers so the suite output doubles as a report.  Budgets on
wall time are asserted with the same generosity they were stated with.

The near-field flatness gate runs where `near_far_field` promises the
plateau: rho below the containment threshold and a margin
delta^alpha * sqrt(rho*P_T) of at least 10.  At rho = 0.01 and 60 dB that
fixes delta = sqrt(0.1) (margin 10; the field spreads 0.052 bits between
the rings).  The default delta = 0.1 is outside that regime (rho is above
its threshold 0.00826 and the margin is 1): there the exact field spreads
0.4786 bits (its dip on the inner ring near (+-0.49, -0.10) is real), and
the test asserts that `near_far_field` rejects that setting.
"""

import math
import time
import warnings

import numpy as np
import pytest

from fdjam import cli
from fdjam.colluding import opt_jam, secrecy_ab, worst_location
from fdjam.colluding_fading import (
    cdf_lower_bound,
    cond_prob_zero,
    decreasing_prob_complement,
    rho_for_eta,
    sample_cond_prob_zero,
    uncond_prob_zero,
    uncond_upper_bound,
)
from fdjam.fields import GridSpec, build_field
from fdjam.geometry import (
    LinkGains,
    Region,
    SystemParams,
    gain_fields,
    gains,
    region4_containment_threshold,
)
from fdjam.montecarlo import MCConfig, ecdf, sample_matrix
from fdjam.oracles import (
    bisect_max_secrecy,
    golden_max_secrecy,
    mc_cond_prob_zero_colluding,
    mc_cond_prob_zero_pair,
    quad_prob_zero_pair,
)
from fdjam.pairwise import (
    deriv_x_axis,
    near_far_field,
    origin_extremum,
    positivity_nojam,
    secrecy_pair,
    singularity_asymptote,
)
from fdjam.pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    cond_prob_zero_pair,
    cond_prob_zero_pair_array,
    p1_bound,
    p2_bound,
    pair_terms,
    pj_star,
    policy_prob_zero,
    semi_dynamic_cap,
)
from fdjam.colluding import zero_region_predicate
from fdjam.errors import RegimeWarning, UnsupportedRegimeError


def _report(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{tag}] {name}{suffix}")
    return ok


def _score_z(p_hat: float, p0: float, n: int) -> float:
    """Distance in standard errors under the closed form.

    The standard error is taken at the closed-form value, so the statistic
    stays meaningful when the empirical count is zero; p0 in {0, 1}
    requires an exact match.
    """
    if p0 <= 0.0 or p0 >= 1.0:
        return 0.0 if p_hat == p0 else math.inf
    return abs(p_hat - p0) / math.sqrt(p0 * (1.0 - p0) / n)


def test_containment_threshold() -> None:
    t0 = time.perf_counter()
    thr = region4_containment_threshold(0.1, 2.0)
    dt = time.perf_counter() - t0
    db = 10.0 * math.log10(thr)
    ok = (
        abs(thr - 0.008264462809917356) < 1e-15
        and round(thr, 3) == 0.008
        and round(db) == -21
        and dt < 1e-3
    )
    assert _report(
        "containment-threshold", ok, f"rho < {thr:.6f} = {db:.1f} dB, {dt * 1e6:.0f} us"
    )


def test_optimal_jamming_matches_search_oracle() -> None:
    """opt_jam against the grid search, and its interior optima against the bisected slope to 1e-9."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    bad = interior = 0
    regions = {r: 0 for r in Region}
    draws = []
    for _ in range(10_000):
        a = float(10.0 ** rng.uniform(-3, 3))
        b = float(10.0 ** rng.uniform(-3, 3))
        rho = float(10.0 ** rng.uniform(-4, math.log10(0.5)))
        p_t = float(10.0 ** rng.uniform(0, 4))
        draws.append((LinkGains(a, b), rho, p_t))
    gs, rhos, p_ts = zip(*draws)
    searched = golden_max_secrecy(gs, np.array(rhos), np.array(p_ts))  # one lane per draw
    roots = bisect_max_secrecy(gs, np.array(rhos), np.array(p_ts))
    for (g, rho, p_t), pj_o, s_o, root in zip(draws, *searched, roots):
        res = opt_jam(g, rho, p_t)
        regions[res.region] += 1
        s_c = secrecy_ab(g, SystemParams(p_t=p_t, p_j=res.p_j_opt, rho=rho))
        rel = abs(res.p_j_opt - pj_o) / max(res.p_j_opt, 1e-30)
        if not (rel < 1e-6 or s_o - s_c < 1e-10):
            bad += 1
        if not math.isnan(root):  # an interior optimum: the zero of dS/dP_J
            interior += 1
            bad += not abs(res.p_j_opt - root) <= 1e-9 * root
    dt = time.perf_counter() - t0
    spanned = all(regions[r] > 0 for r in (Region.R1, Region.R2, Region.R3))
    ok = bad == 0 and spanned and interior > 5000 and dt < 60.0
    assert _report(
        "optimal-jamming-oracle",
        ok,
        f"10000 draws, {interior} interior, {bad} outside tolerance, regions "
        + "/".join(str(regions[r]) for r in Region)
        + f", {dt:.1f} s",
    )


def _masked_grid_argmin(params: SystemParams, step: float) -> tuple[float, float]:
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, step)
    fg = build_field("colluding", params, spec)
    xm, ym = np.meshgrid(spec.xs(), spec.ys())
    masked = np.where(np.hypot(xm + 0.5, ym) >= params.delta, fg.values, np.inf)
    iy, ix = np.unravel_index(int(np.argmin(masked)), masked.shape)
    return float(spec.xs()[ix]), float(spec.ys()[iy])


def test_worst_location_grid_argmin() -> None:
    regimes = (
        SystemParams(p_t=100.0, p_j=1000.0, rho=0.005, alpha=2.0, delta=0.1),
        SystemParams(p_t=100.0, p_j=2000.0, rho=0.002, alpha=3.0, delta=0.2),
    )
    step = 0.01
    details, ok = [], True
    for params in regimes:
        t0 = time.perf_counter()
        loc = worst_location(params)
        x, y = _masked_grid_argmin(params, step)
        dt = time.perf_counter() - t0
        # the cell at the exclusion boundary can fall to float rounding of
        # the grid coordinates, so the argmin may sit one step inward
        cheb = max(abs(x - loc.x), abs(y - loc.y))
        ok = ok and cheb <= step + 1e-9 and dt < 30.0
        details.append(f"target ({loc.x:g},{loc.y:g}) argmin ({x:g},{y:g}) in {dt:.1f} s")
    assert _report("worst-location-argmin", ok, "; ".join(details))


def test_colluding_fading_closed_form_vs_simulation() -> None:
    rng = np.random.default_rng(11)
    n = 10**6
    t0 = time.perf_counter()
    worst, bad = 0.0, 0
    for i in range(100):
        g = LinkGains(float(10.0 ** rng.uniform(-1.5, 1.5)), float(10.0 ** rng.uniform(-1.5, 1.5)))
        params = SystemParams(
            p_t=float(10.0 ** rng.uniform(0, 3)),
            p_j=float(10.0 ** rng.uniform(-1, 3)),
            rho=float(rng.uniform(0.005, 0.3)),
        )
        at, bt = (float(v) for v in rng.exponential(size=2))
        p0 = cond_prob_zero(g, params, at, bt)
        est = mc_cond_prob_zero_colluding(g, params, at, bt, MCConfig(seed=101 + i, n_samples=n))
        z = _score_z(est.mean, p0, n)
        worst = max(worst, z)
        if z > 3.0:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 120.0
    assert _report(
        "colluding-fading-closed-form",
        ok,
        f"100 sets x 1e6 samples, worst z = {worst:.2f}, {dt:.1f} s",
    )


def test_decreasing_response_tail_mass() -> None:
    g = gains(-0.6, 0.0, 2.0)
    rho = rho_for_eta(g.a, g.b, 1.01)
    t0 = time.perf_counter()
    comp = decreasing_prob_complement(g.a, g.b, rho)
    dt = time.perf_counter() - t0
    exact = math.exp(-100.0) * (101.0 - 100.0 * math.exp(-1.0))
    ok = (
        abs(comp - exact) / exact < 1e-9
        and 2.1e-42 <= comp <= 2.5e-42
        and dt < 1e-3
    )
    assert _report(
        "decreasing-response-tail",
        ok,
        f"1 - P = {comp:.6e} vs analytic {exact:.6e}, {dt * 1e6:.0f} us",
    )


def test_unconditional_probability_half_plateau() -> None:
    g = gains(-0.6, 0.0, 2.0)
    rho = rho_for_eta(g.a, g.b, 1.01)
    mc = MCConfig(seed=42, n_samples=100_000)
    t0 = time.perf_counter()
    means, ok = [], True
    for db in (40.0, 50.0, 60.0):
        params = SystemParams(p_t=100.0, p_j=10.0 ** (db / 10.0), rho=rho)
        est = uncond_prob_zero(g, params, mc)
        bound = uncond_upper_bound(g, params, mc)
        means.append(est.mean)
        ok = ok and abs(est.mean - 0.5) <= 0.05 and est.mean < bound.mean
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    assert _report(
        "unconditional-half-plateau",
        ok,
        "P(S=0) = " + "/".join(f"{m:.4f}" for m in means) + f" at 40/50/60 dB, {dt:.1f} s",
    )


def test_cdf_bound_dominated_and_exact_at_unbounded_power() -> None:
    g = gains(-0.6, 0.0, 2.0)
    rho = 0.01
    levels = np.arange(0.05, 0.951, 0.05)
    n = 4_000_000
    t0 = time.perf_counter()
    worst_onesided = -math.inf
    for db in (20.0, 30.0, 40.0):
        params = SystemParams(p_t=100.0, p_j=10.0 ** (db / 10.0), rho=rho)
        cond = sample_cond_prob_zero(g, params, MCConfig(seed=77, n_samples=n))
        emp = ecdf(cond, levels)
        for p, f_hat in zip(levels, emp):
            bound = cdf_lower_bound(float(p), g.a, g.b, rho, params.p_j)
            se = math.sqrt(max(f_hat * (1.0 - f_hat), 1e-12) / n)
            worst_onesided = max(worst_onesided, (bound - f_hat) / se)
    inf_params = SystemParams(p_t=100.0, p_j=math.inf, rho=rho)
    cond = sample_cond_prob_zero(g, inf_params, MCConfig(seed=78, n_samples=n))
    emp = ecdf(cond, levels)
    worst_exact = 0.0
    for p, f_hat in zip(levels, emp):
        target = cdf_lower_bound(float(p), g.a, g.b, rho, math.inf)
        worst_exact = max(worst_exact, _score_z(float(f_hat), target, n))
    dt = time.perf_counter() - t0
    ok = worst_onesided <= 3.0 and worst_exact <= 3.0 and dt < 180.0
    assert _report(
        "cdf-lower-bound",
        ok,
        f"worst one-sided slack {worst_onesided:.2f} se, unbounded-power worst z = {worst_exact:.2f}, {dt:.1f} s",
    )


def test_pairwise_no_jam_probabilities() -> None:
    from fdjam.pairwise_fading import prob_zero_nojam, prob_zero_nojam_origin, secrecy_sample_pair

    n = 10**6
    t0 = time.perf_counter()
    results, ok = [], True
    params = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    for point, target in (((0.0, 0.0), 2.0 / 3.0), ((0.5, 0.0), 0.5), ((-0.5, 0.0), 0.5)):
        g = gains(point[0], point[1], 2.0)
        assert prob_zero_nojam(g) == pytest.approx(target)
        draws = sample_matrix(MCConfig(seed=31, n_samples=n), 3)
        # the raw event: the legit fading loses to both eavesdropping phases
        with np.errstate(invalid="ignore"):
            first = draws[:, 0] <= g.a * draws[:, 1] if math.isfinite(g.a) else np.ones(n, bool)
            second = draws[:, 0] <= g.b * draws[:, 2] if math.isfinite(g.b) else np.ones(n, bool)
        p_hat = float((first & second).mean())
        z = _score_z(p_hat, target, n)
        results.append(f"({point[0]:g},{point[1]:g}): {p_hat:.4f} z={z:.2f}")
        ok = ok and z <= 3.0
    assert prob_zero_nojam_origin(2.0) == pytest.approx(2.0 / 3.0)
    # spot check that the raw event equals the sampled-secrecy zero event
    g = gains(0.0, 0.0, 2.0)
    rng = np.random.default_rng(32)
    for at, c, d in rng.exponential(size=(200, 3)):
        sampled_zero = (
            secrecy_sample_pair(g, params, float(c), float(d), a_tilde=float(at)) == 0.0
        )
        assert sampled_zero == (at <= g.a * c and at <= g.b * d)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    assert _report("pairwise-no-jam-probabilities", ok, "; ".join(results) + f", {dt:.1f} s")


def test_pairwise_fading_closed_form_vs_oracles() -> None:
    rng = np.random.default_rng(13)
    n = 10**6
    t0 = time.perf_counter()
    worst_quad, worst_z, bad = 0.0, 0.0, 0
    for i in range(200):
        x = float(rng.uniform(-1.5, 1.5))
        y = float(rng.uniform(-1.5, 1.5))
        g = gains(x, y, 2.0)
        rho = float(rng.uniform(0.01, 0.4))
        p_t = float(10.0 ** rng.uniform(0, 2))
        at, b1, b2 = (float(v) for v in rng.exponential(size=3))
        if i % 5 == 4:
            star = pj_star(at, b1, b2, rho)
            p_j = (
                star * (1.0 - 10.0 ** rng.uniform(-8, -3))
                if star is not None
                else float(10.0 ** rng.uniform(-1, 2))
            )
        else:
            p_j = float(10.0 ** rng.uniform(-1, 2))
        params = SystemParams(p_t=p_t, p_j=p_j, rho=rho)
        p0 = cond_prob_zero_pair(g, params, at, b1, b2)
        quad = quad_prob_zero_pair(g, params, at, b1, b2)
        worst_quad = max(worst_quad, abs(p0 - quad))
        est = mc_cond_prob_zero_pair(g, params, at, b1, b2, MCConfig(seed=211 + i, n_samples=n))
        z = _score_z(est.mean, p0, n)
        worst_z = max(worst_z, z)
        if abs(p0 - quad) >= 1e-4 or z > 3.0:
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 300.0
    assert _report(
        "pairwise-fading-closed-form",
        ok,
        f"200 sets, worst quad gap {worst_quad:.2e}, worst z = {worst_z:.2f}, {dt:.1f} s",
    )


def test_jam_power_gate_switches_exactly() -> None:
    rng = np.random.default_rng(19)
    g = gains(0.1, -0.2, 2.0)
    t0 = time.perf_counter()
    checked, bad = 0, 0
    while checked < 1000:
        at, b1, b2 = (float(v) for v in rng.exponential(size=3))
        rho = float(rng.uniform(0.01, 0.5))
        star = pj_star(at, b1, b2, rho)
        if star is None:
            continue
        checked += 1
        above = SystemParams(p_t=1.0, p_j=star * 1.001, rho=rho)
        below = SystemParams(p_t=1.0, p_j=star * 0.999, rho=rho)
        if cond_prob_zero_pair(g, above, at, b1, b2) != 0.0:
            bad += 1
            continue
        # below the gate the probability K*exp(-E) is positive; the float
        # product may underflow, so positivity is certified in log space
        t = pair_terms(g, below, at, b1, b2)
        if not (t.k > 0.0 and math.isfinite(t.e_exp)):
            bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 10.0
    assert _report("jam-power-gate", ok, f"1000 gated triples, {bad} bad, {dt:.1f} s")


def test_policy_bound_chain(capsys) -> None:
    g = gains(0.0, 0.0, 2.0)
    n = 10**6
    t0 = time.perf_counter()
    chain, ok = [], True
    for rho in (0.1, 0.01):
        mc = MCConfig(seed=5, n_samples=n)
        params = SystemParams(p_t=1.0, p_j=10.0, rho=rho)
        semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
        cap = semi_dynamic_cap(rho)
        ok = ok and semi.estimate.mean < semi.p1.mean < cap
        chain.append(f"rho={rho:g}: {semi.estimate.mean:.4e} < {semi.p1.mean:.4e} < {cap:.4e}")
    mc = MCConfig(seed=5, n_samples=n)
    gaps = []
    for db in range(0, 61, 10):
        p_j = 10.0 ** (db / 10.0)
        p1 = p1_bound(0.01, mc)
        p2 = p2_bound(0.01, p_j, mc)
        ok = ok and p1.mean < p2.mean
        gaps.append(p2.mean - p1.mean)
    ok = ok and all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:])) and gaps[-1] < 1e-5
    rc = cli.main(["policy", "--rho", "0.01", "--pt", "1", "--samples", "20000", "--seed", "5"])
    table = capsys.readouterr().out
    ok = ok and rc == 0 and "constant" in table and "semi_dyn" in table and table.count("\n") >= 9
    dt = time.perf_counter() - t0
    ok = ok and dt < 180.0
    assert _report(
        "policy-bound-chain",
        ok,
        "; ".join(chain) + f"; ladder gap {gaps[0]:.2e} -> {gaps[-1]:.2e}, {dt:.1f} s",
    )


def test_near_field_plateau_level_and_flatness() -> None:
    rho, p_t, alpha = 0.01, 1e6, 2.0
    # the smallest exclusion radius at which near_far_field's margin
    # delta^alpha * sqrt(rho*P_T) reaches 10 at this power
    delta = (10.0 / math.sqrt(rho * p_t)) ** (1.0 / alpha)
    params = SystemParams(p_t=p_t, p_j=math.sqrt(p_t / rho), rho=rho, alpha=alpha, delta=delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RegimeWarning)
        field = near_far_field(params)
    # the default delta = 0.1 leaves the regime: rho = 0.01 is above its
    # containment threshold and the margin is only 1
    with pytest.raises(UnsupportedRegimeError):
        near_far_field(SystemParams(p_t=p_t, p_j=params.p_j, rho=rho, alpha=alpha))
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.01)
    t0 = time.perf_counter()
    fg = build_field("pairwise", params, spec)
    xm, ym = np.meshgrid(spec.xs(), spec.ys())
    d_a = np.hypot(xm + 0.5, ym)
    d_b = np.hypot(xm - 0.5, ym)
    ring = (d_a > params.delta) & (d_a < 1.0) & (d_b > params.delta) & (d_b < 1.0)
    vals = fg.values[ring]
    dt = time.perf_counter() - t0
    mean = float(vals.mean())
    spread = float(vals.max() - vals.min())
    ok = abs(mean - field.near) <= 0.2 and spread <= 0.3 and dt < 30.0
    assert _report(
        "near-field-flatness",
        ok,
        f"delta {params.delta:.4f}, margin {field.margin:.3g}; mean {mean:.4f} bits "
        f"(target {field.near:.2f} +- 0.2), spread {spread:.4f} bits (gate 0.3), {dt:.1f} s",
    )


def test_derivative_suite() -> None:
    t0 = time.perf_counter()
    # closed axis derivative vs central differences away from the bands
    params = SystemParams(p_t=100.0, p_j=1e4, rho=1e-4)

    def s_axis(d: float) -> float:
        return secrecy_pair(gains(d - 0.5, 0.0, params.alpha), params)

    worst_fd = 0.0
    for d in (0.3, 0.7, 1.4):
        closed = deriv_x_axis(d, params)
        fd = (s_axis(d + 1e-6) - s_axis(d - 1e-6)) / 2e-6
        worst_fd = max(worst_fd, abs(closed - fd) / abs(fd))
    ok = worst_fd < 1e-4

    # pole behavior approaching the receiving endpoint
    sing = SystemParams(p_t=100.0, p_j=2e6, rho=1e-9)
    x = 0.5 - 1e-3
    rel = abs(deriv_x_axis(x + 0.5, sing) - singularity_asymptote(x, 2.0)) / abs(
        singularity_asymptote(x, 2.0)
    )
    ok = ok and rel <= 0.05

    # origin classification vs sampled curvature on hypothesis-true draws.
    # Just above the P_J floor the convexity radius shrinks, so a fixed
    # step misreads the sign; shrink the step and read the sign at the
    # smallest one still above the float noise of the second difference,
    # demanding the two smallest agree.
    rng = np.random.default_rng(23)
    checked, skipped, bad = 0, 0, 0
    while checked < 1000:
        p = SystemParams(
            p_t=float(10.0 ** rng.uniform(0, 4)),
            p_j=float(10.0 ** rng.uniform(-1, 4)),
            rho=float(rng.uniform(0.0, 0.9)),
        )
        floor = (1.0 - 2.0**-p.alpha) / (1.0 - p.rho)
        if not p.p_j > floor:
            continue
        checked += 1

        def s_at(xv: float) -> float:
            return secrecy_pair(gains(xv, 0.0, p.alpha), p)

        s0 = s_at(0.0)
        noise = 1e3 * np.finfo(float).eps * max(abs(s0), 1.0)
        resolved = []
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            sampled = s_at(h) + s_at(-h) - 2.0 * s0
            if abs(sampled) > noise:
                resolved.append(sampled)
        if len(resolved) < 2 or (resolved[-1] < 0.0) != (resolved[-2] < 0.0):
            skipped += 1
            continue
        klass = origin_extremum(p)
        if (resolved[-1] < 0.0) != (klass.value == "local-max"):
            bad += 1
    dt = time.perf_counter() - t0
    ok = ok and bad == 0 and skipped <= 20 and dt < 60.0
    assert _report(
        "derivative-suite",
        ok,
        f"fd rel {worst_fd:.1e}, pole rel {rel:.3f}, classification {bad} bad / {skipped} skipped, {dt:.1f} s",
    )


def test_small_conditional_probability_mass() -> None:
    g = gains(0.0, 0.0, 2.0)
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    t0 = time.perf_counter()
    draws = sample_matrix(MCConfig(seed=12, n_samples=10_000), 3)
    cond = cond_prob_zero_pair_array(g, params, draws[:, 0], draws[:, 1], draws[:, 2])
    share = float((cond < 1e-4).mean())
    dt = time.perf_counter() - t0
    ok = share >= 0.10 and dt < 60.0
    assert _report(
        "small-conditional-mass",
        ok,
        f"{share * 100:.1f}% of 1e4 fading draws below 1e-4, {dt:.1f} s",
    )


def test_field_structure_matches_predicates() -> None:
    t0 = time.perf_counter()
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.05)
    xm, ym = np.meshgrid(spec.xs(), spec.ys())
    a_f, b_f = gain_fields(xm, ym, 2.0)

    # colluding zero set == R4 union the low-power cap region
    params = SystemParams(p_t=100.0, p_j=math.sqrt(100.0 / 0.1), rho=0.1)
    coll = build_field("colluding", params, spec)
    mismatch = 0
    for iy in range(spec.ny):
        for ix in range(spec.nx):
            g = LinkGains(a=float(a_f[iy, ix]), b=float(b_f[iy, ix]))
            if zero_region_predicate(g, params) != (coll.values[iy, ix] == 0.0):
                mismatch += 1

    # no-jam pairwise positivity boundary is the two-unit-disk lens
    nojam = SystemParams(p_t=100.0, p_j=0.0, rho=0.1)
    pair = build_field("pairwise", nojam, spec)
    lens_mismatch = 0
    for iy in range(spec.ny):
        for ix in range(spec.nx):
            g = LinkGains(a=float(a_f[iy, ix]), b=float(b_f[iy, ix]))
            if positivity_nojam(g) != (pair.values[iy, ix] > 0.0):
                lens_mismatch += 1
    dt = time.perf_counter() - t0
    ok = mismatch == 0 and lens_mismatch == 0 and dt < 60.0
    assert _report(
        "field-structure",
        ok,
        f"zero-region mismatches {mismatch}, lens mismatches {lens_mismatch} over {spec.nx * spec.ny} cells, {dt:.1f} s",
    )
