"""Zero-secrecy probabilities under Rayleigh fading, colluding eavesdroppers.

The conditional closed form exp(-v2)/(1+v1) is cross-checked against a raw
frequency count, and the jam-response taxonomy against probe minimization.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fdjam.colluding_fading import (
    _B_CHECK_RULE,
    _B_RULE,
    JamResponseKind,
    _cond_prob_zero_array,
    _gauss_legendre,
    _prob_zero_cubature,
    _v_arrays,
    cdf_lower_bound,
    classify_jam_response,
    cond_prob_zero,
    decreasing_prob_complement,
    decreasing_prob_lower_bound,
    rho_for_eta,
    sample_cond_prob_zero,
    secrecy_sample,
    uncond_prob_zero,
    uncond_upper_bound,
)
from fdjam.errors import InvalidParameterError
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam.montecarlo import MCConfig, estimate
from fdjam.oracles import mc_cond_prob_zero_colluding, quad_prob_zero_colluding


def test_v_terms_unit_fading() -> None:
    g = LinkGains(4.0, 1.0)
    params = SystemParams(p_t=100.0, p_j=50.0, rho=0.01)
    v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, params.rho, params.p_j, 1.0, 1.0))
    den = 4.0 * (1.0 + 0.01 * 50.0)
    assert v1 == pytest.approx(50.0 / den)
    assert v2 == pytest.approx(1.0 / den)
    assert cond_prob_zero(g, params, 1.0, 1.0) == pytest.approx(math.exp(-v2) / (1.0 + v1))


def test_no_jamming_conditional() -> None:
    # v1 vanishes with P_J, leaving exp(-A~/a)
    g = gains(-1.5, 0.0, 2.0)  # d_A = 1, so a = 1
    params = SystemParams(p_t=100.0, p_j=0.0, rho=0.1)
    assert cond_prob_zero(g, params, 1.0, 1.0) == pytest.approx(math.exp(-1.0))
    assert cond_prob_zero(g, params, 2.0, 7.0) == pytest.approx(math.exp(-2.0))


def test_no_jamming_at_the_receiver_node() -> None:
    # Eve on (0.5, 0): b = inf, and without jamming v1 = 0, v2 = A~/a
    g = gains(0.5, 0.0, 2.0)
    assert math.isinf(g.b) and g.a == 1.0
    params = SystemParams(p_t=100.0, p_j=0.0, rho=0.1)
    v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, params.rho, params.p_j, 2.0, 7.0))
    assert (v1, v2) == (0.0, 2.0)
    assert cond_prob_zero(g, params, 2.0, 7.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    a_t, b_t = np.array([0.5, 2.0]), np.array([1.0, 7.0])
    arr = _cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, a_t, b_t)
    np.testing.assert_allclose(arr, np.exp(-a_t), rtol=1e-15)
    mc = MCConfig(seed=4, n_samples=5000)
    p = uncond_prob_zero(g, params, mc)
    same_stream = estimate(lambda u: np.exp(-u[:, 0]), mc, draws_per_sample=2)
    assert p.mean == pytest.approx(same_stream.mean, rel=1e-12)
    assert p.stderr > 0.0
    ub = uncond_upper_bound(g, params, mc)
    assert (ub.mean, ub.stderr) == (1.0, 0.0)


def test_infinite_jamming_conditional() -> None:
    g = LinkGains(2.0, 1.0)
    params = SystemParams(p_t=100.0, p_j=math.inf, rho=0.1)
    v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, params.rho, params.p_j, 1.5, 0.5))
    assert v2 == 0.0
    assert v1 == pytest.approx((1.0 / 2.0) * 1.5 / (0.1 * 0.5))
    assert cond_prob_zero(g, params, 1.5, 0.5) == pytest.approx(1.0 / (1.0 + v1))


def test_conditional_decreases_in_legit_fading() -> None:
    g = LinkGains(4.0, 1.0)
    params = SystemParams(p_t=100.0, p_j=20.0, rho=0.05)
    probs = [cond_prob_zero(g, params, at, 1.0) for at in (0.1, 0.5, 1.0, 3.0)]
    assert all(p0 > p1 for p0, p1 in zip(probs, probs[1:]))


def test_conditional_matches_frequency_count() -> None:
    g = gains(-0.6, 0.0, 2.0)
    params = SystemParams(p_t=100.0, p_j=30.0, rho=0.01)
    closed = cond_prob_zero(g, params, 0.8, 1.3)
    est = mc_cond_prob_zero_colluding(g, params, 0.8, 1.3, MCConfig(seed=10, n_samples=200_000))
    se = math.sqrt(closed * (1.0 - closed) / est.n)
    assert abs(est.mean - closed) <= 3.0 * se


def test_unconditional_below_upper_bound() -> None:
    g = gains(-0.6, 0.0, 2.0)
    params = SystemParams(p_t=100.0, p_j=100.0, rho=0.01)
    mc = MCConfig(seed=2, n_samples=100_000)
    p = uncond_prob_zero(g, params, mc)
    ub = uncond_upper_bound(g, params, mc)
    # dominance holds draw by draw on the shared stream
    assert p.mean < ub.mean
    samples = sample_cond_prob_zero(g, params, mc)
    assert samples.shape == (mc.n_samples,)
    assert p.mean == pytest.approx(float(samples.mean()), rel=1e-12)


@pytest.mark.parametrize("kappa", [1e-9, 0.49, 0.51, 0.989, 0.991, 1.0 - 1e-7, 1.0, 1.0 + 1e-6, 1.009, 1.011, 1.49, 1.51, 1e9])
def test_infinite_jamming_mean_across_its_branches(kappa: float) -> None:
    # at P_J = inf the outage is E{h(kappa*B~)}, kappa = a*rho/b: a series within 1e-2 of
    # kappa = 1, log1p(kappa - 1) within 1/2 of it and log(kappa) beyond
    g, params = LinkGains(kappa, 1.0), SystemParams(p_t=1.0, p_j=math.inf, rho=1.0)
    value, error = _prob_zero_cubature(g.a, g.b, params.rho, params.p_j)
    assert float(value) == pytest.approx(quad_prob_zero_colluding(g, params), rel=1e-13, abs=0.0)
    assert error == 0.0


def test_jam_response_classes_name_the_minimizer() -> None:
    rng = np.random.default_rng(14)
    probes = np.array([0.0, 1e-3, 1.0, 1e3, 1e6])
    for _ in range(40):
        g = LinkGains(float(10.0 ** rng.uniform(-1, 1)), float(10.0 ** rng.uniform(-1, 1)))
        rho = float(rng.uniform(0.01, 0.5))
        at, bt = (float(v) for v in rng.exponential(size=2))
        resp = classify_jam_response(g, rho, at, bt)

        def prob(pj: float) -> float:
            return cond_prob_zero(g, SystemParams(p_t=1.0, p_j=pj, rho=rho), at, bt)

        grid = list(probes)
        if resp.kind is JamResponseKind.OPTIMAL_FINITE:
            assert 0.0 < resp.p_j_opt < math.inf
            grid += [resp.p_j_opt * 0.999, resp.p_j_opt * 1.001]
            best = prob(resp.p_j_opt)
        elif resp.kind is JamResponseKind.OPTIMAL_INFINITE:
            assert math.isinf(resp.p_j_opt)
            best = prob(1e12)
        else:
            assert resp.p_j_opt == 0.0
            best = prob(0.0)
        assert all(best <= prob(pj) + 1e-12 for pj in grid)
    with pytest.raises(InvalidParameterError):
        classify_jam_response(LinkGains(1.0, 1.0), 0.0, 1.0, 1.0)


def test_decreasing_probability_tail() -> None:
    # exclusion radius 0.1, exponent 2: the response is decreasing in P_J
    # except on a set of fading draws of measure ~2.4e-42
    g = gains(-0.6, 0.0, 2.0)
    rho = rho_for_eta(g.a, g.b, 1.01)
    assert g.b / (rho * g.a) == pytest.approx(1.01, rel=1e-12)
    comp = decreasing_prob_complement(g.a, g.b, rho)
    exact = math.exp(-100.0) * (101.0 - 100.0 * math.exp(-1.0))
    assert comp == pytest.approx(exact, rel=1e-9)
    assert comp == pytest.approx(2.3887372646e-42, rel=1e-9)
    assert decreasing_prob_lower_bound(g.a, g.b, rho) == 1.0 - comp


def test_decreasing_probability_eta_one_limit() -> None:
    a, b = 5.0, 2.0
    comp = decreasing_prob_complement(a, b, b / a)  # eta = 1
    assert comp == pytest.approx((1.0 + a) * math.exp(-a), rel=1e-12)
    with pytest.raises(InvalidParameterError):
        decreasing_prob_complement(0.0, 1.0, 0.1)


def test_cdf_lower_bound_shape() -> None:
    a, b, rho = 100.0, 1.1**-2, 0.01
    levels = np.linspace(0.05, 0.95, 19)
    for p_j in (100.0, 1000.0, math.inf):
        vals = [cdf_lower_bound(float(p), a, b, rho, p_j) for p in levels]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(v0 <= v1 for v0, v1 in zip(vals, vals[1:]))
    assert cdf_lower_bound(1.0, a, b, rho, 10.0) == 1.0
    # the exponential factor disappears in the unbounded-power limit
    p = 0.3
    tail = b * p / (b * p + a * rho * (1.0 - p))
    assert cdf_lower_bound(p, a, b, rho, math.inf) == pytest.approx(tail)
    assert cdf_lower_bound(p, a, b, rho, 1e9) == pytest.approx(tail, rel=1e-4)
    with pytest.raises(InvalidParameterError):
        cdf_lower_bound(0.0, a, b, rho, 10.0)
    with pytest.raises(InvalidParameterError):
        cdf_lower_bound(0.5, a, b, rho, 0.0)


def test_cdf_lower_bound_where_its_exponent_underflows() -> None:
    # at (1e100, 0), a = b = 1e-200, and P_J = 1e-300, b*P_J*p underflowed to 0 and the bound
    # raised ZeroDivisionError; the exponent a(1-p)/(b*P_J*p) is 1e300 there, so the factor is 0
    assert cdf_lower_bound(0.5, 1e-200, 1e-200, 0.0, 1e-300) == 0.0
    # with a subnormal a the exponent, taken from logs, is moderate: about 4.94
    ratio = Fraction(5e-324) / (Fraction(1e-200) * Fraction(1e-124))
    assert cdf_lower_bound(0.5, 5e-324, 1e-200, 0.0, 1e-124) == pytest.approx(math.exp(-float(ratio)), rel=1e-9)


def test_cdf_lower_bound_without_self_interference_where_b_p_underflows() -> None:
    # at rho = 0 the factor b*p/(b*p + a*rho*(1-p)) is 1, but where b*p underflows it was 0/0
    # and the bound raised ZeroDivisionError
    assert cdf_lower_bound(1e-6, 1e-200, 1e-320, 0.0, 1.0) == 0.0  # the exponent, about e^290, zeroes it
    ratio = Fraction(1e-200) * (1 - Fraction(1e-6)) / (Fraction(1e-320) * Fraction(1e300) * Fraction(1e-6))
    assert cdf_lower_bound(1e-6, 1e-200, 1e-320, 0.0, 1e300) == pytest.approx(math.exp(-float(ratio)), rel=1e-12)


def test_cdf_lower_bound_where_both_terms_of_its_second_factor_underflow() -> None:
    # at rho > 0, b*p and a*rho*(1-p) both underflowed and b*p/(b*p + a*rho*(1-p)) raised
    # ZeroDivisionError; the factor is 1/(1 + x), x = a*rho*(1-p)/(b*p), from about 1e13 to 1e-17 here
    assert cdf_lower_bound(1e-6, 1e-200, 1e-320, 1e-200, 1.0) == 0.0  # the exponent, about e^290, zeroes it
    p, a, b, p_j = Fraction(1e-6), Fraction(1e-163), Fraction(1e-320), Fraction(1e300)
    for rho in (1e-150, 1e-163, 1e-180):
        x = a * Fraction(rho) * (1 - p) / (b * p)
        want = math.exp(-float(a * (1 - p) / (b * p_j * p))) / (1 + float(x))
        assert cdf_lower_bound(1e-6, 1e-163, 1e-320, rho, 1e300) == pytest.approx(want, rel=1e-12)


def test_prob_zero_cubature_at_huge_power_meets_the_unbounded_one() -> None:
    # the B~ map spread its nodes over log(rho*P_J*40) e-folds: 1.2e-7 off the oracle at rho*P_J
    # = 1e12, 1.0000000000000024 at 6.6e34 (found by the limit suite) and 1.02 at 1e100, where
    # the outage is that of P_J = inf, 0.99991
    a, b, rho = 475.0, 0.001953125, 0.5

    def value(p_j: float) -> float:
        return float(_prob_zero_cubature(a, b, rho, p_j)[0])

    oracle = quad_prob_zero_colluding(LinkGains(a, b), SystemParams(p_t=1.0, p_j=2e12, rho=rho))
    assert value(2e12) == pytest.approx(oracle, rel=1e-9)
    for p_j in (6.586322931643168e34, 1e100, 1e300):
        assert value(p_j) == pytest.approx(value(math.inf), rel=1e-9)


def test_bound_dominated_by_empirical_cdf() -> None:
    g = gains(-0.6, 0.0, 2.0)
    params = SystemParams(p_t=100.0, p_j=1000.0, rho=0.01)
    samples = sample_cond_prob_zero(g, params, MCConfig(seed=6, n_samples=50_000))
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        bound = cdf_lower_bound(p, g.a, g.b, params.rho, params.p_j)
        emp = float((samples <= p).mean())
        se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / samples.size)
        assert bound <= emp + 3.0 * se


def test_secrecy_sample_zero_event_frequency() -> None:
    g = LinkGains(4.0, 1.0)
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    closed = cond_prob_zero(g, params, 1.0, 1.0)
    cfg = MCConfig(seed=11, n_samples=50_000)

    def f(u: np.ndarray) -> np.ndarray:
        return np.array(
            [secrecy_sample(g, params, float(c), float(d)) == 0.0 for c, d in u], dtype=float
        )

    est = estimate(f, cfg, draws_per_sample=2)
    se = math.sqrt(closed * (1.0 - closed) / cfg.n_samples)
    assert abs(est.mean - closed) <= 3.0 * se
    # a positive sample really carries positive rate
    rng = np.random.default_rng(0)
    vals = [secrecy_sample(g, params, float(c), float(d)) for c, d in rng.exponential(size=(200, 2))]
    assert all(v >= 0.0 for v in vals)
    assert any(v > 0.0 for v in vals)


@pytest.mark.parametrize("n", [12, 32, 48])
def test_gauss_legendre_rule_is_exact_on_polynomials(n: int) -> None:
    # the n-node rule integrates x^k over [-1, 1] for every k < 2n, to rounding, and keeps
    # numpy's nodes; its weights stay within numpy's own 1.3e-12 of numpy's weights
    x, w = _gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - ref_x) <= 2e-16) and np.array_equal(x, -x[::-1])
    assert np.all(np.abs(w / ref_w - 1.0) <= 2e-12) and np.array_equal(w, w[::-1])
    for k in range(0, 2 * n, 2):
        assert abs((w * x**k).sum() * (k + 1) / 2.0 - 1.0) <= 1e-14, k


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
@pytest.mark.parametrize("n", [12, 32, 48])
def test_gauss_legendre_weights_against_extended_precision(n: int) -> None:
    # the weights at the true roots, from Newton steps and the recurrence in long double
    # (a 64-bit mantissa), within 3e-14 relative; numpy's own are off by 1.3e-12 at 48 nodes
    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for step in range(4):
        p0, p1 = np.ones_like(x), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (x * p1 - p0) / ((x - 1) * (x + 1))
        if step < 3:
            x = x - p1 / dp
    want = 2 / ((1 - x) * (1 + x) * dp * dp)
    _, w = _gauss_legendre(n)
    assert np.max(np.abs(w / want - 1)) <= 3e-14


@pytest.mark.parametrize("c", [1e-3, 1.0, 100.0, 1e4])
def test_b_rule_integrates_the_exponential(c: float) -> None:
    # the integral of e^-B~ over [0, 40] on the log map B~ = expm1(t*L)/c,
    # L = log1p(40*c), of _prob_zero_cubature: numpy's 48-node weights left it 7e-14 off
    exact = -math.expm1(-40.0)
    stretch = math.log1p(40.0 * c)
    scale = 40.0 / math.expm1(stretch)
    for (t, w), tol in ((_B_RULE, 2e-14), (_B_CHECK_RULE, 2e-14 if c <= 1.0 else 1e-9)):
        tl = t * stretch
        got = (np.exp(tl - np.expm1(tl) * scale) * w).sum() * stretch * scale
        assert abs(got / exact - 1.0) <= tol, (t.size, got / exact - 1.0)
