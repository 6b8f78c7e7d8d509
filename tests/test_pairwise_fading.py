"""Two-phase fading: wedge probability K*exp(-E), the jamming gate P_J*,
policy bounds and the homogeneous near-field law."""

import math

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam import montecarlo
from fdjam.montecarlo import MCConfig, estimate
from fdjam.oracles import mc_cond_prob_zero_pair, quad_policy_row, quad_prob_zero_pair
from fdjam.pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    _policy_integrand,
    cond_prob_zero_pair,
    cond_prob_zero_pair_array,
    eve_at_node_prob,
    homogeneous_secrecy,
    homogeneous_tail_bound,
    p1_bound,
    p2_bound,
    pair_terms,
    pj_star,
    policy_prob_zero,
    prob_zero_nojam,
    prob_zero_nojam_origin,
    secrecy_sample_pair,
    semi_dynamic_cap,
)

ORIGIN = gains(0.0, 0.0, 2.0)  # a = b = 4


def test_symmetric_reference_point() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    t = pair_terms(ORIGIN, params, 1.0, 1.0, 1.0)
    assert t.k == pytest.approx(1.0 / 21.0, rel=1e-12)
    assert t.e_exp == pytest.approx(5.0, rel=1e-12)
    p = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert p == pytest.approx(math.exp(-5.0) / 21.0, rel=1e-12)
    assert p == pytest.approx(3.2085e-4, rel=1e-3)


def test_closed_form_matches_quadrature() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    closed = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    quad = quad_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert abs(closed - quad) < 2e-4
    # and an asymmetric draw
    g = gains(0.3, -0.2, 2.0)
    closed = cond_prob_zero_pair(g, params, 0.7, 1.8, 0.4)
    quad = quad_prob_zero_pair(g, params, 0.7, 1.8, 0.4)
    assert abs(closed - quad) < 2e-4


def test_closed_form_matches_frequency_count() -> None:
    g = gains(0.25, 0.1, 2.0)
    params = SystemParams(p_t=10.0, p_j=0.5, rho=0.1)
    closed = cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0)
    est = mc_cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0, MCConfig(seed=21, n_samples=200_000))
    se = math.sqrt(closed * (1.0 - closed) / est.n)
    assert abs(est.mean - closed) <= 3.0 * se


def test_swap_symmetry() -> None:
    params = SystemParams(p_t=2.0, p_j=3.0, rho=0.2)
    g = gains(0.4, 0.3, 2.0)
    direct = cond_prob_zero_pair(g, params, 0.9, 1.4, 0.3)
    # exchanging the endpoint roles swaps (b1, b2) along with (a, b)
    swapped = cond_prob_zero_pair(g.swapped(), params, 0.9, 0.3, 1.4)
    assert direct == pytest.approx(swapped, rel=1e-12)


def test_array_form_matches_scalar() -> None:
    params = SystemParams(p_t=2.0, p_j=3.0, rho=0.2)
    g = gains(0.4, 0.3, 2.0)
    rng = np.random.default_rng(1)
    at, b1, b2 = rng.exponential(size=(3, 64))
    arr = cond_prob_zero_pair_array(g, params, at, b1, b2)
    for i in range(at.size):
        assert arr[i] == pytest.approx(
            cond_prob_zero_pair(g, params, float(at[i]), float(b1[i]), float(b2[i])), rel=1e-12
        )


def test_no_jamming_values() -> None:
    assert prob_zero_nojam(ORIGIN) == pytest.approx(2.0 / 3.0)
    assert prob_zero_nojam_origin(2.0) == pytest.approx(2.0 / 3.0)
    # without jamming P_J* never gates, and the closed form still applies
    params = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    quad = quad_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    got = cond_prob_zero_pair(ORIGIN, params, 1.0, 1.0, 1.0)
    assert abs(got - quad) < 2e-4
    assert eve_at_node_prob(params) == 0.5
    assert eve_at_node_prob(SystemParams(p_t=1.0, p_j=0.1, rho=0.1)) == 0.0


def test_pj_star_reference_value() -> None:
    star = pj_star(1.0, 1.0, 1.0, 0.1)
    assert star == pytest.approx(10.0 / 9.0, rel=1e-12)
    # no gate when the legit fading cannot beat the jamming geometry
    assert pj_star(0.1, 4.0, 4.0, 0.9) is None
    with pytest.raises(InvalidParameterError):
        pj_star(1.0, 1.0, 1.0, -0.1)


def test_pj_star_gates_the_probability() -> None:
    star = pj_star(1.0, 1.0, 1.0, 0.1)
    above = SystemParams(p_t=1.0, p_j=star * 1.001, rho=0.1)
    below = SystemParams(p_t=1.0, p_j=star * 0.999, rho=0.1)
    assert cond_prob_zero_pair(ORIGIN, above, 1.0, 1.0, 1.0) == 0.0
    t = pair_terms(ORIGIN, below, 1.0, 1.0, 1.0)
    # strict positivity is asserted in log space: K > 0 with a finite
    # exponent means K*exp(-E) > 0 even when the float product underflows
    assert t.w1 > 0.0 and t.k > 0.0 and math.isfinite(t.e_exp)


def test_homogeneous_near_field() -> None:
    assert homogeneous_secrecy(1.0, 1.0, 1.0, 0.1) == pytest.approx(math.log2(10.0))
    assert homogeneous_secrecy(0.0, 1.0, 1.0, 0.1) == -math.inf
    assert homogeneous_secrecy(1.0, 0.0, 1.0, 0.1) == math.inf
    with pytest.raises(InvalidParameterError):
        homogeneous_secrecy(1.0, 1.0, 1.0, 0.0)
    assert homogeneous_tail_bound(0.0, 0.1) == pytest.approx(0.1 * math.pi / 4.0)
    assert homogeneous_tail_bound(20.0, 0.1) == 1.0
    # tail mass check against direct sampling
    rng = np.random.default_rng(4)
    at, b1, b2 = rng.exponential(size=(3, 100_000))
    s_vals = np.log2(at / (0.1 * np.sqrt(b1 * b2)))
    for s in (-1.0, 0.0, 1.0):
        frac = float((s_vals <= s).mean())
        assert frac <= homogeneous_tail_bound(s, 0.1) + 3e-3


def test_policy_validation() -> None:
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC)
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1.5)
    with pytest.raises(InvalidParameterError):
        JamPolicy(JamPolicyKind.CONSTANT, p_accept=0.5)
    JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1e-4)


def test_full_dynamic_policy_is_exactly_zero() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    mc = MCConfig(seed=1, n_samples=1000)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.FULL_DYNAMIC), ORIGIN, params, mc)
    assert rep.estimate.mean == 0.0
    assert rep.estimate.stderr == 0.0


def test_semi_dynamic_below_its_bounds() -> None:
    params = SystemParams(p_t=1.0, p_j=10.0, rho=0.1)
    mc = MCConfig(seed=5, n_samples=200_000)
    rep = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), ORIGIN, params, mc)
    assert rep.p1 is not None
    # dominance holds on the shared fading stream, not just in expectation
    assert rep.estimate.mean < rep.p1.mean
    assert rep.p1.mean < semi_dynamic_cap(params.rho)
    assert rep.p1.mean == pytest.approx(p1_bound(params.rho, mc).mean, rel=1e-12)


def test_constant_policy_below_p2_and_above_semi() -> None:
    mc = MCConfig(seed=5, n_samples=200_000)
    rho = 0.1
    semi = policy_prob_zero(
        JamPolicy(JamPolicyKind.SEMI_DYNAMIC),
        ORIGIN,
        SystemParams(p_t=1.0, p_j=10.0, rho=rho),
        mc,
    )
    gaps = []
    for p_j in (1.0, 10.0, 100.0, 1000.0):
        params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
        rep = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), ORIGIN, params, mc)
        assert rep.p2 is not None
        assert rep.estimate.mean < rep.p2.mean
        p1 = p1_bound(rho, mc)
        p2 = p2_bound(rho, p_j, mc)
        assert p1.mean < p2.mean
        assert rep.p2.mean == pytest.approx(p2.mean, rel=1e-12)
        # a fixed power can only do worse than reacting to the fading
        assert semi.estimate.mean <= rep.estimate.mean + 1e-12
        gaps.append(p2.mean - p1.mean)
    assert all(g0 > g1 for g0, g1 in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("at", [(0.0, 0.0), (-0.6, 0.0), (0.49, 0.0), (0.499, 0.0)])
@pytest.mark.parametrize("p_j", [1.0, 1e3, math.inf])
def test_policy_integrand_matches_the_window_oracle(at, p_j: float) -> None:
    # near Bob's node the rows fall off over 1/c ~ 1e-4..1e-6 of the window; a
    # 48-node rule in A~ itself was off by up to 9% of the mean at (0.49, 0)
    g = gains(*at, 2.0)
    rng = np.random.default_rng(17)
    for rho in (0.01, 0.1):
        u, v = rng.exponential(size=(2, 20))
        rows = _policy_integrand(u, v, g.a, g.b, rho, p_j)
        params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
        ref = np.array([quad_policy_row(g, params, float(b1), float(b2)) for b1, b2 in zip(u, v)])
        np.testing.assert_allclose(rows[:, 0], ref, rtol=0.0, atol=1e-9)
        assert np.all(rows[:, 0] < rows[:, 1])


@pytest.mark.parametrize("kind", [JamPolicyKind.CONSTANT, JamPolicyKind.SEMI_DYNAMIC])
def test_policy_rung_draws_its_stream_once(monkeypatch, kind: JamPolicyKind) -> None:
    drawn = []
    real = montecarlo.exp_chunks

    def counted(config, draws_per_sample=1):
        for chunk in real(config, draws_per_sample):
            drawn.append(chunk.shape[0])
            yield chunk

    monkeypatch.setattr(montecarlo, "exp_chunks", counted)
    mc = MCConfig(seed=6, n_samples=5000, chunk=2048)
    params = SystemParams(p_t=1.0, p_j=100.0, rho=0.1)
    rep = policy_prob_zero(JamPolicy(kind), ORIGIN, params, mc)
    assert sum(drawn) == mc.n_samples
    # the bound from the same pass is the public bound on the same stream, bit for bit
    monkeypatch.setattr(montecarlo, "exp_chunks", real)
    if kind is JamPolicyKind.CONSTANT:
        assert rep.p1 is None and rep.p2 == p2_bound(params.rho, params.p_j, mc)
    else:
        assert rep.p2 is None and rep.p1 == p1_bound(params.rho, mc)


def test_constant_policy_no_jam_closed_form() -> None:
    params = SystemParams(p_t=1.0, p_j=0.0, rho=0.1)
    rep = policy_prob_zero(
        JamPolicy(JamPolicyKind.CONSTANT), ORIGIN, params, MCConfig(seed=2, n_samples=100)
    )
    assert rep.estimate.mean == pytest.approx(2.0 / 3.0)
    assert rep.estimate.stderr == 0.0


def test_general_dynamic_policy_report() -> None:
    params = SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
    mc = MCConfig(seed=9, n_samples=50_000)
    rep = policy_prob_zero(
        JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=1e-4), ORIGIN, params, mc
    )
    assert rep.estimate.mean == 0.0
    assert rep.acceptance is not None and 0.0 < rep.acceptance.mean < 1.0
    assert rep.residual is not None and rep.residual.mean <= 1e-4


def test_secrecy_sample_pair_zero_event_frequency() -> None:
    g = gains(0.25, 0.1, 2.0)
    params = SystemParams(p_t=10.0, p_j=0.5, rho=0.1)
    closed = cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(3)
    n = 40_000
    draws = rng.exponential(size=(n, 2))
    zero = sum(
        1 for c, d in draws if secrecy_sample_pair(g, params, float(c), float(d)) == 0.0
    )
    se = math.sqrt(closed * (1.0 - closed) / n)
    assert abs(zero / n - closed) <= 3.5 * se


@pytest.mark.parametrize(
    "p_j, rho", [(0.0, 0.1), (math.inf, 0.1), (10.0, 0.0), (math.inf, 0.0)]
)
def test_array_form_node_limit_at_an_endpoint(p_j: float, rho: float) -> None:
    # Eve on (0.5, 0): b = inf.  Jamming drives both phases' failure to 0;
    # without it only the A->B phase can fail, with probability exp(-A~/a)
    g = gains(0.5, 0.0, 2.0)
    assert math.isinf(g.b) and g.a == 1.0
    params = SystemParams(p_t=100.0, p_j=p_j, rho=rho)
    mc = MCConfig(seed=8, n_samples=5000)
    est = estimate(lambda u: cond_prob_zero_pair_array(g, params, u[:, 0], u[:, 1], u[:, 2]), mc, draws_per_sample=3)
    if p_j == 0:
        same_stream = estimate(lambda u: np.exp(-u[:, 0]), mc, draws_per_sample=3)
        assert est.mean == pytest.approx(same_stream.mean, rel=1e-12)
        assert cond_prob_zero_pair(g, params, 2.0, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    else:
        assert (est.mean, est.stderr) == (0.0, 0.0)
        assert cond_prob_zero_pair(g, params, 2.0, 1.0, 1.0) == 0.0
