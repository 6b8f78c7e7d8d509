"""Seeded Monte Carlo engine: determinism, moments, ecdf shape."""

import math

import numpy as np
import pytest

from fdjam.errors import InvalidParameterError
from fdjam.montecarlo import Estimate, MCConfig, ecdf, estimate, exp_chunks, sample_exp, sample_matrix


def test_config_validation() -> None:
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=0, n_samples=0)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=-1, n_samples=10)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=2**64, n_samples=10)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=0, n_samples=10, chunk=0)


def test_unit_mean_large_sample() -> None:
    cfg = MCConfig(seed=1, n_samples=10**6)
    est = estimate(lambda u: u, cfg)
    # 4 sigma of an Exp(1) mean at n = 1e6
    assert abs(est.mean - 1.0) <= 0.004
    assert est.n == 10**6


def test_same_seed_same_draws() -> None:
    cfg = MCConfig(seed=42, n_samples=1000)
    first = sample_exp(cfg)[:100]
    second = sample_exp(cfg)[:100]
    assert np.array_equal(first, second)
    assert estimate(lambda u: u * u, cfg) == estimate(lambda u: u * u, cfg)


def test_chunking_does_not_change_the_stream_order() -> None:
    # the draw stream is owned per chunk index, so concatenating chunks
    # reproduces sample_exp regardless of how the loop was scheduled
    cfg = MCConfig(seed=9, n_samples=300, chunk=64)
    assert np.array_equal(np.concatenate(list(exp_chunks(cfg))), sample_exp(cfg))


def test_matrix_shape_and_determinism() -> None:
    cfg = MCConfig(seed=5, n_samples=257, chunk=100)
    m = sample_matrix(cfg, 3)
    assert m.shape == (257, 3)
    assert np.array_equal(m, sample_matrix(cfg, 3))
    assert np.all(m >= 0.0)
    assert np.all(np.isfinite(m))


def test_exponential_tail() -> None:
    cfg = MCConfig(seed=3, n_samples=10**6)
    est = estimate(lambda u: (u > 2.0).astype(float), cfg)
    assert abs(est.mean - math.exp(-2.0)) <= 3.0 * est.stderr


def test_exponential_median() -> None:
    cfg = MCConfig(seed=4, n_samples=10**6)
    est = estimate(lambda u: (u < math.log(2.0)).astype(float), cfg)
    assert abs(est.mean - 0.5) <= 3.0 * est.stderr


def test_constant_integrand_has_exactly_zero_stderr() -> None:
    cfg = MCConfig(seed=5, n_samples=4096)
    est = estimate(lambda u: np.full(u.shape[0], 7.0), cfg)
    assert est.mean == 7.0
    assert est.stderr == 0.0


def test_estimate_rejects_wrong_shape() -> None:
    cfg = MCConfig(seed=0, n_samples=16)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: np.zeros(3), cfg)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: u, cfg, draws_per_sample=0)


def test_three_sigma_coverage_over_seeds() -> None:
    # the 3 sigma interval around the sample mean must cover E[X] = 1 in
    # at least 99% of seeded trials
    hits = 0
    for seed in range(1000):
        est = estimate(lambda u: u, MCConfig(seed=seed, n_samples=1000))
        if abs(est.mean - 1.0) <= 3.0 * est.stderr:
            hits += 1
    assert hits >= 990


def test_ecdf_shape() -> None:
    values = np.array([2.0, 1.0, 2.0])
    grid = np.array([0.5, 1.0, 1.5, 2.0, math.inf])
    out = ecdf(values, grid)
    assert out.tolist() == [0.0, 1.0 / 3.0, 1.0 / 3.0, 1.0, 1.0]
    # right continuity: F(t) counts values <= t
    assert ecdf(values, np.array([1.0 - 1e-12]))[0] == 0.0
    rng = np.random.default_rng(0)
    sample = rng.exponential(size=500)
    curve = ecdf(sample, np.linspace(0, 8, 81))
    assert np.all(np.diff(curve) >= 0.0)
    assert np.all((curve >= 0.0) & (curve <= 1.0))
    with pytest.raises(InvalidParameterError):
        ecdf(np.array([]), grid)


@pytest.mark.parametrize("chunk", [1000, 2**16])
def test_multi_column_estimate_equals_single_column_calls(chunk: int) -> None:
    cfg = MCConfig(seed=12, n_samples=150_001, chunk=chunk)
    cols = (lambda u: u[:, 0] * u[:, 1], lambda u: np.sqrt(u[:, 1]), lambda u: np.full(u.shape[0], 0.5))
    together = estimate(lambda u: np.stack([f(u) for f in cols], axis=1), cfg, draws_per_sample=2)
    assert together == tuple(estimate(f, cfg, draws_per_sample=2) for f in cols)
    assert together[2] == Estimate(0.5, 0.0, cfg.n_samples)
    # the per-chunk merge gives the moments of the whole stream
    u = sample_matrix(cfg, 2)
    for f, est in zip(cols[:2], together):
        assert est.mean == pytest.approx(float(np.mean(f(u))), rel=1e-12)
        assert est.stderr == pytest.approx(float(np.std(f(u), ddof=1)) / math.sqrt(cfg.n_samples), rel=1e-9)
    assert estimate(lambda u: u[:, :1], cfg, draws_per_sample=2) == (estimate(lambda u: u[:, 0], cfg, draws_per_sample=2),)


def test_estimate_rejects_a_wrong_shape() -> None:
    cfg = MCConfig(seed=1, n_samples=10)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: u[:-1], cfg)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: u.reshape(-1, 1, 1), cfg)
    with pytest.raises(InvalidParameterError):  # the column count must not change between chunks
        estimate(lambda u: np.ones((u.shape[0], 1 if u.shape[0] == 4 else 2)), MCConfig(seed=1, n_samples=10, chunk=4))
