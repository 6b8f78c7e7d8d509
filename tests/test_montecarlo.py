"""Seeded Monte Carlo engine: determinism, moments, ecdf shape."""

import functools
import inspect
import math
import sys
import threading

import numpy as np
import pytest

import fdjam
from fdjam import montecarlo, pairwise_fading
from fdjam.errors import InvalidParameterError
from fdjam.montecarlo import Estimate, MCConfig, ecdf, estimate, exp_chunks, sample_matrix


def test_config_validation() -> None:
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=0, n_samples=0)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=-1, n_samples=10)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=2**64, n_samples=10)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=1.5, n_samples=10)
    with pytest.raises(InvalidParameterError):
        MCConfig(seed=1, n_samples=10.5)
    assert MCConfig(seed=np.uint64(2**64 - 1), n_samples=np.int32(10)).n_samples == 10


def test_unit_mean_large_sample() -> None:
    cfg = MCConfig(seed=1, n_samples=10**6)
    est = estimate(lambda u: u, cfg)
    # 4 sigma of an Exp(1) mean at n = 1e6
    assert abs(est.mean - 1.0) <= 0.004
    assert est.n == 10**6


def test_same_seed_same_draws() -> None:
    cfg = MCConfig(seed=42, n_samples=1000)
    first = sample_matrix(cfg, 1)[:100]
    second = sample_matrix(cfg, 1)[:100]
    assert np.array_equal(first, second)
    assert estimate(lambda u: u * u, cfg) == estimate(lambda u: u * u, cfg)


def test_chunking_does_not_change_the_stream_order(monkeypatch) -> None:
    # one stream per seed, so concatenating the blocks reproduces the
    # whole-stream draw whatever the block size
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    cfg = MCConfig(seed=9, n_samples=300)
    assert np.array_equal(np.concatenate(list(exp_chunks(cfg))), sample_matrix(cfg, 1)[:, 0])


def test_matrix_shape_and_determinism(monkeypatch) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", 100)
    cfg = MCConfig(seed=5, n_samples=257)
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
def test_multi_column_estimate_equals_single_column_calls(monkeypatch, chunk: int) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", chunk)
    cfg = MCConfig(seed=12, n_samples=150_001)
    cols = (lambda u: u[:, 0] * u[:, 1], lambda u: np.sqrt(u[:, 1]), lambda u: np.full(u.shape[0], 0.5))
    together = estimate(lambda u: np.stack([f(u) for f in cols], axis=1), cfg, draws_per_sample=2)
    assert together == tuple(estimate(f, cfg, draws_per_sample=2) for f in cols)
    assert together[2] == Estimate(0.5, 0.0, cfg.n_samples)
    # the per-block merge gives the moments of the whole stream
    u = sample_matrix(cfg, 2)
    for f, est in zip(cols[:2], together):
        assert est.mean == pytest.approx(float(np.mean(f(u))), rel=1e-12)
        assert est.stderr == pytest.approx(float(np.std(f(u), ddof=1)) / math.sqrt(cfg.n_samples), rel=1e-9)
    assert estimate(lambda u: u[:, :1], cfg, draws_per_sample=2) == (estimate(lambda u: u[:, 0], cfg, draws_per_sample=2),)


def test_estimate_rejects_a_wrong_shape(monkeypatch) -> None:
    cfg = MCConfig(seed=1, n_samples=10)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: u[:-1], cfg)
    with pytest.raises(InvalidParameterError):
        estimate(lambda u: u.reshape(-1, 1, 1), cfg)
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    with pytest.raises(InvalidParameterError):  # the column count must not change between blocks
        estimate(lambda u: np.ones((u.shape[0], 1 if u.shape[0] == 4 else 2)), MCConfig(seed=1, n_samples=10))


@pytest.mark.parametrize("lanes, size, min_share", [(1, 10, 1), (2, 10, 1), (2, 9, 1), (5, 3, 1), (2, 2048, 1024), (2, 2049, 1024), (3, 5000, 2048), (2, 0, 1)])
def test_lanes_split_a_range_into_contiguous_shares(monkeypatch, lanes: int, size: int, min_share: int) -> None:
    monkeypatch.setattr(montecarlo, "_LANES", lanes)
    seen, made = [], []

    def lane(lo, hi):
        made.append(threading.current_thread())  # every lane is made on the calling thread
        return (seen.append((i, lo, hi, threading.current_thread() is threading.main_thread())) for i in range(lo, hi))

    montecarlo._run_lanes(lane, size, min_share)
    want = max(1, min(lanes, -(-size // min_share)))
    assert made == [threading.main_thread()] * want
    ranges = sorted({(lo, hi, main) for _, lo, hi, main in seen})
    assert sorted(i for i, *_ in seen) == list(range(size))
    assert len(ranges) == (want if size else 0)
    assert [main for *_, main in ranges] == [True, False, False, False, False][: len(ranges)]
    share = max(1, -(-size // want))  # equal shares, the last one cut at size
    assert [(lo, hi) for lo, hi, _ in ranges] == [(lo, min(lo + share, size)) for lo in range(0, size, share)]


def _public_functions() -> dict:
    """Every function named in fdjam.__all__, and every public function of montecarlo and pairwise_fading."""
    found = [getattr(fdjam, name) for name in fdjam.__all__]
    for mod in (montecarlo, pairwise_fading):
        found += [f for name, f in vars(mod).items() if not name.startswith("_") and getattr(f, "__module__", "") == mod.__name__]
    return {id(f): f for f in found if inspect.isfunction(f)}


def test_lanes_call_no_public_function_off_the_main_thread(monkeypatch) -> None:
    # perfbench/spans.py traces by rebinding public fdjam functions, with one span stack
    # that is not thread-safe; the lanes must call private names only
    called, off_main = set(), []

    def wrap(f):
        @functools.wraps(f)
        def traced(*args, **kwargs):
            called.add(f.__name__)
            if threading.current_thread() is not threading.main_thread():
                off_main.append(f.__name__)
            return f(*args, **kwargs)

        return traced

    public = _public_functions()
    for mod in [m for name, m in list(sys.modules.items()) if name == "fdjam" or name.startswith("fdjam.")]:
        for name, value in list(vars(mod).items()):
            if id(value) in public and value is public[id(value)]:
                monkeypatch.setattr(mod, name, wrap(value))
    threads = []
    real_thread = threading.Thread

    def counted(*args, **kwargs):
        threads.append(real_thread(*args, **kwargs))
        return threads[-1]

    monkeypatch.setattr(threading, "Thread", counted)
    monkeypatch.setattr(montecarlo, "_LANES", 2)
    params = fdjam.SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    mc = MCConfig(seed=3, n_samples=5000)
    for kind in (fdjam.JamPolicyKind.CONSTANT, fdjam.JamPolicyKind.SEMI_DYNAMIC):
        fdjam.policy_prob_zero(fdjam.JamPolicy(kind), fdjam.gains(0.0, 0.0, 2.0), params, mc)
    grid = fdjam.GridSpec(-1.0, 1.0, -0.95, 1.05, 0.25)
    fdjam.build_field("pairwise", params, grid, quantity="prob-zero", mc=MCConfig(seed=3, n_samples=200))
    assert len(threads) == 2  # a second lane for the constant rung and one for the field
    assert {"policy_prob_zero", "estimate", "build_field", "gains"} <= called
    assert off_main == []
