"""The streamed sample paths: sample_cond_prob_zero, ecdf and the general-dynamic
policy read the one stream in _BLOCK blocks.  Each is compared bit for bit with
its whole-matrix formula computed here from sample_matrix, and its traced peak
memory is gated at n = 1e6."""

import math
import tracemalloc

import numpy as np
import pytest

from fdjam import montecarlo
from fdjam.colluding_fading import _cond_prob_zero_array, sample_cond_prob_zero
from fdjam.errors import InvalidParameterError
from fdjam.geometry import SystemParams, gains
from fdjam.montecarlo import Estimate, MCConfig, ecdf, sample_matrix
from fdjam.pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    PolicyReport,
    cond_prob_zero_pair_array,
    policy_prob_zero,
)

SIZES = [1, 65535, 65536, 65537, 200_000]
BLOCKS = [2**16, 64]
POINT = gains(-0.6, 0.0, 2.0)
PAPER = SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
MIB = 2**20


def _general(p: float) -> JamPolicy:
    return JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=p)


def _whole_cond(g, params: SystemParams, mc: MCConfig) -> np.ndarray:
    u = sample_matrix(mc, 2)
    return _cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, u[:, 0], u[:, 1])


def _whole_ecdf(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    values = np.sort(np.asarray(values, dtype=float))
    return np.searchsorted(values, np.asarray(grid, dtype=float), side="right") / values.size


def _blockwise_residual(blocks) -> Estimate:
    """Mean and stderr of the blocks' values, each block's moments two-pass and merged
    in order by the parallel Welford update; a constant block has zero spread exactly."""
    n_tot, mean_tot, m2_tot = 0, 0.0, 0.0
    for v in blocks:
        if v.size == 0:
            continue
        mean = float(v[0]) if v.min() == v.max() else float(v.mean())
        m2 = float(np.sum((v - mean) ** 2))
        delta, n_new = mean - mean_tot, n_tot + v.size
        mean_tot, m2_tot = mean_tot + delta * (v.size / n_new), m2_tot + m2 + delta * delta * (n_tot * v.size / n_new)
        n_tot = n_new
    return Estimate(mean_tot, math.sqrt(m2_tot / (n_tot - 1) / n_tot) if n_tot > 1 else 0.0, n_tot)


def _whole_general(p: float, g, params: SystemParams, mc: MCConfig) -> PolicyReport:
    draws = sample_matrix(mc, 3)
    cond = cond_prob_zero_pair_array(g, params, draws[:, 0], draws[:, 1], draws[:, 2])
    accepted = cond <= p
    n = cond.size
    acc_mean = float(accepted.mean())
    acc_stderr = math.sqrt(max(acc_mean * (1.0 - acc_mean), 0.0) / n)
    step = montecarlo._BLOCK
    res = _blockwise_residual(cond[lo : lo + step][accepted[lo : lo + step]] for lo in range(0, n, step))
    if res.n > 1:  # the blockwise moments are numpy's whole-array ones up to rounding
        sub = cond[accepted]
        assert math.isclose(res.mean, float(sub.mean()), rel_tol=1e-13, abs_tol=0.0)
        assert math.isclose(res.stderr, float(sub.std(ddof=1) / math.sqrt(res.n)), rel_tol=1e-13, abs_tol=0.0)
    return PolicyReport(
        policy=_general(p), estimate=Estimate(0.0, 0.0, n), acceptance=Estimate(acc_mean, acc_stderr, n), residual=res
    )


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", SIZES)
def test_sample_cond_prob_zero_is_the_whole_matrix_formula(monkeypatch, n: int, block: int) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    mc = MCConfig(seed=n % 89, n_samples=n)
    # a point, Alice's node and Bob's node, at finite, infinite and zero jamming power
    for at, p_j, rho in (((-0.6, 0.0), 1e4, 0.01), ((-0.5, 0.0), math.inf, 0.01), ((0.5, 0.0), 0.0, 0.0)):
        g, params = gains(*at, 2.0), SystemParams(p_t=1e6, p_j=p_j, rho=rho)
        got = sample_cond_prob_zero(g, params, mc)
        assert got.shape == (n,)
        assert got.tobytes() == _whole_cond(g, params, mc).tobytes()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", SIZES)
def test_ecdf_is_one_full_sort(monkeypatch, n: int, block: int) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    rng = np.random.default_rng(n)
    values = np.round(rng.exponential(size=n), 2)  # ties
    specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0])
    values[rng.integers(0, n, size=min(n, 40))] = rng.choice(specials, size=min(n, 40))
    grids = [
        np.linspace(0.0, 4.0, 81),
        rng.permutation(np.linspace(-1.0, 5.0, 61)),  # unsorted
        np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nan]),
        np.array(1.0),
        np.linspace(0.0, 2.0, 12).reshape(3, 4),
    ]
    for grid in grids:
        got, want = ecdf(values, grid), _whole_ecdf(values, grid)
        assert np.shape(got) == np.shape(want) == grid.shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_ecdf_takes_values_of_any_shape() -> None:
    grid = np.array([0.5, 1.0, 2.5, 4.0, math.inf])
    flat = np.array([2.0, 1.0, 3.0, 1.0, 4.0, math.nan])
    want = ecdf(flat, grid)
    assert want.tolist() == [0.0, 2 / 6, 3 / 6, 5 / 6, 5 / 6]
    assert ecdf(flat.reshape(2, 3), grid).tobytes() == want.tobytes()
    assert ecdf(flat.reshape(3, 2).T, grid).tobytes() == ecdf(flat.reshape(3, 2).T.ravel(), grid).tobytes()
    assert ecdf(np.array(2.0), grid).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]  # a 0-d array is one value
    assert ecdf(2.0, grid).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    for empty in (np.array([]), np.empty((0, 3)), np.empty((2, 0))):
        with pytest.raises(InvalidParameterError):
            ecdf(empty, grid)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", SIZES)
def test_general_dynamic_is_the_whole_matrix_formula(monkeypatch, n: int, block: int) -> None:
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    mc = MCConfig(seed=n % 83, n_samples=n)
    g = gains(0.0, 0.0, 2.0)
    for p in (1e-3, 0.5, 0.999):
        got = policy_prob_zero(_general(p), g, PAPER, mc)
        assert repr(got) == repr(_whole_general(p, g, PAPER, mc))


@pytest.mark.parametrize("block", BLOCKS)
def test_general_dynamic_over_rho_and_power(monkeypatch, block: int) -> None:
    # 65 blocks of 64 at the smaller n: the window probe decides per block there
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    mc = MCConfig(seed=5, n_samples=65537 if block > 64 else 4161)
    for at in ((0.0, 0.0), (1.3, 0.7), (0.5, 0.0)):  # the last is Bob's node
        g = gains(*at, 2.0)
        for rho in (0.0, 0.01, 1.0):
            for p_j in (0.0, 1.0, 1e4, math.inf):
                params = SystemParams(p_t=1e6, p_j=p_j, rho=rho)
                for p in (1e-3, 0.5, 0.999):
                    got = policy_prob_zero(_general(p), g, params, mc)
                    assert repr(got) == repr(_whole_general(p, g, params, mc)), (at, rho, p_j, p)


def _traced_peak(call) -> int:
    """Bytes allocated at the traced peak of call(), beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("at", [(0.0, 0.0), (-0.6, 0.0)])
def test_streamed_paths_hold_one_output_and_block_temporaries(at) -> None:
    # paper settings, where the pairwise kernel takes the wedge on in-window draws only
    n, g = 10**6, gains(*at, 2.0)
    mc = MCConfig(seed=3, n_samples=n)
    assert _traced_peak(lambda: sample_cond_prob_zero(g, PAPER, mc)) <= 8 * n + 4 * MIB
    assert _traced_peak(lambda: policy_prob_zero(_general(0.5), g, PAPER, mc)) <= 8 * n + 4 * MIB
    values = np.random.default_rng(4).exponential(size=n)
    assert _traced_peak(lambda: ecdf(values, np.arange(0.05, 0.975, 0.05))) <= MIB


def test_general_dynamic_memory_does_not_grow_past_its_output() -> None:
    # at rho = 1 most draws are in the window, and the kernel's temporaries on one block
    # exceed 4 MiB with the block itself; beyond the 8n-byte buffer they stay the same for any n
    params = SystemParams(p_t=1e6, p_j=1e4, rho=1.0)
    policy_prob_zero(_general(0.5), POINT, params, MCConfig(seed=3, n_samples=1))
    extra = [
        _traced_peak(lambda: policy_prob_zero(_general(0.5), POINT, params, MCConfig(seed=3, n_samples=n))) - 8 * n
        for n in (2 * montecarlo._BLOCK, 10**6)
    ]
    assert extra[1] <= extra[0] + 64 * 1024


def test_general_dynamic_memory_does_not_grow_with_n() -> None:
    # p = 0.5 accepts about 99% of the draws at rho = 1; the residual is reduced block by block
    params = SystemParams(p_t=1e6, p_j=1e4, rho=1.0)
    policy_prob_zero(_general(0.5), POINT, params, MCConfig(seed=3, n_samples=1))
    peaks = [
        _traced_peak(lambda: policy_prob_zero(_general(0.5), POINT, params, MCConfig(seed=3, n_samples=n)))
        for n in (2**17, 2**20)
    ]
    assert abs(peaks[1] - peaks[0]) <= MIB
