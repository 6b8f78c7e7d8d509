"""The oracles share no code with the closed forms they check.

A mutation inside a closed form's own thresholds must move the closed form
and leave every oracle where it was, so the cross-checks see it.
"""

import math
import types

import numpy as np
import pytest

from fdjam import colluding_fading, oracles, pairwise_fading, verify
from fdjam.errors import InvalidParameterError
from fdjam.geometry import LinkGains, SystemParams, gains
from fdjam.montecarlo import Estimate, MCConfig
from fdjam.oracles import mc_cond_prob_zero_colluding, mc_cond_prob_zero_pair, quad_prob_zero_pair

CLOSED_FORMS = {"fdjam.colluding", "fdjam.colluding_fading", "fdjam.pairwise", "fdjam.pairwise_fading"}


def _doubled_v1(real):
    def wrong(*args):
        v1, v2 = real(*args)
        return 2.0 * v1, v2

    return wrong


def test_oracles_bind_no_name_from_the_closed_forms() -> None:
    home = {
        name: obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", None)
        for name, obj in vars(oracles).items()
    }
    assert {name for name, module in home.items() if module in CLOSED_FORMS} == set()


def test_a_doubled_colluding_v1_is_caught(monkeypatch) -> None:
    g, params = gains(-0.6, 0.0, 2.0), SystemParams(p_t=100.0, p_j=30.0, rho=0.01)
    monkeypatch.setattr(colluding_fading, "_v_arrays", _doubled_v1(colluding_fading._v_arrays))
    closed = colluding_fading.cond_prob_zero(g, params, 0.8, 1.3)
    est = mc_cond_prob_zero_colluding(g, params, 0.8, 1.3, MCConfig(seed=10, n_samples=200_000))
    assert abs(est.mean - closed) > 4.0 * math.sqrt(closed * (1.0 - closed) / est.n)
    check = next(r for r in verify.run_suite("colluding-fading", 0) if r.name == "conditional-vs-mc")
    assert not check.passed


def test_window_oracle_takes_every_jamming_power() -> None:
    # quad_policy_row divided by P_J = 0 (ZeroDivisionError) and overflowed sqrt(q1*q2) from
    # P_J = 1e155 (nan); with h = 1/P_J + rho*B~ its window is the P_J = inf window there
    def row(p_j: float, rho: float = 1.0) -> float:
        return oracles.quad_policy_row(LinkGains(4.0, 1.0), SystemParams(p_t=1.0, p_j=p_j, rho=rho), 1.0, 1.0)

    with pytest.raises(InvalidParameterError):
        row(0.0, rho=0.1)
    assert row(math.inf) == pytest.approx(0.2307045, abs=1e-7)
    assert row(1e155) == row(1e300) == row(math.inf)


def test_wedge_oracles_do_not_move_with_the_closed_form(monkeypatch) -> None:
    args = (gains(0.3, -0.2, 2.0), SystemParams(p_t=1.0, p_j=1.0, rho=0.1), 0.7, 1.8, 0.4)
    mc = MCConfig(seed=21, n_samples=50_000)
    before = (quad_prob_zero_pair(*args), mc_cond_prob_zero_pair(*args, mc), pairwise_fading.cond_prob_zero_pair(*args))
    for module in (colluding_fading, pairwise_fading):  # wherever a module binds the thresholds
        monkeypatch.setattr(module, "_v_arrays", _doubled_v1(colluding_fading._v_arrays), raising=False)
    real = pairwise_fading._window_coeffs  # the coefficients of every wedge, from its window
    monkeypatch.setattr(pairwise_fading, "_window_coeffs", lambda *a: (2.0 * real(*a)[0], *real(*a)[1:]))
    assert pairwise_fading.cond_prob_zero_pair(*args) != before[2]  # the mutation reaches the closed form
    assert (quad_prob_zero_pair(*args), mc_cond_prob_zero_pair(*args, mc)) == before[:2]


def test_early_returns_agree_with_the_closed_forms() -> None:
    g, a, b = LinkGains(4.0, 1.0), 4.0, 1.0
    # P_J = inf at rho = 0: the jamming drowns the eavesdropper and spares the link
    drowned = SystemParams(p_t=1.0, p_j=math.inf, rho=0.0)
    assert oracles.quad_prob_zero_colluding(g, drowned) == 0.0
    assert colluding_fading._prob_zero_cubature(a, b, 0.0, math.inf)[0] == 0.0
    # B1~ = 0 at P_J = inf: the policy window is empty
    empty = SystemParams(p_t=1.0, p_j=math.inf, rho=0.1)
    assert oracles.quad_policy_row(g, empty, 0.0, 1.0) == 0.0
    assert pairwise_fading._policy_integrand(np.array([0.0]), np.array([1.0]), a, b, 0.1, math.inf)[0, 0] == 0.0
    # an infinite slope leaves an event of probability 0, and nothing is drawn
    mc = MCConfig(seed=3, n_samples=1000)
    assert mc_cond_prob_zero_colluding(g, drowned, 1.0, 1.0, mc) == Estimate(0.0, 0.0, 1000)
    assert colluding_fading.cond_prob_zero(g, drowned, 1.0, 1.0) == 0.0
    assert mc_cond_prob_zero_pair(g, drowned, 1.0, 1.0, 1.0, mc) == Estimate(0.0, 0.0, 1000)
    assert pairwise_fading.cond_prob_zero_pair(g, drowned, 1.0, 1.0, 1.0) == 0.0
