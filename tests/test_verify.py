"""fdjam verify's Monte Carlo self-checks.

conditional-vs-mc compares a closed-form conditional probability with the
frequency of the raw event over 2e5 draws, within 4 standard errors of a
binomial with the closed form's p.  On these seeds the closed form is
3e-12 to 2e-6 and the draws see no event, so a width taken from the sample
(stderr 0) failed a correct closed form.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fdjam import verify
from fdjam.colluding_fading import _v_arrays

FLAKY = [("colluding-fading", s) for s in (23, 50, 85, 94, 96, 97)] + [
    ("pairwise-fading", s) for s in (3, 30, 46, 60, 72)
]


@pytest.mark.parametrize("suite, seed", FLAKY)
def test_suite_passes_where_the_draws_see_no_event(suite: str, seed: int) -> None:
    failed = [r for r in verify.run_suite(suite, seed) if not r.passed]
    assert failed == []


@pytest.mark.parametrize("seed", [0, 23, 50])
def test_wrong_closed_form_is_still_caught(monkeypatch, seed: int) -> None:
    # exp(-v2)/(1 + 2*v1) in place of exp(-v2)/(1 + v1)
    def wrong(g, params, a_tilde, b_tilde):
        v1, v2 = (float(v) for v in _v_arrays(g.a, g.b, params.rho, params.p_j, a_tilde, b_tilde))
        return math.exp(-v2) / (1.0 + 2.0 * v1)

    monkeypatch.setattr(verify, "cond_prob_zero", wrong)
    check = next(r for r in verify.run_suite("colluding-fading", seed) if r.name == "conditional-vs-mc")
    assert not check.passed


def test_binomial_width_comes_from_the_closed_form() -> None:
    assert verify._binomial_se(0.25, 200_000) == pytest.approx(math.sqrt(0.25 * 0.75 / 200_000))
    assert verify._binomial_se(0.0, 200_000) == 0.0
    assert np.isfinite(verify._binomial_se(3e-12, 200_000))


def test_batched_secrecy_probes_still_catch_wrong_inputs(monkeypatch) -> None:
    # the optjam and pairwise suites evaluate their secrecy probes as one array call each
    real_opt, real_pos, real_t = verify.opt_jam, verify.positivity, verify.secrecy_from_t
    monkeypatch.setattr(verify, "opt_jam", lambda g, rho, p_t: dataclasses.replace(real_opt(g, rho, p_t), p_j_opt=1e3))
    assert not next(r for r in verify.run_suite("optjam", 0) if r.name == "stationarity-batch").passed
    monkeypatch.setattr(verify, "opt_jam", real_opt)
    monkeypatch.setattr(verify, "positivity", lambda g, params: not real_pos(g, params))
    assert not next(r for r in verify.run_suite("optjam", 0) if r.name == "stationarity-batch").passed
    monkeypatch.setattr(verify, "secrecy_from_t", lambda g, params: real_t(g, params) * (1.0 + 1e-9))
    assert not next(r for r in verify.run_suite("pairwise", 0) if r.name == "t-factor-identity").passed
    monkeypatch.setattr(verify, "positivity", real_pos)
    monkeypatch.setattr(verify, "secrecy_from_t", real_t)
    assert all(r.passed for r in verify.run_suite("optjam", 0) + verify.run_suite("pairwise", 0))


def test_pair_secrecy_wiring_is_caught(monkeypatch) -> None:
    # s_ba taken from the A->B direction: the pair secrecy is no longer symmetric
    from fdjam import pairwise
    from fdjam.colluding import _secrecy_array

    def same_direction(a, b, p_t, rho, p_j, c=1.0, d=1.0, a_t=1.0, b1_t=1.0, b2_t=1.0):
        s_ab = _secrecy_array(a, b, p_t, rho, p_j, c, d, a_t, b1_t)
        return s_ab

    monkeypatch.setattr(pairwise, "_secrecy_pair_array", same_direction)
    monkeypatch.setattr(verify, "_secrecy_pair_array", same_direction)
    failed = {r.name for r in verify.run_suite("pairwise", 0) if not r.passed}
    assert {"swap-symmetry", "t-factor-identity"} <= failed


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_all_suites_run_as_one(seed: int) -> None:
    results = verify.run_suite("all", seed)
    assert len(results) == 28 and all(r.passed for r in results)
    order, suites = [r.suite for r in results], list(verify._SUITES)
    assert order == sorted(order, key=suites.index) and list(dict.fromkeys(order)) == suites
    assert len({(r.suite, r.name) for r in results}) == 28
    # every check the README's verify paragraph names, bare or as suite/name
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("- `verify`: ") :].split("\n\n")[0]
    listed = [t for t in re.findall(r"`([a-z][a-z/-]*)`", paragraph) if t != "verify"]
    assert len(listed) == 14
    for token in listed:
        suite, _, name = token.rpartition("/")
        assert any(r.name == name and suite in ("", r.suite) for r in results), token
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        verify.run_suite("nope", seed)
