"""fdjam verify's Monte Carlo self-checks.

conditional-vs-mc compares a closed-form conditional probability with the
frequency of the raw event over 2e5 draws, within 4 standard errors of a
binomial with the closed form's p.  On these seeds the closed form is
3e-12 to 2e-6 and the draws see no event, so a width taken from the sample
(stderr 0) failed a correct closed form.
"""

import math

import numpy as np
import pytest

from fdjam import verify
from fdjam.colluding_fading import v_terms

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
        t = v_terms(g, params, a_tilde, b_tilde)
        return math.exp(-t.v2) / (1.0 + 2.0 * t.v1)

    monkeypatch.setattr(verify, "cond_prob_zero", wrong)
    check = next(r for r in verify.run_suite("colluding-fading", seed) if r.name == "conditional-vs-mc")
    assert not check.passed


def test_binomial_width_comes_from_the_closed_form() -> None:
    assert verify._binomial_se(0.25, 200_000) == pytest.approx(math.sqrt(0.25 * 0.75 / 200_000))
    assert verify._binomial_se(0.0, 200_000) == 0.0
    assert np.isfinite(verify._binomial_se(3e-12, 200_000))
