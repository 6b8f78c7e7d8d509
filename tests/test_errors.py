"""Every rejected parameter raises InvalidParameterError, with a message that names it."""

import math
import re

import pytest

from fdjam.colluding import opt_jam
from fdjam.colluding_fading import cdf_lower_bound, decreasing_prob_complement
from fdjam.errors import InvalidParameterError
from fdjam.geometry import LinkGains, SystemParams, region4_containment_threshold, rho_disk
from fdjam.montecarlo import MCConfig, sample_matrix
from fdjam.pairwise_fading import p2_bound, pair_terms

MC = MCConfig(seed=1, n_samples=10)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SystemParams(1, 1, math.inf), "rho must be finite and >= 0, got inf"),
        (lambda: LinkGains(0, 1), "gains must be > 0, got a=0, b=1"),
        (lambda: rho_disk(-0.1, 2), "rho must be >= 0, got -0.1"),
        (lambda: rho_disk(0.1, 1.5), "alpha must be >= 2, got 1.5"),
        (lambda: region4_containment_threshold(0.1, 1.5), "alpha must be >= 2, got 1.5"),
        (lambda: opt_jam(LinkGains(4, 1), 0.1, 0), "p_t must be > 0, got 0"),
        (lambda: opt_jam(LinkGains(4, 1), -0.1, 100), "rho must be >= 0, got -0.1"),
        (lambda: decreasing_prob_complement(1, -1, 0.1), "b and rho must make eta = b/(rho*a) positive"),
        (lambda: cdf_lower_bound(0.5, 0, 1, 0.1, 1), "gains must be > 0"),
        (lambda: p2_bound(0.1, 0, MC), "p2_bound needs P_J > 0, got 0"),
        (
            lambda: pair_terms(LinkGains(math.inf, 1), SystemParams(100, 1, 0.1), 1, 1, 1),
            "pair_terms needs finite gains; use the node limit results",
        ),
        (lambda: sample_matrix(MC, 0), "draws_per_sample must be >= 1"),
    ],
)
def test_rejected_parameters_raise_the_typed_error(call, message: str) -> None:
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        call()
