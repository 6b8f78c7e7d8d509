"""Secrecy capacity of a full-duplex link protected by friendly jamming.

Alice at (-0.5, 0) transmits to Bob at (0.5, 0), who jams while receiving;
an eavesdropper (or a colluding continuum of them) sits at (x, y).  The
package covers the static geometry (regions, disks, optimal jamming power),
Rayleigh-fading outage probabilities for the colluding and pairwise threat
models, jamming-power policies, seeded Monte Carlo, and grid sweeps with a
CLI front end.

The top level re-exports only the entry points below; every other name is
imported from its module (fdjam.geometry, fdjam.colluding, ...).
"""

from .colluding import opt_jam, secrecy_ab
from .colluding_fading import (
    cdf_lower_bound,
    cond_prob_zero,
    sample_cond_prob_zero,
    uncond_prob_zero,
    uncond_upper_bound,
)
from .errors import (
    FdjamError,
    InvalidParameterError,
    RegimeWarning,
    UnboundedOptimumError,
    UnsupportedRegimeError,
)
from .fields import FieldGrid, GridSpec, build_field, build_optjam_grid, build_region_grid, read_csv, read_json
from .geometry import LinkGains, SystemParams, gains, region_classify
from .montecarlo import Estimate, MCConfig, ecdf, estimate
from .pairwise_fading import JamPolicy, JamPolicyKind, PolicyReport, policy_prob_zero, semi_dynamic_cap

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "FdjamError",
    "FieldGrid",
    "GridSpec",
    "InvalidParameterError",
    "JamPolicy",
    "JamPolicyKind",
    "LinkGains",
    "MCConfig",
    "PolicyReport",
    "RegimeWarning",
    "SystemParams",
    "UnboundedOptimumError",
    "UnsupportedRegimeError",
    "build_field",
    "build_optjam_grid",
    "build_region_grid",
    "cdf_lower_bound",
    "cond_prob_zero",
    "ecdf",
    "estimate",
    "gains",
    "opt_jam",
    "policy_prob_zero",
    "read_csv",
    "read_json",
    "region_classify",
    "sample_cond_prob_zero",
    "secrecy_ab",
    "semi_dynamic_cap",
    "uncond_prob_zero",
    "uncond_upper_bound",
]
