"""Edge probes: inputs at the singular points where the physics has a limit.

Probes are not timed.  A probe fails on an untyped exception, on an
InvalidParameterError for one of these valid inputs (an endpoint, P_J in
{0, inf}, rho = 0, b = rho*a), on a NaN where the limit is defined, or, for
the CLI, on a non-zero exit or a printed NaN.  UnsupportedRegimeError and
UnboundedOptimumError are typed answers, not failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import fdjam
from fdjam.pairwise_fading import cond_prob_zero_pair_array
from workloads import P_T, PAPER, RHO, CliRunner, derive_seed, grid

TYPED = (fdjam.UnsupportedRegimeError, fdjam.UnboundedOptimumError)
N_PROBE = 200


@dataclass
class Probe:
    name: str
    run: Callable[[], Any]  # API probes return values that must not be NaN
    cli: bool = False  # CLI probes return None, or why the command failed


def run_probe(probe: Probe) -> str | None:
    """None when the probe passes, else why it failed."""
    try:
        with np.errstate(all="ignore"):
            out = probe.run()
    except TYPED:
        return None
    except fdjam.InvalidParameterError as exc:
        return f"InvalidParameterError: {exc}"
    except Exception as exc:  # the probe's purpose is to report any stray exception
        return f"untyped {type(exc).__name__}: {exc}"
    if probe.cli:
        return out
    values = np.asarray(out, dtype=float)
    if np.any(np.isnan(values)):
        return f"{int(np.sum(np.isnan(values)))} NaN values"
    return None


def _params(**kw: float) -> fdjam.SystemParams:
    base = {"p_t": P_T, "p_j": PAPER.p_j, "rho": RHO}
    base.update(kw)
    return fdjam.SystemParams(**base)


LIMITS = {"pj=0": {"p_j": 0.0}, "pj=inf": {"p_j": math.inf}, "rho=0": {"rho": 0.0}}


def sweep_probes(seed: int) -> list[Probe]:
    def mc(name: str) -> fdjam.MCConfig:
        return fdjam.MCConfig(seed=derive_seed(seed, "probe/" + name), n_samples=N_PROBE)

    probes = []
    for step in (0.5, 0.1):
        g = grid(step)
        probes += [
            Probe(f"opt_coll default grid step {step}", lambda g=g: fdjam.build_field("colluding", PAPER, g, pj_per_cell="opt").values),
            Probe(f"optjam default grid step {step}", lambda g=g: fdjam.build_optjam_grid(g, PAPER).values),
            Probe(
                f"pz_pair default grid step {step}",
                lambda g=g, step=step: fdjam.build_field(
                    "pairwise", PAPER, g, quantity="prob-zero", mc=mc(f"pz_pair/{step}")
                ).values,
            ),
        ]
    probes.append(
        Probe("opt_jam on b = rho*a", lambda: fdjam.opt_jam(fdjam.LinkGains(a=4.0, b=4.0 * RHO), RHO, P_T).p_j_opt)
    )
    g5 = grid(0.5)
    for label, kw in LIMITS.items():
        p = _params(**kw)
        probes += [
            Probe(f"static_pair {label}", lambda p=p: fdjam.build_field("pairwise", p, g5).values),
            Probe(f"fading_pair {label}", lambda p=p, label=label: fdjam.build_field("pairwise", p, g5, fading=True, mc=mc(label)).values),
            Probe(f"fading_coll {label}", lambda p=p, label=label: fdjam.build_field("colluding", p, g5, fading=True, mc=mc(label)).values),
            Probe(
                f"pz_coll {label}",
                lambda p=p, label=label: fdjam.build_field("colluding", p, g5, quantity="prob-zero", mc=mc(label)).values,
            ),
        ]
    probes += [
        Probe("region rho=0", lambda: fdjam.build_region_grid(g5, 0.0).values),
        Probe("opt_coll rho=0", lambda: fdjam.build_field("colluding", _params(rho=0.0), grid(0.5, shift=True), pj_per_cell="opt").values),
    ]
    return probes


def ladder_probes(seed: int) -> list[Probe]:
    mc = fdjam.MCConfig(seed=derive_seed(seed, "probe/ladder"), n_samples=N_PROBE)
    probes = []
    for at in ((0.0, 0.0), (0.5, 0.0)):
        g = fdjam.gains(*at, 2.0)
        where = f"at ({at[0]:g}, {at[1]:g})"
        for label, kw in LIMITS.items():
            p = _params(**kw)

            def report(kind: fdjam.JamPolicyKind, g=g, p=p, accept: float | None = None) -> list[float]:
                rep = fdjam.policy_prob_zero(fdjam.JamPolicy(kind, p_accept=accept), g, p, mc)
                return [e.mean for e in (rep.estimate, rep.p1, rep.p2, rep.acceptance, rep.residual) if e is not None]

            probes += [
                Probe(f"constant {where} {label}", lambda r=report: r(fdjam.JamPolicyKind.CONSTANT)),
                Probe(f"semi {where} {label}", lambda r=report: r(fdjam.JamPolicyKind.SEMI_DYNAMIC)),
                Probe(f"general {where} {label}", lambda r=report: r(fdjam.JamPolicyKind.GENERAL_DYNAMIC, accept=0.01)),
                Probe(
                    f"uncond_prob_zero {where} {label}",
                    lambda g=g, p=p: [fdjam.uncond_prob_zero(g, p, mc).mean, fdjam.uncond_upper_bound(g, p, mc).mean],
                ),
                Probe(f"sample_cond_prob_zero {where} {label}", lambda g=g, p=p: fdjam.sample_cond_prob_zero(g, p, mc)),
                Probe(
                    f"pairwise estimate {where} {label}",
                    lambda g=g, p=p: fdjam.estimate(
                        lambda u: cond_prob_zero_pair_array(g, p, u[:, 0], u[:, 1], u[:, 2]), mc, draws_per_sample=3
                    ).mean,
                ),
            ]
    return probes


def cli_probes(seed: int, runner: CliRunner) -> list[Probe]:
    def command(argv: list[str]) -> Callable[[], str | None]:
        def run() -> str | None:
            res = runner.run(argv)
            if res.code != 0:
                return f"exit {res.code}: {(res.stderr.strip().splitlines() or [''])[-1][-160:]}"
            if "nan" in res.stdout.lower().replace("gamma = nan", "").replace("beta = nan", ""):
                return "printed NaN"
            return None

        return run

    s = str(derive_seed(seed, "probe/cli"))
    argvs = {
        "field --pj-opt default grid": ["field", "--pj-opt"],
        "field pairwise prob-zero default grid": ["field", "--mode", "pairwise", "--quantity", "prob-zero", "--step", "0.5", "--samples", "200", "--seed", s],
        "field colluding prob-zero --pj 0": ["field", "--quantity", "prob-zero", "--pj", "0", "--step", "0.5", "--samples", "200", "--seed", s],
        "prob-zero pairwise at an endpoint": ["prob-zero", "--mode", "pairwise", "--at", "0.5", "0", "--samples", "200", "--seed", s],
        "prob-zero colluding --pj 0 at an endpoint": ["prob-zero", "--at", "0.5", "0", "--pj", "0", "--samples", "200", "--seed", s],
        "optjam on b = rho*a": ["optjam", "--a", "4", "--b", "0.4", "--rho", "0.1"],
        "policy --rho 0": ["policy", "--rho", "0", "--samples", "1000", "--ladder-db", "0", "60", "--seed", s],
        "cdf --pj inf": ["cdf", "--at", "0", "0", "--pj", "inf", "--samples", "1000", "--seed", s],
    }
    return [Probe(name, command(argv), cli=True) for name, argv in argvs.items()]
