"""Command-line front end: grid sweeps, point queries, policy tables, self checks.

Exit codes: 0 success, 1 usage error, 2 failed verify suite.  A flat
key=value config file can preload any flag; explicit flags win.  The
FDJAM_SEED environment variable sets the default seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .colluding import _at_optimum, opt_jam, secrecy_ab
from .colluding_fading import _cond_prob_zero_array, cdf_lower_bound, cond_prob_zero, sample_cond_prob_zero
from .errors import FdjamError, UnboundedOptimumError
from .fields import GridSpec, build_field, build_region_grid, grid_argmax, grid_argmin, write_csv, write_json
from .geometry import LinkGains, SystemParams, gains, rho_disk, sign_b_minus_rho_a
from .montecarlo import MCConfig, ecdf, estimate
from .pairwise_fading import (
    JamPolicy,
    JamPolicyKind,
    cond_prob_zero_pair,
    cond_prob_zero_pair_array,
    policy_prob_zero,
    semi_dynamic_cap,
)
from .verify import available_suites, run_suite

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for failed
    # verify suites here, so route everything through _UsageError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"expected a boolean, got {value!r}")


def _pick(args: argparse.Namespace, linear: str, db: str, default: float) -> float:
    lv = getattr(args, linear)
    dv = getattr(args, db.replace("-", "_"))
    if lv is not None and dv is not None:
        raise _UsageError(f"--{linear.replace('_', '-')} and --{db} are mutually exclusive")
    if lv is not None:
        return float(lv)
    if dv is not None:
        return _db_to_linear(float(dv))
    return default


def _resolve_params(args: argparse.Namespace) -> SystemParams:
    p_t = _pick(args, "pt", "pt-db", 100.0)
    rho = _pick(args, "rho", "rho-db", 0.1)
    auto = getattr(args, "pj_auto", None)
    auto = _to_bool(auto) if auto is not None else False
    if auto and (args.pj is not None or args.pj_db is not None):
        raise _UsageError("--pj-auto cannot be combined with --pj or --pj-db")
    if auto:
        if not rho > 0:
            raise _UsageError("--pj-auto needs rho > 0")
        p_j = math.sqrt(p_t / rho)
    else:
        p_j = _pick(args, "pj", "pj-db", 1.0)
    alpha = float(args.alpha) if args.alpha is not None else 2.0
    delta = float(args.delta) if args.delta is not None else 0.1
    return SystemParams(p_t=p_t, p_j=p_j, rho=rho, alpha=alpha, delta=delta)


def _resolve_mc(args: argparse.Namespace, default_samples: int = 100_000) -> MCConfig:
    if args.seed is not None:
        seed = int(args.seed)
    else:
        seed = int(os.environ.get("FDJAM_SEED", "0"))
    samples = int(args.samples) if args.samples is not None else default_samples
    return MCConfig(seed=seed, n_samples=samples)


def _resolve_grid(args: argparse.Namespace) -> GridSpec:
    def get(name: str, default: float) -> float:
        v = getattr(args, name)
        return float(v) if v is not None else default

    return GridSpec(
        x_min=get("x_min", -2.0),
        x_max=get("x_max", 2.0),
        y_min=get("y_min", -2.0),
        y_max=get("y_max", 2.0),
        step=get("step", 0.01),
    )


def _resolve_at(args: argparse.Namespace) -> tuple[float, float]:
    at = args.at
    if at is None:
        raise _UsageError("--at X Y is required")
    if isinstance(at, str):
        at = at.split()
    if len(at) != 2:
        raise _UsageError(f"--at needs exactly two coordinates, got {at!r}")
    return float(at[0]), float(at[1])


def _emit_grid(fg, args: argparse.Namespace) -> None:
    if args.out is None:
        return
    as_json = args.json is not None and _to_bool(args.json)
    if as_json:
        write_json(fg, args.out)
    else:
        write_csv(fg, args.out)
    print(f"wrote {args.out}")


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _apply_config(args: argparse.Namespace) -> None:
    """Fill flags that were not given on the command line from the config file."""
    if args.config is None:
        return
    known = vars(args)
    for key, value in _load_config(args.config).items():
        if key not in known:
            raise _UsageError(f"unknown config key {key!r}")
        if known[key] is None:
            setattr(args, key, value)


def cmd_regions(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    grid = _resolve_grid(args)
    fg = build_region_grid(grid, params.rho, params.alpha)
    counts = {r: int(np.sum(fg.values == r)) for r in (1.0, 2.0, 3.0, 4.0)}
    print(
        f"regions rho={params.rho:g} alpha={params.alpha:g}: "
        + " ".join(f"R{int(r)}={n}" for r, n in counts.items())
    )
    disk = rho_disk(params.rho, params.alpha)
    side = disk.side.name.lower().replace("_", "-")
    if math.isinf(disk.x0):
        print("disk: half-plane x > 0")
    else:
        print(f"disk: center=({-disk.x0:.6g}, 0) r={disk.r:.6g} side={side}")
    _emit_grid(fg, args)
    return 0


def cmd_optjam(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    has_ab = args.a is not None or args.b is not None
    if has_ab and args.at is not None:
        raise _UsageError("give either --a/--b or --at, not both")
    if has_ab:
        if args.a is None or args.b is None:
            raise _UsageError("--a and --b must be given together")
        g = LinkGains(a=float(args.a), b=float(args.b))
    else:
        x, y = _resolve_at(args)
        g = gains(x, y, params.alpha)
    try:
        res = opt_jam(g, params.rho, params.p_t)
    except UnboundedOptimumError:
        print("region = R1/R2 at rho = 0")
        print("p_j_opt = inf (secrecy keeps increasing with jamming power)")
        return 0
    print(f"region = {res.region.name}")
    if sign_b_minus_rho_a(g.a, g.b, params.rho) == 0:
        print("gamma, beta undefined on b = rho*a (they diverge with opposite signs on its two sides)")
    else:
        print(f"gamma = {res.gamma:.10g}")
        print(f"beta = {res.beta:.10g}")
    print(f"p_j_opt = {res.p_j_opt:.10g}")
    p_j = float(_at_optimum(g.b, res.p_j_opt))
    tuned = SystemParams(p_t=params.p_t, p_j=p_j, rho=params.rho, alpha=params.alpha, delta=params.delta)
    print(f"secrecy at p_j_opt = {secrecy_ab(g, tuned):.10g} bits")
    return 0


def cmd_prob_zero(args: argparse.Namespace) -> int:
    mode = args.mode if args.mode is not None else "colluding"
    if mode not in ("colluding", "pairwise"):
        raise _UsageError(f"unknown mode {mode!r}")
    params = _resolve_params(args)
    mc = _resolve_mc(args)
    x, y = _resolve_at(args)
    g = gains(x, y, params.alpha)

    if mode == "colluding":
        closed, k = cond_prob_zero(g, params, 1.0, 1.0), 2

        def cond(u: np.ndarray) -> np.ndarray:
            return _cond_prob_zero_array(g.a, g.b, params.rho, params.p_j, u[:, 0], u[:, 1])

    else:
        closed, k = cond_prob_zero_pair(g, params, 1.0, 1.0, 1.0), 3

        def cond(u: np.ndarray) -> np.ndarray:
            return cond_prob_zero_pair_array(g, params, u[:, 0], u[:, 1], u[:, 2])

    def cond_and_small(u: np.ndarray) -> np.ndarray:
        c = cond(u)
        return np.stack([c, c < 1e-4], axis=1)

    est, small = estimate(cond_and_small, mc, draws_per_sample=k)
    share = round(small.mean * small.n) / small.n  # the count k/n, not a mean an ulp off a 4-decimal tie
    print(f"mode = {mode} at ({x:g}, {y:g})")
    print(f"conditional P(S=0) at unit fading = {closed:.6e}")
    print(f"unconditional P(S=0) = {est.mean:.6e} +- {est.stderr:.2e}  [n={est.n}]")
    print(f"fraction of fading draws with conditional P < 1e-4 = {share:.4f}")
    return 0


def cmd_cdf(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mc = _resolve_mc(args)
    x, y = _resolve_at(args)
    g = gains(x, y, params.alpha)
    step = float(args.p_step) if args.p_step is not None else 0.05
    levels = np.arange(step, 1.0 - step / 2.0, step)
    cond = sample_cond_prob_zero(g, params, mc)
    empirical = ecdf(cond, levels)
    print(f"cdf of conditional P(S=0) at ({x:g}, {y:g}) rho={params.rho:g} p_j={params.p_j:g} n={mc.n_samples}")
    print(f"{'p':>6}  {'lower_bound':>12}  {'empirical':>12}")
    for p, emp in zip(levels, empirical):
        bound = cdf_lower_bound(float(p), g.a, g.b, params.rho, params.p_j)
        print(f"{p:6.2f}  {bound:12.6f}  {emp:12.6f}")
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mc = _resolve_mc(args)
    if args.at is None:
        x, y = 0.0, 0.0
    else:
        x, y = _resolve_at(args)
    g = gains(x, y, params.alpha)
    if args.ladder_db is None:
        ladder = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    elif isinstance(args.ladder_db, str):
        ladder = [float(tok) for tok in args.ladder_db.split()]
    else:
        ladder = [float(v) for v in args.ladder_db]

    print(
        f"policy comparison at ({x:g}, {y:g}): rho={params.rho:g} alpha={params.alpha:g} "
        f"p_t={params.p_t:g} n={mc.n_samples} seed={mc.seed}"
    )
    print(f"{'pj_db':>6}  {'constant':>12}  {'p2_bound':>12}  {'semi_dyn':>12}  {'p1_bound':>12}  {'pi_rho_4':>12}")
    cap = semi_dynamic_cap(params.rho)

    def _mean(e) -> float:
        return e.mean if e is not None else float("nan")

    # the semi-dynamic policy jams without bound whatever the rung's P_J: one report serves every row
    semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
    for db in ladder:
        pj = _db_to_linear(db)
        rung = SystemParams(p_t=params.p_t, p_j=pj, rho=params.rho, alpha=params.alpha, delta=params.delta)
        const = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, rung, mc)
        print(
            f"{db:6.0f}  {const.estimate.mean:12.6e}  {_mean(const.p2):12.6e}  "
            f"{semi.estimate.mean:12.6e}  {_mean(semi.p1):12.6e}  {cap:12.6e}"
        )
    print("full-dynamic estimate = 0 (exact)")
    if args.p_accept is not None:
        policy = JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=float(args.p_accept))
        rep = policy_prob_zero(policy, g, params, mc)
        print(
            f"general-dynamic p={float(args.p_accept):g}: acceptance = {rep.acceptance.mean:.6f} "
            f"+- {rep.acceptance.stderr:.2e}, accepted-mean conditional P = {rep.residual.mean:.6e}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite = args.suite if args.suite is not None else "all"
    seed = int(args.seed) if args.seed is not None else int(os.environ.get("FDJAM_SEED", "0"))
    try:
        results = run_suite(suite, seed)
    except KeyError:
        raise _UsageError(f"unknown suite {suite!r}; choose from {', '.join(available_suites())}") from None
    failures = 0
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        tail = f"  ({r.detail})" if r.detail else ""
        print(f"{mark} {r.suite}/{r.name}{tail}")
        failures += 0 if r.passed else 1
    print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 2


def cmd_field(args: argparse.Namespace) -> int:
    mode = args.mode if args.mode is not None else "colluding"
    quantity = args.quantity if args.quantity is not None else "secrecy"
    fading = _to_bool(args.fading) if args.fading is not None else False
    pj_opt = _to_bool(args.pj_opt) if args.pj_opt is not None else False
    params = _resolve_params(args)
    grid = _resolve_grid(args)
    mc = _resolve_mc(args) if (fading or quantity == "prob-zero") else None
    fg = build_field(
        mode,
        params,
        grid,
        quantity=quantity,
        fading=fading,
        mc=mc,
        pj_per_cell="opt" if pj_opt else "fixed",
    )
    print(f"field mode={mode} quantity={quantity} fading={fading} cells={grid.nx * grid.ny} ({grid.nx}x{grid.ny})")
    xmin, ymin, vmin = grid_argmin(fg)
    xmax, ymax, vmax = grid_argmax(fg)
    print(f"min = {vmin:.6g} at ({xmin:g}, {ymin:g})")
    print(f"max = {vmax:.6g} at ({xmax:g}, {ymax:g})")
    print(f"mean = {float(np.mean(fg.values)):.6g}")
    _emit_grid(fg, args)
    return 0


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file; explicit flags override it")

    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--pt", type=float, help="transmit power (linear, default 100)")
    power.add_argument("--pt-db", type=float, help="transmit power in dB")
    power.add_argument("--pj", type=float, help="jamming power (linear, default 1; inf allowed)")
    power.add_argument("--pj-db", type=float, help="jamming power in dB")
    power.add_argument("--pj-auto", action="store_true", default=None, help="set P_J = sqrt(P_T/rho)")
    power.add_argument("--rho", type=float, help="self-interference gain (default 0.1)")
    power.add_argument("--rho-db", type=float, help="self-interference gain in dB")
    power.add_argument("--alpha", type=float, help="path-loss exponent (default 2)")
    power.add_argument("--delta", type=float, help="exclusion radius (default 0.1)")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--samples", type=int, help="Monte Carlo sample count (default 100000)")
    mc.add_argument("--seed", type=int, help="RNG seed (default $FDJAM_SEED or 0)")

    gridp = argparse.ArgumentParser(add_help=False)
    gridp.add_argument("--x-min", type=float)
    gridp.add_argument("--x-max", type=float)
    gridp.add_argument("--y-min", type=float)
    gridp.add_argument("--y-max", type=float)
    gridp.add_argument("--step", type=float, help="grid step (default 0.01)")

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", help="write the grid to this path")
    io.add_argument("--json", action="store_true", default=None, help="write JSON instead of CSV")

    parser = _Parser(prog="fdjam", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("regions", parents=[common, power, gridp, io], help="classify the plane into R1..R4")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("optjam", parents=[common, power], help="optimal jamming power for one eavesdropper")
    p.add_argument("--a", type=float, help="normalized transmitter-to-eve gain")
    p.add_argument("--b", type=float, help="normalized receiver-to-eve gain")
    p.add_argument("--at", nargs=2, type=float, metavar=("X", "Y"), help="eavesdropper location")
    p.set_defaults(func=cmd_optjam)

    p = sub.add_parser("prob-zero", parents=[common, power, mc], help="zero-secrecy probability under fading")
    p.add_argument("--mode", help="colluding or pairwise (default colluding)")
    p.add_argument("--at", nargs=2, type=float, metavar=("X", "Y"), help="eavesdropper location")
    p.set_defaults(func=cmd_prob_zero)

    p = sub.add_parser("cdf", parents=[common, power, mc], help="CDF of the conditional zero-secrecy probability")
    p.add_argument("--at", nargs=2, type=float, metavar=("X", "Y"), help="eavesdropper location")
    p.add_argument("--p-step", type=float, help="level spacing (default 0.05)")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("policy", parents=[common, power, mc], help="jamming policy comparison table")
    p.add_argument("--at", nargs=2, type=float, metavar=("X", "Y"), help="eavesdropper location (default 0 0)")
    p.add_argument("--ladder-db", nargs="+", type=float, help="P_J rungs in dB (default 0..60 by 10)")
    p.add_argument("--p-accept", type=float, help="also report the general-dynamic policy at this threshold")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("verify", parents=[common, mc], help="run the self-check suites")
    p.add_argument("--suite", help="suite name or 'all' (default all)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("field", parents=[common, power, mc, gridp, io], help="sweep a field over the grid")
    p.add_argument("--mode", help="colluding or pairwise (default colluding)")
    p.add_argument("--quantity", help="secrecy or prob-zero (default secrecy)")
    p.add_argument("--fading", action="store_true", default=None, help="draw eve-side fading per cell")
    p.add_argument("--pj-opt", action="store_true", default=None, help="re-optimize P_J in every cell (colluding)")
    p.set_defaults(func=cmd_field)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
        _apply_config(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"fdjam: error: {exc}", file=sys.stderr)
        return 1
    except FdjamError as exc:
        print(f"fdjam: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
