"""Command-line front end: grid sweeps, point queries, policy tables, self checks.

Exit codes: 0 success, 1 usage error, 2 failed verify suite, 141 stdout
closed by its reader (as `| head` does; the status of a SIGPIPE death),
with nothing on stderr.  A flat key=value config file can preload any
flag: its lines are read as flags placed before the command line's, so
explicit flags win.  The FDJAM_SEED environment variable sets the default
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .colluding import _at_optimum, opt_jam, secrecy_ab
from .colluding_fading import _cond_prob_zero_array, cdf_lower_bound, sample_cond_prob_zero
from .errors import FdjamError, UnboundedOptimumError
from .fields import GridSpec, build_field, build_region_grid, draws_mc, grid_argmax, grid_argmin, write_csv, write_json
from .geometry import LinkGains, SystemParams, gains, region_classify, rho_disk, sign_b_minus_rho_a
from .montecarlo import MCConfig, ecdf, estimate
from .pairwise import _coupled_power
from .pairwise_fading import JamPolicy, JamPolicyKind, _cond_prob_zero_pair_kernel, policy_prob_zero, semi_dynamic_cap
from .verify import available_suites, run_suite

__all__ = ["main"]

# mode -> (conditional zero-secrecy kernel, exponential draws per sample), for cmd_prob_zero
_COND_PROB_ZERO = {"colluding": (_cond_prob_zero_array, 2), "pairwise": (_cond_prob_zero_pair_kernel, 3)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for failed
    # verify suites here, so route everything through _UsageError instead
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def decibel(value) -> float:
    """A power ratio given in dB, as the linear ratio: the type of the --*-db flags, named for argparse's errors."""
    return 10.0 ** (float(value) / 10.0)


def _to_bool(text: str) -> bool:
    """A boolean config value."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise _UsageError(f"expected a boolean, got {text!r}")


def _config_argv(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """The key=value lines of a config file as flag tokens for parser.

    A key names a flag with '_' or '-' between words.  A one-value flag
    becomes --key=value, a flag of several values (at, ladder_db) takes the
    value's whitespace-separated words, and a boolean flag is --key when
    its value reads true and absent when it reads false.
    """
    flags = {opt: a for a in parser._actions for opt in a.option_strings if a.default is not argparse.SUPPRESS}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise _UsageError(f"unknown config key {key!r}")
        nargs = flags[flag].nargs
        if nargs == 0:
            tokens += [flag] if _to_bool(value) else []
        elif nargs is None:
            tokens.append(f"{flag}={value}")
        else:
            tokens += [flag, *value.split()]
    return tokens


def _resolve_params(args: argparse.Namespace) -> SystemParams:
    p_j = args.pj
    if args.pj_auto:
        if not args.rho > 0:
            raise _UsageError("--pj-auto needs rho > 0")
        p_j = _coupled_power(args.pt, args.rho)
    return SystemParams(p_t=args.pt, p_j=p_j, rho=args.rho, alpha=args.alpha)


def _resolve_at(args: argparse.Namespace) -> tuple[float, float]:
    if args.at is None:
        raise _UsageError("--at X Y is required")
    return args.at[0], args.at[1]


def _emit_grid(fg, args: argparse.Namespace) -> None:
    if args.out is not None:
        try:
            (write_json if args.json else write_csv)(fg, args.out)
        except BrokenPipeError:
            raise  # --out /dev/stdout with its reader gone: main's quiet exit, not a usage error
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
        print(f"wrote {args.out}")


def cmd_regions(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    grid = GridSpec(args.x_min, args.x_max, args.y_min, args.y_max, args.step)
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
        g = LinkGains(a=args.a, b=args.b)
    else:
        x, y = _resolve_at(args)
        g = gains(x, y, params.alpha)
    try:
        res = opt_jam(g, params.rho, params.p_t)
    except UnboundedOptimumError:  # rho = 0: jamming costs Bob nothing
        print(f"region = {region_classify(g, params.rho).name}")
        if math.isinf(g.a):
            print("secrecy = 0 at every jamming power")
        elif math.isinf(g.b):  # any power silences Eve, and Bob hears P_T
            p_j = float(_at_optimum(g.b, 0.0))
            tuned = dataclasses.replace(params, p_j=p_j)
            print("p_j_opt = any P_J > 0 (secrecy is the same at every positive power)")
            print(f"secrecy at p_j_opt = {secrecy_ab(g, tuned):.10g} bits")
        else:
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
    tuned = dataclasses.replace(params, p_j=p_j)
    print(f"secrecy at p_j_opt = {secrecy_ab(g, tuned):.10g} bits")
    return 0


def cmd_prob_zero(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mc = MCConfig(args.seed, args.samples)
    x, y = _resolve_at(args)
    g = gains(x, y, params.alpha)
    kernel, k = _COND_PROB_ZERO[args.mode]
    closed = float(kernel(g.a, g.b, params.rho, params.p_j, *[1.0] * k))

    def cond_and_small(u: np.ndarray) -> np.ndarray:
        c = kernel(g.a, g.b, params.rho, params.p_j, *u.T)
        return np.stack([c, c < 1e-4], axis=1)

    est, small = estimate(cond_and_small, mc, draws_per_sample=k)
    share = round(small.mean * small.n) / small.n  # the count k/n, not a mean an ulp off a 4-decimal tie
    print(f"mode = {args.mode} at ({x:g}, {y:g})")
    print(f"conditional P(S=0) at unit fading = {closed:.6e}")
    print(f"unconditional P(S=0) = {est.mean:.6e} +- {est.stderr:.2e}  [n={est.n}]")
    print(f"fraction of fading draws with conditional P < 1e-4 = {share:.4f}")
    return 0


def cmd_cdf(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mc = MCConfig(args.seed, args.samples)
    x, y = _resolve_at(args)
    g = gains(x, y, params.alpha)
    step = args.p_step
    if not 1e-6 <= step < 2.0 / 3.0:  # a larger step gives no level below 1, a smaller one over 10^6 levels
        raise _UsageError(f"--p-step must be in (0, 2/3) and at least 1e-6, got {step:g}")
    levels = np.arange(step, 1.0 - step / 2.0, step)
    # the bounds first: one that rejects the parameters stops the command before it draws or prints
    bounds = [cdf_lower_bound(float(p), g.a, g.b, params.rho, params.p_j) for p in levels]
    empirical = ecdf(sample_cond_prob_zero(g, params, mc), levels)
    print(f"cdf of conditional P(S=0) at ({x:g}, {y:g}) rho={params.rho:g} p_j={params.p_j:g} n={mc.n_samples}")
    print(f"{'p':>6}  {'lower_bound':>12}  {'empirical':>12}")
    for p, bound, emp in zip(levels, bounds, empirical):
        print(f"{p:6.2f}  {bound:12.6f}  {emp:12.6f}")
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    mc = MCConfig(args.seed, args.samples)
    x, y = args.at
    g = gains(x, y, params.alpha)
    general = None if args.p_accept is None else JamPolicy(JamPolicyKind.GENERAL_DYNAMIC, p_accept=args.p_accept)
    print(
        f"policy comparison at ({x:g}, {y:g}): rho={params.rho:g} alpha={params.alpha:g} "
        f"p_t={params.p_t:g} n={mc.n_samples} seed={mc.seed}"
    )
    print(f"{'pj_db':>6}  {'constant':>12}  {'p2_bound':>12}  {'semi_dyn':>12}  {'p1_bound':>12}  {'pi_rho_4':>12}")
    cap = semi_dynamic_cap(params.rho)
    # the semi-dynamic policy jams without bound whatever the rung's P_J: one report serves every row
    semi = policy_prob_zero(JamPolicy(JamPolicyKind.SEMI_DYNAMIC), g, params, mc)
    for db in args.ladder_db:
        rung = dataclasses.replace(params, p_j=decibel(db))
        const = policy_prob_zero(JamPolicy(JamPolicyKind.CONSTANT), g, rung, mc)
        print(
            f"{db:6.0f}  {const.estimate.mean:12.6e}  {const.p2.mean:12.6e}  "
            f"{semi.estimate.mean:12.6e}  {semi.p1.mean:12.6e}  {cap:12.6e}"
        )
    print("full-dynamic estimate = 0 (exact)")
    if general is not None:
        rep = policy_prob_zero(general, g, params, mc)
        print(
            f"general-dynamic p={args.p_accept:g}: acceptance = {rep.acceptance.mean:.6f} "
            f"+- {rep.acceptance.stderr:.2e}, accepted-mean conditional P = {rep.residual.mean:.6e}"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.seed)
    failures = sum(not r.passed for r in results)
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        tail = f"  ({r.detail})" if r.detail else ""
        print(f"{mark} {r.suite}/{r.name}{tail}")
    print(f"{len(results)} checks, {failures} failures")
    return 0 if failures == 0 else 2


def cmd_field(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    grid = GridSpec(args.x_min, args.x_max, args.y_min, args.y_max, args.step)
    mc = MCConfig(args.seed, args.samples) if draws_mc(args.mode, args.quantity, args.fading) else None
    fg = build_field(
        args.mode,
        params,
        grid,
        quantity=args.quantity,
        fading=args.fading,
        mc=mc,
        pj_per_cell="opt" if args.pj_opt else "fixed",
    )
    cells = f"cells={grid.nx * grid.ny} ({grid.nx}x{grid.ny})"
    print(f"field mode={args.mode} quantity={args.quantity} fading={args.fading} {cells}")
    xmin, ymin, vmin = grid_argmin(fg)
    xmax, ymax, vmax = grid_argmax(fg)
    print(f"min = {vmin:.6g} at ({xmin:g}, {ymin:g})")
    print(f"max = {vmax:.6g} at ({xmax:g}, {ymax:g})")
    print(f"mean = {float(np.mean(fg.values)):.6g}")
    _emit_grid(fg, args)
    return 0


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value file of flags; explicit flags override it")

    # each --*-db flag stores the linear value under its linear twin's name
    power = argparse.ArgumentParser(add_help=False)
    pt = power.add_mutually_exclusive_group()
    pt.add_argument("--pt", type=float, default=100.0, help="transmit power, linear (default %(default)s)")
    pt.add_argument("--pt-db", type=decibel, dest="pt", metavar="DB", help="transmit power in dB")
    pj = power.add_mutually_exclusive_group()
    pj.add_argument("--pj", type=float, default=1.0, help="jamming power, linear; inf allowed (default %(default)s)")
    pj.add_argument("--pj-db", type=decibel, dest="pj", metavar="DB", help="jamming power in dB")
    pj.add_argument("--pj-auto", action="store_true", help="set P_J = sqrt(P_T/rho)")
    rho = power.add_mutually_exclusive_group()
    rho.add_argument("--rho", type=float, default=0.1, help="self-interference gain (default %(default)s)")
    rho.add_argument("--rho-db", type=decibel, dest="rho", metavar="DB", help="self-interference gain in dB")
    power.add_argument("--alpha", type=float, default=2.0, help="path-loss exponent (default %(default)s)")

    seeded = argparse.ArgumentParser(add_help=False)
    seed = os.environ.get("FDJAM_SEED", "0")  # a string, so argparse converts and checks it like a flag value
    seeded.add_argument("--seed", type=int, default=seed, help="RNG seed (default %(default)s, from $FDJAM_SEED or 0)")
    mc = argparse.ArgumentParser(add_help=False, parents=[seeded])
    mc.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count (default %(default)s)")

    gridp = argparse.ArgumentParser(add_help=False)
    gridp.add_argument("--x-min", type=float, default=-2.0, help="grid edge (default %(default)s)")
    gridp.add_argument("--x-max", type=float, default=2.0, help="grid edge (default %(default)s)")
    gridp.add_argument("--y-min", type=float, default=-2.0, help="grid edge (default %(default)s)")
    gridp.add_argument("--y-max", type=float, default=2.0, help="grid edge (default %(default)s)")
    gridp.add_argument("--step", type=float, default=0.01, help="grid step (default %(default)s)")

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--out", help="write the grid to this path")
    io.add_argument("--json", action="store_true", help="write JSON instead of CSV")

    modes, xy = ("colluding", "pairwise"), dict(nargs=2, type=float, metavar=("X", "Y"))
    parser = _Parser(prog="fdjam", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("regions", parents=[common, power, gridp, io], help="classify the plane into R1..R4")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("optjam", parents=[common, power], help="optimal jamming power for one eavesdropper")
    p.add_argument("--a", type=float, help="normalized transmitter-to-eve gain")
    p.add_argument("--b", type=float, help="normalized receiver-to-eve gain")
    p.add_argument("--at", **xy, help="eavesdropper location")
    p.set_defaults(func=cmd_optjam)

    p = sub.add_parser("prob-zero", parents=[common, power, mc], help="zero-secrecy probability under fading")
    p.add_argument("--mode", choices=modes, default="colluding", help="eavesdropper model (default %(default)s)")
    p.add_argument("--at", **xy, help="eavesdropper location")
    p.set_defaults(func=cmd_prob_zero)

    p = sub.add_parser("cdf", parents=[common, power, mc], help="CDF of the conditional zero-secrecy probability")
    p.add_argument("--at", **xy, help="eavesdropper location")
    p.add_argument(
        "--p-step", type=float, default=0.05, help="level spacing, in (0, 2/3) and at least 1e-6 (default %(default)s)"
    )
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("policy", parents=[common, power, mc], help="jamming policy comparison table")
    p.add_argument("--at", **xy, default=(0.0, 0.0), help="eavesdropper location (default %(default)s)")
    ladder = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    p.add_argument("--ladder-db", nargs="+", type=float, default=ladder, help="P_J rungs in dB (default %(default)s)")
    p.add_argument("--p-accept", type=float, help="also report the general-dynamic policy at this threshold")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("verify", parents=[common, seeded], help="run the self-check suites")
    p.add_argument("--suite", choices=available_suites(), default="all", help="suite name (default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "field",
        parents=[common, power, mc, gridp, io],
        help="sweep a field over the grid",
        description="Sweep one quantity over the grid. --seed sets the one draw per cell of a --fading field, "
        "which --samples does not reach. --samples and --seed set the draws of a pairwise prob-zero field; "
        "they do not reach a colluding prob-zero field, which is a "
        "deterministic cubature with a per-cell error (written to --json output under \"error\").",
    )
    p.add_argument("--mode", choices=modes, default="colluding", help="eavesdropper model (default %(default)s)")
    quantities = ("secrecy", "prob-zero")
    p.add_argument("--quantity", choices=quantities, default="secrecy", help="swept quantity (default %(default)s)")
    p.add_argument("--fading", action="store_true", help="draw eve-side fading per cell (secrecy only)")
    p.add_argument("--pj-opt", action="store_true", help="re-optimize P_J in every cell (colluding)")
    p.set_defaults(func=cmd_field)

    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            at = argv.index(args.command) + 1
            argv[at:at] = _config_argv(args.config, parser.commands[args.command])
            args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return status
    except (_UsageError, FdjamError) as exc:
        print(f"fdjam: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is still buffered goes to devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
