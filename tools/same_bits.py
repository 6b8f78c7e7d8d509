"""Same bits: one sha256 per case, stored and checked against the code of this checkout.

Run from anywhere:

    python3 tools/same_bits.py --write   # store the digests in tools/same_bits.json
    python3 tools/same_bits.py --check   # print each case whose digest moved; exit 1 if any did

Run as a script, the tool runs everything in this process on the src/
next to this file; imported, it uses the fdjam its importer's sys.path
finds.  A CLI case is one or more `fdjam` command lines, run through
`fdjam.cli.main`, each in a fresh temporary directory that is its working
directory.  Its digest covers every run's command line, exit code, stdout
and stderr, and the name and bytes of every file the run wrote.  An
exception that escapes `main` counts as exit code 1 with its type and
message on stderr.  FDJAM_SEED is unset, so every seed comes from the
command line or the declared default.  A policy case calls
`policy_prob_zero` once, at seed 1, and its digest covers the `repr` of
the report: every float of the estimate and its bound to the last bit,
which the 7 digits that `fdjam policy` prints cannot show.  A per-draw
case hashes the bytes of `cond_prob_zero_pair_array` on DRAW_N Exp(1)
triples, then on the edge rows DRAW_EDGES, each at A~ = w0/2.  The
triples are -log1p(-u) of Generator(Philox(key=1)) uniforms, built here
rather than by the package's stream, so these cases pin the kernel
whatever that stream is.

The CLI cases: the README's CLI commands; `policy --samples 20000 --seed 5`;
`policy --ladder-db -30 -10 0 30 --p-accept 1e-3`; `verify --suite all` at
seeds 0-3 and 7; and the field matrix, both modes x five quantities x
P_J in {0, 1, 1e4, inf} x rho in {0, 0.01, 1} x n in {1, 7, 2000, 70000} on a
9x5 grid holding both endpoints, each written once as CSV and once as JSON
(480 cases), and the exact secrecy field at the float limit of P_T, both
modes x `--pt 1e308` x P_J in {1e300, inf} x rho in {0, 0.01} on the same
grid, written the same way (8 cases, 501 in all).  The policy cases: the constant policy at the points
(0, 0), (-0.6, 0), (0.49, 0), (1.3, 0.7) and Bob's node (0.5, 0) x
rho in {0, 0.01, 1} x P_J in {1e-3, 1, 1e4, 1e9} x n in {1, 8193, 70000},
and the semi-dynamic policy, which jams without bound whatever P_J is, at
the same points, rho and n (225 cases).  The per-draw cases: the same
points x rho in {0, 0.01, 1} x P_J in {1e-3, 1, 1e4, 1e15, 1e100, 1e155,
1e300, inf} (120 cases, 846 in all).  The stored file also names the
numpy and Python versions it was written with; floating-point results may
move with either.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STORE = os.path.join(ROOT, "tools", "same_bits.json")
if __name__ == "__main__":  # an importer keeps its own sys.path, and so the fdjam it chose
    sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from fdjam import cli  # noqa: E402
from fdjam.geometry import SystemParams, gains  # noqa: E402
from fdjam.montecarlo import MCConfig  # noqa: E402
from fdjam.pairwise_fading import (  # noqa: E402
    JamPolicy,
    JamPolicyKind,
    _wedge_window,
    cond_prob_zero_pair_array,
    policy_prob_zero,
)

GRID = ["--x-min", "-1", "--x-max", "1", "--y-min", "-0.5", "--y-max", "0.5", "--step", "0.25"]
QUANTITIES = {
    "secrecy": ["--quantity", "secrecy"],
    "fading-secrecy": ["--quantity", "secrecy", "--fading"],
    "prob-zero": ["--quantity", "prob-zero"],
    "opt-secrecy": ["--quantity", "secrecy", "--pj-opt"],
    "opt-prob-zero": ["--quantity", "prob-zero", "--pj-opt"],
}
POLICY_POINTS = ((0.0, 0.0), (-0.6, 0.0), (0.49, 0.0), (1.3, 0.7), (0.5, 0.0))
POLICY_RHOS = (0.0, 0.01, 1.0)
POLICY_PJS = (1e-3, 1.0, 1e4, 1e9)
POLICY_NS = (1, 8193, 70_000)
DRAW_PJS = (1e-3, 1.0, 1e4, 1e15, 1e100, 1e155, 1e300, math.inf)
DRAW_N = 8193
# (B1~, B2~) of the edge rows, each taken at A~ = w0/2, half its window
DRAW_EDGES = ((30.0, 0.0), (0.0, 30.0), (1e-300, 1.0), (1.0, 1e-300))


def readme_commands() -> list[list[str]]:
    """The `fdjam` lines of the README's CLI block, without the program name."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fdjam ")]


def cases() -> dict[str, list]:
    """Case name -> its runs: the argv of each command line, or one in-process call (policy_report, per_draw_bytes)."""
    single = readme_commands() + [
        ["policy", "--samples", "20000", "--seed", "5"],
        ["policy", "--ladder-db", "-30", "-10", "0", "30", "--p-accept", "1e-3"],
    ]
    single += [["verify", "--suite", "all", "--seed", str(seed)] for seed in (0, 1, 2, 3, 7)]
    out = {"fdjam " + shlex.join(argv): [argv] for argv in single}
    for mode in ("colluding", "pairwise"):
        for quantity, flags in QUANTITIES.items():
            for p_j in ("0", "1", "1e4", "inf"):
                for rho in ("0", "0.01", "1"):
                    for n in ("1", "7", "2000", "70000"):
                        argv = ["field", "--mode", mode, *flags, "--pj", p_j, "--rho", rho, "--pt-db", "60"]
                        argv += ["--samples", n, "--seed", "1", *GRID]
                        name = f"field {mode} {quantity} pj={p_j} rho={rho} n={n}"
                        out[name] = [argv + ["--out", "f.csv"], argv + ["--out", "f.json", "--json"]]
        for p_j in ("1e300", "inf"):
            for rho in ("0", "0.01"):
                argv = ["field", "--mode", mode, "--quantity", "secrecy", "--pt", "1e308", "--pj", p_j, "--rho", rho]
                argv += GRID
                name = f"field {mode} secrecy pt=1e308 pj={p_j} rho={rho}"
                out[name] = [argv + ["--out", "f.csv"], argv + ["--out", "f.json", "--json"]]
    for x, y in POLICY_POINTS:
        for rho in POLICY_RHOS:
            for n in POLICY_NS:
                for p_j in POLICY_PJS:
                    run = functools.partial(policy_report, JamPolicyKind.CONSTANT, x, y, rho, p_j, n)
                    out[f"policy constant at=({x:g}, {y:g}) rho={rho:g} pj={p_j:g} n={n}"] = [run]
                run = functools.partial(policy_report, JamPolicyKind.SEMI_DYNAMIC, x, y, rho, 1.0, n)
                out[f"policy semi-dynamic at=({x:g}, {y:g}) rho={rho:g} n={n}"] = [run]
        for rho in POLICY_RHOS:
            for p_j in DRAW_PJS:
                run = functools.partial(per_draw_bytes, x, y, rho, p_j)
                out[f"per-draw at=({x:g}, {y:g}) rho={rho:g} pj={p_j:g}"] = [run]
    return out


def policy_report(kind: JamPolicyKind, x: float, y: float, rho: float, p_j: float, n: int) -> str:
    """repr of policy_prob_zero at (x, y), seed 1, P_T = 1 and alpha = 2."""
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    return repr(policy_prob_zero(JamPolicy(kind), gains(x, y, params.alpha), params, MCConfig(1, n)))


def per_draw_bytes(x: float, y: float, rho: float, p_j: float) -> bytes:
    """The bytes of cond_prob_zero_pair_array at (x, y) on DRAW_N Exp(1) triples from Philox(key=1), then the edge rows."""
    params = SystemParams(p_t=1.0, p_j=p_j, rho=rho)
    u = -np.log1p(-np.random.Generator(np.random.Philox(key=1)).random((DRAW_N, 3)))
    b1, b2 = np.array(DRAW_EDGES).T
    c0, c2, _, _ = _wedge_window(rho, p_j, b1, b2)
    a_t = np.concatenate((u[:, 0], 0.5 * np.sqrt(c0 / c2)))
    b1, b2 = np.concatenate((u[:, 1], b1)), np.concatenate((u[:, 2], b2))
    return cond_prob_zero_pair_array(gains(x, y, params.alpha), params, a_t, b1, b2).tobytes()


def _run(run, into) -> None:
    """Run one command line in a fresh working directory, or one policy call, and feed what it did into the hash."""
    if callable(run):
        part = run()
        part = part if isinstance(part, bytes) else part.encode()
        into.update(len(part).to_bytes(8, "little") + part)
        return
    argv = run
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as stop:  # argparse: usage errors and --help
                    code = stop.code
                except Exception as exc:  # a traceback in a real process: exit 1, the error on stderr
                    code = 1
                    err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            os.chdir(here)
        files = sorted(os.listdir(tmp))
        parts = [shlex.join(argv), repr(code), out.getvalue(), err.getvalue()]
        for part in parts:
            into.update(len(part.encode()).to_bytes(8, "little") + part.encode())
        for name in files:
            with open(os.path.join(tmp, name), "rb") as fh:
                data = fh.read()
            into.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)


def digest(runs: list) -> str:
    """sha256 over every run of a case, in order."""
    h = hashlib.sha256()
    for run in runs:
        _run(run, h)
    return h.hexdigest()


def moved(stored: dict[str, str], names: list[str]) -> list[str]:
    """The named cases whose digest differs from the stored one, or that have none stored."""
    table = cases()
    return [name for name in names if stored.get(name) != digest(table[name])]


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--write", action="store_true", help=f"store every case's digest in {STORE}")
    what.add_argument("--check", action="store_true", help="print each case whose digest moved; exit 1 if any did")
    args = parser.parse_args(argv)
    os.environ.pop("FDJAM_SEED", None)
    table = cases()
    if args.write:
        record = {**versions(), "cases": {name: digest(runs) for name, runs in table.items()}}
        with open(STORE, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(table)} digests to {os.path.relpath(STORE)}")
        return 0
    with open(STORE) as fh:
        record = json.load(fh)
    if {k: record.get(k) for k in versions()} != versions():
        print(f"note: digests written with numpy {record.get('numpy')}, python {record.get('python')}")
    stored = record["cases"]
    bad = moved(stored, list(table)) + sorted(set(stored) - set(table))
    for name in bad:
        print(f"moved: {name}")
    print(f"{len(table)} cases, {len(bad)} moved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
