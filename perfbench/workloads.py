"""The three workloads: timed jobs on the public fdjam API, and their checks.

Every job is one call (or one CLI process) whose inputs come from the
workload seed.  Checks run after the timed loop and are statistical where
the output is random, so that a new random stream with the same law still
passes; a check returns a list of failure messages.

Paper settings: rho = 0.01, P_T = 60 dB, P_J = sqrt(P_T/rho).
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import fdjam
from fdjam.oracles import golden_max_secrecy, quad_prob_zero_pair
from fdjam.pairwise_fading import cond_prob_zero_pair_array

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RHO = 0.01
P_T = 1e6
PAPER = fdjam.SystemParams(p_t=P_T, p_j=math.sqrt(P_T / RHO), rho=RHO)
S_MAX = math.log2(1.0 + P_T)
Z = 5.0  # width of every statistical check, in standard errors


def derive_seed(seed: int, name: str) -> int:
    """Job seed from the workload seed and the job's name (63 bits)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode()),))
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


def check_rng(seed: int, name: str) -> np.random.Generator:
    """A generator for check references, independent of every job stream."""
    return np.random.default_rng(derive_seed(seed, "check/" + name))


def grid(step: float, shift: bool = False) -> fdjam.GridSpec:
    """The default -2..2 grid; shift moves y by half a step so no cell sits on an endpoint."""
    dy = step / 2 if shift else 0.0
    return fdjam.GridSpec(-2.0, 2.0, -2.0 + dy, 2.0 + dy, step)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    work: float = 0.0  # cells, requested samples or commands done by one call


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    rerun: str  # job run a second time with the same seed; must be bit-identical
    extra: Callable[[dict, dict], dict]  # workload-specific metrics from job medians and first outputs


def _close(name: str, got: float, want: float, se: float, atol: float = 1e-12) -> list[str]:
    if abs(got - want) <= Z * se + atol:
        return []
    return [f"{name}: {got:.6g} vs reference {want:.6g}, allowed {Z * se + atol:.2g}"]


def _cells(fg: fdjam.FieldGrid, rng: np.random.Generator, k: int) -> list[tuple[int, int, float, float]]:
    iy = rng.integers(0, fg.spec.ny, k)
    ix = rng.integers(0, fg.spec.nx, k)
    xs, ys = fg.spec.xs(), fg.spec.ys()
    return [(int(a), int(b), float(xs[b]), float(ys[a])) for a, b in zip(iy, ix)]


def _endpoint_cells(fg: fdjam.FieldGrid) -> list[tuple[int, int, float, float]]:
    xs, ys = fg.spec.xs(), fg.spec.ys()
    out = []
    for x0 in (-0.5, 0.5):
        ix, iy = np.flatnonzero(xs == x0), np.flatnonzero(ys == 0.0)
        if ix.size and iy.size:
            out.append((int(iy[0]), int(ix[0]), x0, 0.0))
    return out


# --------------------------------------------------------------------- sweep


def _check_static(seed: int) -> Callable:
    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        bad = []
        for iy, ix, x, y in _cells(fg, check_rng(seed, "static"), 60) + _endpoint_cells(fg):
            g = fdjam.gains(x, y, 2.0)
            want = 0.5 * (fdjam.secrecy_ab(g, PAPER) + fdjam.secrecy_ab(g.swapped(), PAPER))
            if not abs(fg.values[iy, ix] - want) <= 1e-9:
                bad.append(f"static_pair cell ({x:g}, {y:g}) = {fg.values[iy, ix]!r}, scalar {want!r}")
        return bad

    return check


def _check_region(seed: int) -> Callable:
    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        bad = []
        for iy, ix, x, y in _cells(fg, check_rng(seed, "region"), 200) + _endpoint_cells(fg):
            want = float(fdjam.region_classify(fdjam.gains(x, y, 2.0), RHO).name[1])
            if fg.values[iy, ix] != want:
                bad.append(f"region cell ({x:g}, {y:g}) = {fg.values[iy, ix]}, scalar {want}")
        return bad

    return check


def _check_fading(name: str) -> Callable:
    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        v = fg.values
        if not np.all(np.isfinite(v)):
            return [f"{name}: {int(np.sum(~np.isfinite(v)))} non-finite cells"]
        if v.min() < 0.0 or v.max() > S_MAX + 1e-9:
            return [f"{name}: values in [{v.min():.6g}, {v.max():.6g}], outside [0, log2(1+P_T)]"]
        return []

    return check


def _check_opt(seed: int, name: str) -> Callable:
    """Secrecy at the per-cell optimum against the grid + golden-section search oracle."""

    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        bad = []
        for iy, ix, x, y in _cells(fg, check_rng(seed, name), 12):
            g = fdjam.gains(x, y, 2.0)
            v = float(fg.values[iy, ix])
            if name == "optjam":
                if not (math.isfinite(v) and v >= 0.0):
                    bad.append(f"optjam cell ({x:g}, {y:g}) = {v!r}")
                    continue
                v = fdjam.secrecy_ab(g, fdjam.SystemParams(p_t=P_T, p_j=v, rho=RHO))
            _, best = golden_max_secrecy(g, RHO, P_T)
            if not abs(v - best) <= 1e-6:
                bad.append(f"{name} cell ({x:g}, {y:g}): secrecy {v!r}, oracle max {best!r}")
        return bad

    return check


def _check_pz_coll(seed: int, n: int) -> Callable:
    """Cell means against the scalar closed form averaged over independent draws."""

    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        rng = check_rng(seed, "pz_coll")
        bad = []
        for iy, ix, x, y in _cells(fg, rng, 5) + _endpoint_cells(fg):
            g = fdjam.gains(x, y, 2.0)
            draws = rng.exponential(size=(4000, 2))
            ref = np.array([fdjam.cond_prob_zero(g, PAPER, a, b) for a, b in draws])
            se = ref.std() * math.sqrt(1.0 / n + 1.0 / ref.size)
            bad += _close(f"pz_coll cell ({x:g}, {y:g})", float(fg.values[iy, ix]), float(ref.mean()), se)
        return bad

    return check


def _pair_reference(g: fdjam.LinkGains, params: fdjam.SystemParams, rng: np.random.Generator, m: int) -> tuple[np.ndarray, list[str]]:
    """Closed-form conditional values on m independent draws, checked against the quadrature oracle."""
    d = rng.exponential(size=(m, 3))
    vals = cond_prob_zero_pair_array(g, params, d[:, 0], d[:, 1], d[:, 2])
    bad = []
    for i in np.argsort(-vals)[:3]:
        q = quad_prob_zero_pair(g, params, *map(float, d[i]))
        if not abs(q - vals[i]) <= 1e-4:
            bad.append(f"closed form {vals[i]:.6g} vs quadrature {q:.6g} at fading {d[i]}")
    return vals, bad


def _check_pz_pair(seed: int, n: int) -> Callable:
    def check(fg: fdjam.FieldGrid, _: dict) -> list[str]:
        rng = check_rng(seed, "pz_pair")
        bad = []
        for iy, ix, x, y in _cells(fg, rng, 4):
            ref, bad_q = _pair_reference(fdjam.gains(x, y, 2.0), PAPER, rng, 20000)
            se = ref.std() * math.sqrt(1.0 / n + 1.0 / ref.size)
            bad += bad_q + _close(f"pz_pair cell ({x:g}, {y:g})", float(fg.values[iy, ix]), float(ref.mean()), se)
        return bad

    return check


def sweep(seed: int) -> Workload:
    n_pz = 2000
    g401, g201, g41 = grid(0.01), grid(0.02), grid(0.1)
    s201, s41 = grid(0.02, shift=True), grid(0.1, shift=True)

    def mc(name: str, n: int) -> fdjam.MCConfig:
        return fdjam.MCConfig(seed=derive_seed(seed, name), n_samples=n)

    def cells(g: fdjam.GridSpec) -> float:
        return float(g.nx * g.ny)

    jobs = [
        Job("static_pair", lambda: fdjam.build_field("pairwise", PAPER, g401), _check_static(seed), cells(g401)),
        Job("region", lambda: fdjam.build_region_grid(g401, RHO), _check_region(seed), cells(g401)),
        Job(
            "fading_pair",
            lambda: fdjam.build_field("pairwise", PAPER, g401, fading=True, mc=mc("fading_pair", 1)),
            _check_fading("fading_pair"),
            cells(g401),
        ),
        Job(
            "fading_coll",
            lambda: fdjam.build_field("colluding", PAPER, g201, fading=True, mc=mc("fading_coll", 1)),
            _check_fading("fading_coll"),
            cells(g201),
        ),
        Job(
            "opt_coll",
            lambda: fdjam.build_field("colluding", PAPER, s201, pj_per_cell="opt"),
            _check_opt(seed, "opt_coll"),
            cells(s201),
        ),
        Job("optjam", lambda: fdjam.build_optjam_grid(s201, PAPER), _check_opt(seed, "optjam"), cells(s201)),
        Job(
            "pz_coll",
            lambda: fdjam.build_field("colluding", PAPER, g41, quantity="prob-zero", mc=mc("pz_coll", n_pz)),
            _check_pz_coll(seed, n_pz),
            cells(g41),
        ),
        Job(
            "pz_pair",
            lambda: fdjam.build_field("pairwise", PAPER, s41, quantity="prob-zero", mc=mc("pz_pair", n_pz)),
            _check_pz_pair(seed, n_pz),
            cells(s41),
        ),
    ]

    def extra(medians: dict, outputs: dict) -> dict:
        out = {f"fields.build_field.{j.name}.cells_per_s": j.work / medians[j.name] for j in jobs if j.name != "optjam"}
        out["fields.build_optjam_grid.cells_per_s"] = cells(s201) / medians["optjam"]
        return out

    return Workload("sweep", jobs, rerun="pz_pair", extra=extra)


# -------------------------------------------------------------------- ladder

LADDER_DB = (0, 10, 20, 30, 40, 50, 60)
LADDER_AT = ((0.0, 0.0), (-0.6, 0.0))
N_RUNG = 100_000
N_POINT = 1_000_000
P_ACCEPT = 0.01
POINT_AT = (-0.6, 0.0)


def _rung_params(db: int) -> fdjam.SystemParams:
    return fdjam.SystemParams(p_t=P_T, p_j=10.0 ** (db / 10.0), rho=RHO)


def _check_rung(seed: int, kind: str, at: tuple[float, float], db: int) -> Callable:
    """Orderings that hold draw by draw, and the mean against the closed form on independent draws."""

    def check(rep: fdjam.PolicyReport, _: dict) -> list[str]:
        name = f"{kind} at {at} {db} dB"
        est = rep.estimate
        if not (0.0 <= est.mean <= 1.0 and est.stderr > 0.0 and est.n == N_RUNG):
            return [f"{name}: estimate {est}"]
        bad = []
        params = _rung_params(db)
        if kind == "const":
            if not est.mean < rep.p2.mean:
                bad.append(f"{name}: estimate {est.mean:.6g} not below p2 {rep.p2.mean:.6g}")
        else:
            cap = fdjam.semi_dynamic_cap(RHO)
            if not est.mean < rep.p1.mean:
                bad.append(f"{name}: estimate {est.mean:.6g} not below p1 {rep.p1.mean:.6g}")
            # pi*rho/4 caps the expectation of p1, so the estimate gets Z standard errors
            if not rep.p1.mean - Z * rep.p1.stderr < cap:
                bad.append(f"{name}: p1 {rep.p1} not below pi*rho/4 = {cap:.6g}")
            params = fdjam.SystemParams(p_t=P_T, p_j=math.inf, rho=RHO)
        rng = check_rng(seed, name)
        d = rng.exponential(size=(N_RUNG, 3))
        ref = cond_prob_zero_pair_array(fdjam.gains(*at, 2.0), params, d[:, 0], d[:, 1], d[:, 2])
        se = math.hypot(est.stderr, ref.std() / math.sqrt(ref.size))
        return bad + _close(name, est.mean, float(ref.mean()), se)

    return check


def _check_general(seed: int) -> Callable:
    def check(rep: fdjam.PolicyReport, _: dict) -> list[str]:
        acc, res = rep.acceptance, rep.residual
        bad = []
        if rep.estimate.mean != 0.0:
            bad.append(f"general-dynamic estimate {rep.estimate.mean!r}, expected exactly 0")
        if not 0.0 <= res.mean <= P_ACCEPT:
            bad.append(f"general-dynamic residual {res.mean!r} above p_accept {P_ACCEPT}")
        d = check_rng(seed, "general").exponential(size=(N_RUNG, 3))
        cond = cond_prob_zero_pair_array(fdjam.gains(0.0, 0.0, 2.0), PAPER, d[:, 0], d[:, 1], d[:, 2])
        ref = float(np.mean(cond <= P_ACCEPT))
        se = math.hypot(acc.stderr, math.sqrt(ref * (1.0 - ref) / cond.size))
        return bad + _close("general-dynamic acceptance", acc.mean, ref, se)

    return check


def _colluding_reference(seed: int, name: str, m: int = 10_000) -> np.ndarray:
    g = fdjam.gains(*POINT_AT, 2.0)
    d = check_rng(seed, name).exponential(size=(m, 2))
    return np.array([fdjam.cond_prob_zero(g, PAPER, a, b) for a, b in d])


def _check_uncond(seed: int) -> Callable:
    def check(est: fdjam.Estimate, _: dict) -> list[str]:
        ref = _colluding_reference(seed, "uncond")
        return _close("uncond_prob_zero", est.mean, float(ref.mean()), math.hypot(est.stderr, ref.std() / math.sqrt(ref.size)))

    return check


def _check_upper(est: fdjam.Estimate, outputs: dict) -> list[str]:
    low = outputs["uncond_prob_zero"]
    if not est.mean >= low.mean:  # same stream, dominated draw by draw
        return [f"uncond_upper_bound {est.mean!r} below uncond_prob_zero {low.mean!r}"]
    return []


def _check_cdf(out: tuple[np.ndarray, np.ndarray, np.ndarray], outputs: dict) -> list[str]:
    cond, levels, emp = out
    g = fdjam.gains(*POINT_AT, 2.0)
    bad = []
    if cond.size != N_POINT or cond.min() < 0.0 or cond.max() > 1.0:
        bad.append(f"sample_cond_prob_zero: {cond.size} values in [{cond.min()}, {cond.max()}]")
    if np.any(np.diff(emp) < 0):
        bad.append("ecdf is not monotone")
    for p, f in zip(levels, emp):
        lb = fdjam.cdf_lower_bound(float(p), g.a, g.b, RHO, PAPER.p_j)
        if not f >= lb - Z * math.sqrt(lb * (1.0 - lb) / cond.size) - 1e-12:
            bad.append(f"ecdf({p:.2f}) = {f:.6g} below the lower bound {lb:.6g}")
    mean = float(cond.mean())
    if not abs(mean - outputs["uncond_prob_zero"].mean) <= 1e-9:
        bad.append(f"mean of sampled conditionals {mean!r} differs from uncond_prob_zero on the same stream")
    return bad


def _check_pair_point(seed: int) -> Callable:
    def check(est: fdjam.Estimate, _: dict) -> list[str]:
        ref, bad = _pair_reference(fdjam.gains(*POINT_AT, 2.0), PAPER, check_rng(seed, "pair_point"), N_POINT)
        se = math.hypot(est.stderr, ref.std() / math.sqrt(ref.size))
        return bad + _close("pairwise point estimate", est.mean, float(ref.mean()), se)

    return check


def ladder(seed: int) -> Workload:
    jobs = []
    kinds = {"const": fdjam.JamPolicyKind.CONSTANT, "semi": fdjam.JamPolicyKind.SEMI_DYNAMIC}
    for at in LADDER_AT:
        # one stream per location, shared by every rung as in `fdjam policy`
        mc = fdjam.MCConfig(seed=derive_seed(seed, f"ladder/{at}"), n_samples=N_RUNG)
        g = fdjam.gains(*at, 2.0)
        for db in LADDER_DB:
            for short, kind in kinds.items():
                jobs.append(
                    Job(
                        f"{short}@{at[0]:g},{at[1]:g}/{db}dB",
                        lambda kind=kind, g=g, db=db, mc=mc: fdjam.policy_prob_zero(
                            fdjam.JamPolicy(kind), g, _rung_params(db), mc
                        ),
                        _check_rung(seed, short, at, db),
                        N_RUNG,
                    )
                )
    g0, gp = fdjam.gains(0.0, 0.0, 2.0), fdjam.gains(*POINT_AT, 2.0)
    jobs.append(
        Job(
            "general",
            lambda: fdjam.policy_prob_zero(
                fdjam.JamPolicy(fdjam.JamPolicyKind.GENERAL_DYNAMIC, p_accept=P_ACCEPT),
                g0,
                PAPER,
                fdjam.MCConfig(seed=derive_seed(seed, "general"), n_samples=N_RUNG),
            ),
            _check_general(seed),
            N_RUNG,
        )
    )
    point = fdjam.MCConfig(seed=derive_seed(seed, "point"), n_samples=N_POINT)
    levels = np.arange(0.05, 0.975, 0.05)

    def cdf() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cond = fdjam.sample_cond_prob_zero(gp, PAPER, point)
        return cond, levels, fdjam.ecdf(cond, levels)

    jobs += [
        Job("uncond_prob_zero", lambda: fdjam.uncond_prob_zero(gp, PAPER, point), _check_uncond(seed), N_POINT),
        Job("uncond_upper_bound", lambda: fdjam.uncond_upper_bound(gp, PAPER, point), _check_upper, N_POINT),
        Job("sample_cond_prob_zero+ecdf", cdf, _check_cdf, N_POINT),
        Job(
            "pair_point_estimate",
            lambda: fdjam.estimate(
                # looked up at call time, so a traced pass sees the kernel
                lambda u: fdjam.pairwise_fading.cond_prob_zero_pair_array(gp, PAPER, u[:, 0], u[:, 1], u[:, 2]),
                fdjam.MCConfig(seed=derive_seed(seed, "pair_point"), n_samples=N_POINT),
                draws_per_sample=3,
            ),
            _check_pair_point(seed),
            N_POINT,
        ),
    ]

    def extra(medians: dict, outputs: dict) -> dict:
        # projected seconds for every const/semi rung to reach stderr 1e-4
        ttt = 0.0
        for j in jobs:
            if j.name.startswith(("const@", "semi@")):
                se = outputs[j.name].estimate.stderr
                if se > 0:
                    ttt += medians[j.name] * (se / 1e-4) ** 2
        return {"time_to_tol_s": ttt}

    return Workload("ladder", jobs, rerun="const@0,0/0dB", extra=extra)


# ----------------------------------------------------------------------- cli


@dataclass
class CliRun:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


class CliRunner:
    """Runs `python3 -m fdjam.cli ...` (or the traced child) in a work directory under .perfbench_out."""

    def __init__(self, out_dir: Path) -> None:
        self.dir = out_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("FDJAM_SEED", None)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.trace_file: Path | None = None
        self.max_rss_kib = 0

    def run(self, argv: list[str], outputs: tuple[str, ...] = ()) -> CliRun:
        if self.trace_file is not None:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.trace_file), *argv]
        else:
            cmd = [sys.executable, "-m", "fdjam.cli", *argv]
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env, stdout=out_fh, stderr=err_fh)
            # wait4 reaps the child and gives its own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kib = max(self.max_rss_kib, usage.ru_maxrss)
        files = {name: (self.dir / name).read_bytes() for name in outputs if (self.dir / name).exists()}
        return CliRun(argv, proc.returncode, out_path.read_text(), err_path.read_text(), files)


README_FIELD = ["field", "--mode", "pairwise", "--quantity", "secrecy", "--rho", "0.01", "--pt-db", "60", "--pj-auto"]


def _number(pattern: str, text: str) -> float | None:
    m = re.search(pattern, text)
    return float(m.group(1)) if m else None


def _check_exit(run: CliRun, want: tuple[int, ...] = (0,)) -> list[str]:
    if run.code not in want:
        return [f"`fdjam {' '.join(run.argv)}` exited {run.code}: {run.stderr.strip()[-200:]}"]
    return []


def _cli_regions(run: CliRun, _: dict) -> list[str]:
    bad = _check_exit(run)
    counts = [int(n) for n in re.findall(r"R[1-4]=(\d+)", run.stdout)]
    fg = fdjam.build_region_grid(fdjam.GridSpec(-2.0, 2.0, -2.0, 2.0, 0.1), 0.1)
    want = [int(np.sum(fg.values == r)) for r in (1.0, 2.0, 3.0, 4.0)]
    if counts != want:
        bad.append(f"regions counts {counts}, API gives {want}")
    if "disk:" not in run.stdout:
        bad.append("regions printed no disk line")
    return bad


def _cli_optjam(run: CliRun, _: dict) -> list[str]:
    bad = _check_exit(run)
    got = _number(r"p_j_opt = (\S+)", run.stdout)
    want = fdjam.opt_jam(fdjam.LinkGains(4.0, 1.0), 0.01, 100.0).p_j_opt
    if got is None or not abs(got - want) <= 1e-8 * want:
        bad.append(f"optjam p_j_opt {got}, API gives {want!r}")
    s = _number(r"secrecy at p_j_opt = (\S+)", run.stdout)
    if s is None or not 0.0 < s < math.inf:
        bad.append(f"optjam secrecy {s}")
    return bad


def _cli_prob_zero(seed: int) -> Callable:
    def check(run: CliRun, _: dict) -> list[str]:
        bad = _check_exit(run)
        m = re.search(r"unconditional P\(S=0\) = (\S+) \+- (\S+)\s+\[n=(\d+)\]", run.stdout)
        share = _number(r"conditional P < 1e-4 = (\S+)", run.stdout)
        if m is None or share is None or not 0.0 <= share <= 1.0:
            return bad + [f"prob-zero output not parsed: {run.stdout!r}"]
        est, se = float(m.group(1)), float(m.group(2))
        params = fdjam.SystemParams(p_t=1.0, p_j=1.0, rho=0.1)
        d = check_rng(seed, "cli/prob-zero").exponential(size=(100_000, 3))
        ref = cond_prob_zero_pair_array(fdjam.gains(0.0, 0.0, 2.0), params, d[:, 0], d[:, 1], d[:, 2])
        return bad + _close("cli prob-zero", est, float(ref.mean()), math.hypot(se, ref.std() / math.sqrt(ref.size)), 1e-6)

    return check


def _cli_cdf(run: CliRun, _: dict) -> list[str]:
    bad = _check_exit(run)
    rows = [tuple(map(float, r)) for r in re.findall(r"^\s*(0\.\d+)\s+(\S+)\s+(\S+)\s*$", run.stdout, re.M)]
    if len(rows) != 19:
        return bad + [f"cdf printed {len(rows)} rows, expected 19"]
    emp = [r[2] for r in rows]
    if any(b < a for a, b in zip(emp, emp[1:])):
        bad.append("cdf empirical column is not monotone")
    for p, lb, f in rows:
        if not f >= lb - Z * math.sqrt(lb * (1.0 - lb) / 100_000) - 1e-6:
            bad.append(f"cdf at p={p}: empirical {f} below lower bound {lb}")
    return bad


def _cli_policy(run: CliRun, _: dict) -> list[str]:
    bad = _check_exit(run)
    rows = re.findall(r"^\s*(\d+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s*$", run.stdout, re.M)
    if len(rows) != 7:
        return bad + [f"policy printed {len(rows)} rungs, expected 7"]
    for row in rows:
        db, const, p2, semi, p1, cap = (float(v) for v in row)
        slack = Z * math.sqrt(p1 / 100_000)  # values in [0, 1] have variance at most their mean
        if not (const < p2 and semi < p1 and p1 - slack < cap):
            bad.append(f"policy rung {db:g} dB breaks const < p2, semi < p1 < pi*rho/4: {row}")
    if "full-dynamic estimate = 0" not in run.stdout:
        bad.append("policy printed no full-dynamic line")
    return bad


def _cli_field(name: str, runner: CliRunner) -> Callable:
    """The written file must hold exactly the field that build_field computes in-process."""

    def check(run: CliRun, _: dict) -> list[str]:
        bad = _check_exit(run)
        if "cells=160801 (401x401)" not in run.stdout or f"wrote {name}" not in run.stdout:
            bad.append(f"field stdout lacks the cell count or the written path: {run.stdout!r}")
        if name not in run.files:
            return bad + [f"field wrote no {name}"]
        path = runner.dir / f"check-{name}"
        path.write_bytes(run.files[name])
        fg = fdjam.read_json(str(path)) if name.endswith(".json") else fdjam.read_csv(str(path), grid(0.01))
        path.unlink()
        if not np.array_equal(fg.values, fdjam.build_field("pairwise", PAPER, grid(0.01)).values):
            bad.append(f"{name} values differ from build_field in-process")
        return bad

    return check


def _cli_verify(run: CliRun, _: dict) -> list[str]:
    # exit 2 is the documented outcome of a self-check that failed; the
    # benchmark checks that the report is whole and consistent, and counts
    # the failed self-checks separately (verify.failed_checks)
    bad = _check_exit(run, (0, 2))
    lines = re.findall(r"^(ok  |FAIL) (\S+)", run.stdout, re.M)
    m = re.search(r"^(\d+) checks, (\d+) failures$", run.stdout, re.M)
    if m is None or int(m.group(1)) != len(lines) or len(lines) == 0:
        return bad + [f"verify report incomplete: {run.stdout[-300:]!r}"]
    fails = sum(1 for mark, _ in lines if mark == "FAIL")
    if int(m.group(2)) != fails or (run.code == 0) != (fails == 0):
        bad.append(f"verify reports {m.group(2)} failures, lists {fails}, exits {run.code}")
    return bad


def verify_failures(run: CliRun) -> list[str]:
    return [name for mark, name in re.findall(r"^(ok  |FAIL) (\S+)", run.stdout, re.M) if mark == "FAIL"]


CLI_QUICK = ("regions", "optjam", "prob-zero", "cdf")


def cli(seed: int, runner: CliRunner) -> Workload:
    def s(name: str) -> str:
        return str(derive_seed(seed, "cli/" + name))

    commands: list[tuple[str, list[str], tuple[str, ...], Callable]] = [
        ("regions", ["regions", "--rho", "0.1", "--step", "0.1"], (), _cli_regions),
        ("optjam", ["optjam", "--a", "4", "--b", "1", "--rho", "0.01", "--pt", "100"], (), _cli_optjam),
        (
            "prob-zero",
            ["prob-zero", "--mode", "pairwise", "--at", "0", "0", "--rho", "0.1", "--pt", "1", "--pj", "1",
             "--samples", "20000", "--seed", s("prob-zero")],
            (),
            _cli_prob_zero(seed),
        ),
        (
            "cdf",
            ["cdf", "--at", "-0.6", "0", "--rho", "0.01", "--pj-db", "30", "--samples", "100000", "--seed", s("cdf")],
            (),
            _cli_cdf,
        ),
        (
            "policy",
            ["policy", "--rho", "0.01", "--pt", "1", "--samples", "100000", "--seed", s("policy")],
            (),
            _cli_policy,
        ),
        ("field_csv", README_FIELD + ["--out", "field.csv"], ("field.csv",), _cli_field("field.csv", runner)),
        ("field_json", README_FIELD + ["--out", "field.json", "--json"], ("field.json",), _cli_field("field.json", runner)),
        ("verify", ["verify", "--suite", "all", "--seed", s("verify")], (), _cli_verify),
    ]
    jobs = [
        Job(name, lambda argv=argv, outs=outs: runner.run(argv, outs), check, 1.0)
        for name, argv, outs, check in commands
    ]

    def extra(medians: dict, outputs: dict) -> dict:
        return {
            "cmd_quick_p50_s": float(np.median([medians[n] for n in CLI_QUICK])),
            "cmd_policy_s": medians["policy"],
            "cmd_field_s": medians["field_csv"] + medians["field_json"],
            "cmd_verify_s": medians["verify"],
            "verify.failed_checks": float(len(verify_failures(outputs["verify"]))),
        }

    return Workload("cli", jobs, rerun="prob-zero", extra=extra)
