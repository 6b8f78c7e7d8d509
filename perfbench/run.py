"""fdjam benchmark: one workload as a single-client closed loop on the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,ladder,cli,all} --seed N --seconds S --trace {0,1}

The jobs of the workload run one after another, round robin, until the next
one would end past S seconds (always at least one full pass).  Outputs are
checked after the loop, never inside a timed region.  The last stdout line
is one JSON object: with --trace 0 it holds the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics, taken from one traced
pass after an untraced loop of S/2 seconds.  Exit status is 0 only when
every check passed.  `--workload all` runs the three in turn, each in its
own process.

Timings are reference seconds: each in-process call's wall time is scaled
by CAL_REF_S over the time of a fixed calibration kernel run just before
and after it, then the median over the call's repeats is taken.  The
machine this was defined on, a shared 2-vCPU VM, runs 30% slower or faster
for tens of seconds at a time; the scaling cancels most of that, and the raw
seconds are reported beside it as per-layer metrics.  The cli workload's
work runs in child processes, which this calibration does not see, so its
times stay raw.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (<= nproc) for this process and every child it starts,
# set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "ladder", "cli")
SETUP_REPEATS = 7

# Seed that a gain measured on other seeds must also hold on before it is claimed.
HOLDOUT_SEED = 1711

# Median calibrate() time between calls, on the 2-vCPU Xeon VM (2.1 GHz) the benchmark was defined on.
CAL_REF_S = 0.0030

if not (ROOT / "src" / "fdjam" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fdjam sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fdjam  # noqa: E402
import fdjam.verify  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from setup_child import warm_up  # noqa: E402
from spans import Tracer, install  # noqa: E402


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work: how fast the machine runs right now.

    The median of three 4 ms runs, so that one preempted run does not count.
    """
    x = np.linspace(0.1, 5.0, 100_000)
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += math.sqrt(i)
        for _ in range(2):
            acc += float(np.log1p(np.exp(-x)).sum())
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def digest(obj) -> bytes:
    """Hash of a job's output, to test that a same-seed repeat is bit-identical."""
    h = hashlib.blake2b(digest_size=16)

    def feed(o) -> None:
        if isinstance(o, np.ndarray):
            h.update(o.dtype.str.encode() + repr(o.shape).encode() + o.tobytes())
        elif isinstance(o, fdjam.FieldGrid):
            feed(o.values)
            h.update(repr(sorted(o.meta.items())).encode())
        elif isinstance(o, workloads.CliRun):
            h.update(f"{o.code}\n{o.stdout}".encode())
            for name in sorted(o.files):
                h.update(name.encode() + o.files[name])
        elif isinstance(o, (tuple, list)):
            for x in o:
                feed(x)
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.digest()


class Loop:
    """Times jobs round robin; keeps raw and reference seconds, first outputs and digests.

    scaled=False keeps reference seconds equal to raw ones.  That is for jobs
    whose work runs in child processes: this process's calibration, taken
    while the child is not running, does not track the child's speed.
    """

    def __init__(self, jobs: list[workloads.Job], scaled: bool) -> None:
        self.jobs = jobs
        self.scaled = scaled
        self.raw: dict[str, list[float]] = {j.name: [] for j in jobs}
        self.ref: dict[str, list[float]] = {j.name: [] for j in jobs}
        self.cal: list[float] = []
        self.first: dict = {}
        self.digests: dict[str, bytes] = {}
        self.problems: list[str] = []
        self.failed = 0
        self.last_cal: float | None = None

    def timed(self, job: workloads.Job) -> tuple[object, float, float]:
        """(output, raw seconds, reference seconds) of one call.

        The machine's speed is taken as the mean of calibrate() just before
        and just after the call; a call that directly follows another timed
        call reuses that call's after-calibration.
        """
        before = self.last_cal if self.last_cal is not None else calibrate()
        t0 = time.perf_counter()
        out = job.run()
        dt = time.perf_counter() - t0
        self.last_cal = calibrate()
        cal = 0.5 * (before + self.last_cal)
        self.cal.append(cal)
        return out, dt, dt * CAL_REF_S / cal if self.scaled else dt

    def one(self, job: workloads.Job) -> None:
        out, raw, ref = self.timed(job)
        self.raw[job.name].append(raw)
        self.ref[job.name].append(ref)
        if isinstance(out, workloads.CliRun) and out.code not in (0, 2):
            self.failed += 1
        self.compare(job.name, out, "a repeat with the same seed")

    def compare(self, name: str, out: object, what: str) -> None:
        d = digest(out)
        if name not in self.first:
            self.first[name] = out
            self.digests[name] = d
        elif d != self.digests[name]:
            self.problems.append(f"{name}: {what} is not bit-identical to the first run")

    def run(self, budget_s: float) -> None:
        start = time.perf_counter()
        i = 0
        while True:
            job = self.jobs[i % len(self.jobs)]
            if i >= len(self.jobs) and time.perf_counter() - start + self.raw[job.name][-1] > budget_s:
                break
            self.one(job)
            i += 1
        self.last_cal = None

    def medians(self, raw: bool = False) -> dict[str, float]:
        return {name: statistics.median(ts) for name, ts in (self.raw if raw else self.ref).items()}

    @property
    def attempted(self) -> int:
        return sum(len(ts) for ts in self.raw.values())


def setup_seconds() -> float:
    """Median over fresh processes of `import fdjam` plus warm-up calls, in raw seconds.

    A calibration taken in a process that has just started tracks nothing
    (it spreads by a third of its median), so set-up time is not scaled.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py")], capture_output=True, text=True, check=True
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def traced_pass(
    wl: workloads.Workload, loop: Loop, runner: workloads.CliRunner | None, seed: int
) -> tuple[Tracer, dict[str, float], float]:
    """One pass with spans on; returns the tracer, CLI in-process times and the pass in reference seconds."""
    tracer = Tracer()
    cli_times: dict[str, float] = {}
    total = 0.0
    if runner is None:
        undo = install(tracer)
        try:
            for job in wl.jobs:
                out, _, ref = loop.timed(job)
                total += ref
                loop.compare(job.name, out, "the traced run")
        finally:
            undo()
        return tracer, cli_times, total
    runner.trace_file = runner.dir / "child-trace.json"
    try:
        for job in wl.jobs:
            out, raw, ref = loop.timed(job)
            total += ref
            loop.compare(job.name, out, "the traced run")
            child = json.loads(runner.trace_file.read_text())
            tracer.merge(child["spans"], child["counters"])
            cli_times[f"cli.{job.name}.inproc_s"] = child["main_s"]
            cli_times[f"cli.{job.name}.startup_s"] = raw - child["main_s"]
    finally:
        runner.trace_file = None
    undo = install(tracer)
    try:
        for suite in fdjam.verify.available_suites():
            if suite != "all":
                fdjam.verify.run_suite(suite, workloads.derive_seed(seed, "cli/verify"))
    finally:
        undo()
    return tracer, cli_times, total


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of one traced pass, in raw seconds."""
    agg = tracer.aggregate()
    c = tracer.counters

    def get(name: str, key: str) -> float:
        return float(agg.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in (
        "geometry.gain_fields",
        "colluding.opt_jam",
        "colluding_fading.secrecy_sample",
        "pairwise_fading.secrecy_sample_pair",
        "pairwise_fading.cond_prob_zero_pair_array",
        "montecarlo.estimate",
    ):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["fields.build_field.self_s"] = sum(v["self_s"] for k, v in agg.items() if k.startswith("fields.build_field."))
    m["pairwise_fading.cond_prob_zero_pair_array.elems_per_call"] = ratio(
        c["pairwise_fading.cond_prob_zero_pair_array.elems"], get("pairwise_fading.cond_prob_zero_pair_array", "calls")
    )
    for kind in ("constant", "semi", "general"):
        m[f"pairwise_fading.policy_prob_zero.{kind}.total_s"] = get(f"pairwise_fading.policy_prob_zero.{kind}", "total_s")
    m["montecarlo.estimate.samples"] = c["montecarlo.estimate.samples"]
    m["montecarlo.estimate.f_s"] = get("montecarlo.estimate.f", "total_s")
    m["montecarlo.draws_per_requested_sample"] = ratio(c["montecarlo.rung_draw_rows"], c["montecarlo.rung_requested"])
    m["montecarlo.sample_matrix.calls"] = get("montecarlo.sample_matrix", "calls")
    m["montecarlo.sample_matrix.total_s"] = get("montecarlo.sample_matrix", "total_s")
    for kind in ("write_csv", "write_json"):
        m[f"fields.{kind}.mb_per_s"] = ratio(c[f"fields.{kind}.bytes"] / 1e6, get(f"fields.{kind}", "total_s"))
    for name, rec in agg.items():
        if name.startswith("verify.run_suite.") and name != "verify.run_suite.all":
            m[f"{name}.s"] = rec["total_s"]
    return m


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    seed = args.seed

    print(
        f"env: python {platform.python_version()}, numpy {np.__version__}, nproc {os.cpu_count()}, "
        f"BLAS threads {os.environ['OMP_NUM_THREADS']}, hold-out seed {HOLDOUT_SEED}"
    )
    runner = None
    scratch = OUT / f"cli-{os.getpid()}"
    try:
        if args.workload == "cli":
            runner = workloads.CliRunner(scratch)
            wl = workloads.cli(seed, runner)
            probe_list = probes.cli_probes(seed, runner)
        elif args.workload == "sweep":
            wl = workloads.sweep(seed)
            probe_list = probes.sweep_probes(seed)
        else:
            wl = workloads.ladder(seed)
            probe_list = probes.ladder_probes(seed)

        warm_up()  # lazy first-call costs belong to setup_s, not to the first timed pass
        loop = Loop(wl.jobs, scaled=runner is None)
        loop.run(args.seconds / 2 if args.trace else args.seconds)
        rss_kib = runner.max_rss_kib if runner is not None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        probe_fail = {p.name: why for p in probe_list if (why := probes.run_probe(p)) is not None}
        rerun = next(j for j in wl.jobs if j.name == wl.rerun)
        loop.compare(rerun.name, rerun.run(), "a rerun with the same seed")
        for job in wl.jobs:
            loop.problems += job.check(loop.first[job.name], loop.first)

        medians = loop.medians()
        timed = [j for j in wl.jobs if j.work > 0]
        throughput = sum(j.work for j in timed) / sum(medians[j.name] for j in timed)
        fail_frac = len(probe_fail) / (len(wl.jobs) + len(probe_list))
        extra = {
            **wl.extra(medians, loop.first),
            "fail_frac": fail_frac,
            "wall_raw_s": sum(loop.medians(raw=True).values()),
            "machine.cal_s": statistics.median(loop.cal),
        }
        if wl.name != "cli":
            extra["cells_per_s" if wl.name == "sweep" else "samples_per_s"] = throughput

        if args.trace:
            tracer, cli_times, traced_s = traced_pass(wl, loop, runner, seed)
            metrics = {**per_layer(tracer), **cli_times, **extra}
            metrics["trace.overhead_frac"] = traced_s / sum(medians.values()) - 1.0
            tracer.dump(str(OUT / f"trace-{wl.name}.tsv.gz"))
            wanted = spec["per_layer"]
        else:
            metrics = {
                "setup_s": setup_seconds(),
                "wall_s": sum(medians.values()),
                "work_per_s": throughput,
                "ok_frac": 1.0 - fail_frac,
                "peak_rss_mib": rss_kib / 1024.0,
                **extra,
            }
            wanted = spec["end_to_end"]
    finally:
        if runner is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {wl.name}, seed {seed}: {loop.attempted} timed calls of {len(wl.jobs)} jobs")
    for name in sorted(medians):
        raw = " ".join(f"{t:.4f}" for t in loop.raw[name])
        print(f"  job {name}: median {medians[name]:.4f} reference s; raw s {raw}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units.get(name, '')}".rstrip())
    print(f"probes: {len(probe_list) - len(probe_fail)} of {len(probe_list)} passed")
    for name, why in probe_fail.items():
        print(f"  FAILED PROBE {name}: {why}")
    if wl.name == "cli":
        for name in workloads.verify_failures(loop.first["verify"]):
            print(f"  verify self-check failed: {name}")
    for problem in loop.problems:
        print(f"  CHECK FAILED {problem}")

    correct = not loop.problems
    # a per-layer function that a refactor removed reads 0; an end-to-end metric is never missing
    values = {m["name"]: float(metrics.get(m["name"], 0.0) if args.trace else metrics[m["name"]]) for m in wanted}
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
