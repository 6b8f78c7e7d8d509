"""Tier-1 wall time: the median of three runs, each with the CPU probe of its moment.

Run from the repository root:

    python3 tools/tier1_wall.py

Each run is the tier-1 command of ROADMAP.md in a fresh process,
`python -m pytest -q --continue-on-collection-errors` with src/ on
PYTHONPATH.  Before it, the probe times a 3*10^6-step Python loop in one
process alone and then in each of two processes started together: both
slow means a slow box, only the pair slow means a busy second CPU.  One
line per run, then the median wall time.  The exit status is pytest's
worst.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = "import time\nt = time.perf_counter()\nfor _ in range(3_000_000):\n    pass\nprint(time.perf_counter() - t)\n"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
RUNS = 3


def probe(procs: int) -> list[float]:
    """Seconds of the probe loop in each of procs processes started together."""
    children = [subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, text=True) for _ in range(procs)]
    return [float(c.communicate()[0]) for c in children]


def summary(output: str) -> str:
    """pytest's closing counts, e.g. '412 passed' or '1 failed, 411 passed', from its output."""
    lines = [ln for ln in output.splitlines() if re.search(r"\d+ (passed|failed|error)", ln)]
    if not lines:
        return "no summary"
    return re.sub(r"\s+in [\d.]+s.*$", "", lines[-1]).strip("= ")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    walls, worst = [], 0
    for i in range(RUNS):
        alone, pair = probe(1)[0], probe(2)
        t0 = time.perf_counter()
        done = subprocess.run(TIER1, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        walls.append(time.perf_counter() - t0)
        worst = max(worst, done.returncode)
        print(
            f"run {i + 1}: {summary(done.stdout)} in {walls[-1]:.1f} s"
            f" (probe {alone:.2f} s alone, {pair[0]:.2f}/{pair[1]:.2f} s two at once)",
            flush=True,
        )
    print(f"tier-1 wall: median {statistics.median(walls):.1f} s of {len(walls)} runs")
    return worst


if __name__ == "__main__":
    sys.exit(main())
