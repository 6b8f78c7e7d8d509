"""tools/tier1_wall.py: the pytest summary it reports and its probe."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("tier1_wall", Path(__file__).parents[1] / "tools" / "tier1_wall.py")
tier1_wall = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1_wall)


def test_summary_is_pytests_closing_counts() -> None:
    out = "....\n============ slowest 10 durations ============\n0.5s call t.py::x\n412 passed in 53.70s\n"
    assert tier1_wall.summary(out) == "412 passed"
    out = "F.\n====== 1 failed, 411 passed, 2 warnings in 60.01s (0:01:00) ======\n"
    assert tier1_wall.summary(out) == "1 failed, 411 passed, 2 warnings"
    assert tier1_wall.summary("ERROR: file not found\n") == "no summary"


def test_probe_times_each_process() -> None:
    times = tier1_wall.probe(2)
    assert len(times) == 2 and all(t > 0 for t in times)
