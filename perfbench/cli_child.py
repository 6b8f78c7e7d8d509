"""One `fdjam` CLI command in a fresh process, traced from outside the package.

Usage: python3 perfbench/cli_child.py TRACE_JSON ARG...

Installs the span recorder, runs fdjam.cli.main(ARG...) and writes the
spans, counters and the in-process seconds of main() to TRACE_JSON.  Exits
with main()'s code, like `python3 -m fdjam.cli ARG...`.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fdjam  # noqa: E402,F401
import fdjam.cli  # noqa: E402
import fdjam.verify  # noqa: E402,F401
from spans import Tracer, install  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    undo = install(tracer)
    t0 = time.perf_counter()
    try:
        code = fdjam.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        undo()
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"main_s": main_s, "spans": tracer.rows(), "counters": dict(tracer.counters)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
