"""Set-up cost of a fresh process: `import fdjam` plus warm-up calls on tiny inputs.

Run as `python3 perfbench/setup_child.py`; prints the seconds spent.  The
parent runs it several times and reports the median, and calls warm_up()
itself before its timed loop.
"""

import contextlib
import io
import os
import sys
import time


def warm_up() -> None:
    """Import fdjam and call each public path the workloads time, once, on tiny inputs."""
    import fdjam
    import fdjam.cli

    params = fdjam.SystemParams(p_t=1e6, p_j=1e4, rho=0.01)
    grid = fdjam.GridSpec(-1.0, 1.0, -0.75, 1.25, 0.5)  # no cell on an endpoint
    mc = fdjam.MCConfig(seed=1, n_samples=64)
    fdjam.build_field("pairwise", params, grid)
    fdjam.build_region_grid(grid, params.rho)
    fdjam.build_field("pairwise", params, grid, fading=True, mc=mc)
    fdjam.build_field("colluding", params, grid, pj_per_cell="opt")
    fdjam.build_optjam_grid(grid, params)
    fdjam.build_field("pairwise", params, grid, quantity="prob-zero", mc=mc)
    g = fdjam.gains(0.0, 0.0, 2.0)
    for kind in (fdjam.JamPolicyKind.CONSTANT, fdjam.JamPolicyKind.SEMI_DYNAMIC):
        fdjam.policy_prob_zero(fdjam.JamPolicy(kind), g, params, mc)
    fdjam.uncond_prob_zero(g, params, mc)
    with contextlib.redirect_stdout(io.StringIO()):
        fdjam.cli.main(["optjam", "--a", "4", "--b", "1"])


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter()
    warm_up()
    print(f"{time.perf_counter() - t0!r}")
