"""Grid sweeps, export round-trips and the command-line front end."""

import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdjam import cli
from fdjam.colluding import opt_jam, secrecy_ab
from fdjam.colluding_fading import uncond_prob_zero
from fdjam.errors import InvalidParameterError
from fdjam.fields import (
    FieldGrid,
    GridSpec,
    build_field,
    build_optjam_grid,
    build_region_grid,
    grid_argmax,
    grid_argmin,
    read_csv,
    read_json,
    write_csv,
    write_json,
)
from fdjam.geometry import SystemParams, gains, region_classify, rho_disk
from fdjam.montecarlo import MCConfig
from fdjam.oracles import _secrecy_over_pj
from fdjam.pairwise_fading import JamPolicyKind

SMALL = GridSpec(-1.0, 1.0, -0.5, 0.5, 0.25)


def test_top_level_names_are_their_modules_objects() -> None:
    # the package re-exports a few entry points; each one resolves to the
    # object its defining module exports, and import fdjam loads the modules
    # reached as attributes
    import fdjam

    for name in fdjam.__all__:
        obj = getattr(fdjam, name)
        module = sys.modules[obj.__module__]
        assert name in module.__all__ and getattr(module, name) is obj
    assert fdjam.montecarlo.estimate is fdjam.estimate
    assert fdjam.pairwise_fading.policy_prob_zero is fdjam.policy_prob_zero


def test_grid_spec_counts() -> None:
    assert SMALL.nx == 9
    assert SMALL.ny == 5
    assert SMALL.xs()[0] == -1.0
    assert SMALL.xs()[-1] == pytest.approx(1.0)
    default = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.01)
    assert default.nx == default.ny == 401
    with pytest.raises(InvalidParameterError):
        GridSpec(1.0, -1.0, 0.0, 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        GridSpec(-1.0, 1.0, 0.0, 1.0, 0.0)


def test_field_grid_shape_check() -> None:
    with pytest.raises(InvalidParameterError):
        FieldGrid(spec=SMALL, values=np.zeros((3, 3)))


def test_region_grid_matches_pointwise_classification() -> None:
    # the reference comes from the geometry, not from the sign kernel:
    # a < 1 iff d_A > 1, and b - rho*a > 0 iff the point is on rho_disk's
    # secrecy side (at rho = 1 the boundary is the axis x = 0, in R3/R4)
    xm, ym = np.meshgrid(SMALL.xs(), SMALL.ys())
    for rho in (0.1, 1.0, 2.0):
        side = rho_disk(rho, 2.0).secrecy_side(xm, ym)
        want = np.where(side, 1.0, 3.0) + (np.hypot(xm + 0.5, ym) <= 1.0)
        fg = build_region_grid(SMALL, rho=rho, alpha=2.0)
        np.testing.assert_array_equal(fg.values, want)
        for x, y, w in zip(xm.ravel(), ym.ravel(), want.ravel()):
            assert region_classify(gains(float(x), float(y), 2.0), rho).name == f"R{int(w)}"


def test_region_grid_rho_zero() -> None:
    fg = build_region_grid(SMALL, rho=0.0, alpha=2.0)
    alice = (SMALL.ys() == 0.0)[:, None] & (SMALL.xs() == -0.5)[None, :]
    assert set(np.unique(fg.values[~alice])) <= {1.0, 2.0}
    assert fg.values[alice].tolist() == [4.0]  # secrecy is 0 at every power there


def test_static_field_matches_scalar_forms() -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    coll = build_field("colluding", params, SMALL)
    pair = build_field("pairwise", params, SMALL)
    xs, ys = SMALL.xs(), SMALL.ys()
    for iy, ix in ((0, 0), (2, 4), (4, 8), (1, 6)):
        g = gains(float(xs[ix]), float(ys[iy]), 2.0)
        # the oracle recomputes the secrecy from the raw SNRs; the scalar forms share the field's kernel
        pj = np.array([params.p_j])
        ref_ab, ref_ba = (float(_secrecy_over_pj(h, params.rho, params.p_t, pj)[0]) for h in (g, g.swapped()))
        assert coll.values[iy, ix] == pytest.approx(ref_ab, abs=1e-12)
        assert pair.values[iy, ix] == pytest.approx(0.5 * (ref_ab + ref_ba), abs=1e-12)
    # the endpoint cells carry zero secrecy, not NaN
    mid = GridSpec(-0.5, 0.5, 0.0, 0.5, 0.5)
    vals = build_field("colluding", params, mid).values
    assert np.all(np.isfinite(vals))
    assert vals[0, 0] == 0.0  # eavesdropper on the transmitter


def test_field_validation() -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    with pytest.raises(InvalidParameterError):
        build_field("triangular", params, SMALL)
    with pytest.raises(InvalidParameterError):
        build_field("colluding", params, SMALL, quantity="entropy")
    with pytest.raises(InvalidParameterError):
        build_field("colluding", params, SMALL, fading=True)  # no MCConfig
    with pytest.raises(InvalidParameterError):
        build_field("pairwise", params, SMALL, pj_per_cell="opt")
    with pytest.raises(InvalidParameterError):
        build_field("colluding", params, SMALL, pj_per_cell="greedy")
    # a prob-zero field averages over the fading already, so fading=True there is an error
    for mode in ("colluding", "pairwise"):
        with pytest.raises(InvalidParameterError, match="fading"):
            build_field(mode, params, SMALL, quantity="prob-zero", fading=True, mc=MCConfig(seed=3, n_samples=20))


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_cli_fading_prob_zero_field_is_a_parameter_error(tmp_path, capsys, mode: str) -> None:
    out = tmp_path / "f.json"
    argv = ["field", "--mode", mode, "--quantity", "prob-zero", "--fading", "--step", "0.5", "--samples", "20"]
    assert cli.main([*argv, "--out", str(out), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("fdjam: error: ") and "fading" in captured.err
    assert not out.exists()


def test_fading_field_is_seed_deterministic() -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    mc = MCConfig(seed=3, n_samples=1)
    one = build_field("colluding", params, SMALL, fading=True, mc=mc)
    two = build_field("colluding", params, SMALL, fading=True, mc=mc)
    assert np.array_equal(one.values, two.values)
    other = build_field(
        "colluding", params, SMALL, fading=True, mc=MCConfig(seed=4, n_samples=1)
    )
    assert not np.array_equal(one.values, other.values)
    assert one.meta["seed"] == 3
    assert one.meta["fading"] is True


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_fading_field_draws_once_per_cell_whatever_n_samples(mode: str, capsys) -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    one, seven = (build_field(mode, params, SMALL, fading=True, mc=MCConfig(seed=3, n_samples=n)) for n in (1, 7))
    assert one.values.tobytes() == seven.values.tobytes()
    assert one.meta == seven.meta and one.meta["seed"] == 3 and "n_samples" not in one.meta
    with pytest.raises(SystemExit):
        cli.main(["field", "--help"])
    assert "which --samples does not reach" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("mode", ["colluding", "pairwise"])
def test_exact_secrecy_field_meta_ignores_mc(mode: str) -> None:
    # an exact field draws nothing, so a passed MCConfig leaves no seed or n_samples in its meta
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 0.5)
    bare = build_field(mode, params, grid)
    with_mc = build_field(mode, params, grid, mc=MCConfig(seed=3, n_samples=500))
    assert with_mc.meta == bare.meta and "seed" not in with_mc.meta and "n_samples" not in with_mc.meta
    assert with_mc.values.tobytes() == bare.values.tobytes()


def test_prob_zero_field_cell_agrees_with_direct_estimate() -> None:
    params = SystemParams(p_t=100.0, p_j=100.0, rho=0.01)
    tiny = GridSpec(-0.61, -0.59, -0.01, 0.01, 0.01)
    mc = MCConfig(seed=7, n_samples=20_000)
    fg = build_field("colluding", params, tiny, quantity="prob-zero", mc=mc)
    assert np.all((fg.values >= 0.0) & (fg.values <= 1.0))
    g = gains(float(tiny.xs()[1]), float(tiny.ys()[1]), 2.0)
    direct = uncond_prob_zero(g, params, mc)
    # independent streams, so compare statistically
    se = math.sqrt(2.0) * max(direct.stderr, 1e-6)
    assert abs(fg.values[1, 1] - direct.mean) <= 5.0 * se


def test_per_cell_optimal_jamming_dominates_fixed() -> None:
    params = SystemParams(p_t=100.0, p_j=5.0, rho=0.1)
    grid = GridSpec(0.0, 0.4, 0.0, 0.2, 0.1)
    fixed = build_field("colluding", params, grid)
    tuned = build_field("colluding", params, grid, pj_per_cell="opt")
    assert np.all(tuned.values >= fixed.values - 1e-12)
    oj = build_optjam_grid(grid, params)
    g = gains(0.0, 0.0, 2.0)
    assert oj.values[0, 0] == pytest.approx(opt_jam(g, params.rho, params.p_t).p_j_opt)


def test_argmin_argmax_tie_break() -> None:
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 0.5)
    values = np.array(
        [
            [5.0, 1.0, 5.0],
            [1.0, 5.0, 9.0],
            [5.0, 9.0, 5.0],
        ]
    )
    fg = FieldGrid(spec=spec, values=values)
    # ties resolve to the smallest x first, then the smallest y
    assert grid_argmin(fg) == (0.0, 0.5, 1.0)
    assert grid_argmax(fg) == (0.5, 1.0, 9.0)


def test_csv_round_trip_is_bit_exact(tmp_path) -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    fg = build_field("pairwise", params, SMALL)
    path = tmp_path / "field.csv"
    write_csv(fg, str(path))
    text = path.read_text().splitlines()
    assert text[0] == "x,y,value"
    assert len(text) == 1 + SMALL.nx * SMALL.ny
    back = read_csv(str(path), SMALL)
    assert np.array_equal(back.values, fg.values)
    with pytest.raises(InvalidParameterError):
        read_csv(str(path), GridSpec(0.0, 1.0, 0.0, 1.0, 0.5))


def test_json_round_trip_keeps_meta(tmp_path) -> None:
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    fg = build_field("colluding", params, SMALL)
    path = tmp_path / "field.json"
    write_json(fg, str(path))
    back = read_json(str(path))
    assert back.spec == SMALL
    assert np.array_equal(back.values, fg.values)
    for key in ("mode", "quantity", "p_t", "p_j", "rho", "alpha", "delta"):
        assert back.meta[key] == fg.meta[key]


def test_cli_optjam_reference_point(capsys) -> None:
    rc = cli.main(["optjam", "--a", "4", "--b", "1", "--rho", "0.01", "--pt-db", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "region = R2" in out
    assert "p_j_opt = 207.2705134" in out


def test_cli_db_flags_match_linear(capsys) -> None:
    cli.main(["optjam", "--a", "4", "--b", "1", "--rho", "0.01", "--pt", "100"])
    linear = capsys.readouterr().out
    cli.main(["optjam", "--a", "4", "--b", "1", "--rho-db", "-20", "--pt-db", "20"])
    db = capsys.readouterr().out
    assert linear == db


def test_cli_optjam_unbounded(capsys) -> None:
    rc = cli.main(["optjam", "--a", "4", "--b", "1", "--rho", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p_j_opt = inf" in out


@pytest.mark.parametrize("at", [(-0.5, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.0)])
def test_cli_optjam_at_rho_zero_says_what_secrecy_does(capsys, at) -> None:
    # the region is region_classify's, and the text matches secrecy_ab over P_J
    assert cli.main(["optjam", "--at", *map(str, at), "--rho", "0", "--pt", "100"]) == 0
    out = capsys.readouterr().out
    g = gains(*at, 2.0)
    assert out.startswith(f"region = {region_classify(g, 0.0).name}\n")
    powers = [0.0, 1e-6, 1.0, 1e3, 1e6]
    s = [secrecy_ab(g, SystemParams(p_t=100.0, p_j=p_j, rho=0.0)) for p_j in powers]
    increasing = "keeps increasing" in out
    assert increasing == (s[-1] > s[-2] > s[-3] and all(x <= y for x, y in zip(s, s[1:])))
    if at == (-0.5, 0.0):  # Alice's node
        assert out == "region = R4\nsecrecy = 0 at every jamming power\n" and s == [0.0] * 5
    elif at == (0.5, 0.0):  # Bob's node: every positive power gives log2(1 + P_T)
        assert "p_j_opt = any P_J > 0" in out and len(set(s[1:])) == 1 and s[0] < s[1]
        assert f"secrecy at p_j_opt = {s[1]:.10g} bits" in out and s[1] == pytest.approx(math.log2(101.0))
    else:
        assert increasing and "p_j_opt = inf" in out


def test_cli_optjam_on_the_boundary_says_gamma_and_beta_are_undefined(capsys) -> None:
    # b = rho*a exactly (0.1*4 == 0.4): gamma and beta diverge there, and the text says so
    assert cli.main(["optjam", "--a", "4", "--b", "0.4", "--rho", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "gamma, beta undefined on b = rho*a" in out and "gamma =" not in out and "beta =" not in out


def test_cli_usage_errors(capsys) -> None:
    # contradictory power flags
    assert cli.main(["optjam", "--a", "4", "--b", "1", "--pj", "2", "--pj-auto"]) == 1
    capsys.readouterr()
    # location and gains at once
    assert cli.main(["optjam", "--a", "4", "--b", "1", "--at", "0", "0"]) == 1
    capsys.readouterr()
    # unknown subcommand exits through the parser override
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["prob-zero", "--mode", "sideways"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["field", "--step", "0.5"], "pj_opt = maybe\n", "expected a boolean, got 'maybe'"),
        (["regions", "--step", "0.5", "--config", "no-such-dir/c.cfg"], None, "cannot read config no-such-dir/c.cfg: "),
        (["regions", "--step", "0.5"], "alpha = 2\nrho 0.1\n", ":2: expected key=value, got 'rho 0.1'"),
        (["optjam", "--a", "4", "--b", "1", "--pj-auto", "--rho", "0"], None, "--pj-auto needs rho > 0"),
        (["prob-zero", "--samples", "10"], None, "--at X Y is required"),
        (["cdf", "--samples", "10"], None, "--at X Y is required"),
        (["optjam", "--a", "4"], None, "--a and --b must be given together"),
    ],
)
def test_cli_usage_error_messages(tmp_path, monkeypatch, capsys, argv, config, message) -> None:
    monkeypatch.chdir(tmp_path)
    if config is not None:
        Path("c.cfg").write_text(config)
        argv = [*argv, "--config", "c.cfg"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("fdjam: error: ") and message in captured.err


def test_cli_false_config_boolean_and_rho_one_half_plane(tmp_path, capsys) -> None:
    cfg = tmp_path / "c.cfg"
    cfg.write_text("pj_opt = no\n")
    assert cli.main(["field", "--step", "0.5"]) == 0
    bare = capsys.readouterr().out
    assert cli.main(["field", "--step", "0.5", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == bare
    # rho = 1 turns the secrecy disk into the half-plane x > 0
    assert cli.main(["regions", "--rho", "1", "--step", "0.5"]) == 0
    assert "disk: half-plane x > 0" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flag", [["--samples", "0"], ["--seed", "-1"]])
def test_draw_flags_do_not_reach_a_colluding_prob_zero_field(capsys, flag) -> None:
    # a colluding prob-zero field is a cubature: the flags that set draws cannot fail it
    argv = ["field", "--quantity", "prob-zero", "--step", "0.5"]
    assert cli.main(argv) == 0
    bare = capsys.readouterr().out
    assert cli.main([*argv, *flag]) == 0
    assert capsys.readouterr().out == bare
    # a pairwise prob-zero field draws, and rejects them
    assert cli.main([*argv, "--mode", "pairwise", *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("fdjam: error: ")


def test_cli_has_no_delta_flag(tmp_path, capsys) -> None:
    # no command's computation reads the exclusion radius, so neither a flag nor a config line sets it
    assert cli.main(["policy", "--delta", "7"]) == 1
    assert "unrecognized arguments: --delta 7" in capsys.readouterr().err
    cfg = tmp_path / "c.cfg"
    cfg.write_text("delta = 0.3\n")
    assert cli.main(["regions", "--step", "0.5", "--config", str(cfg)]) == 1
    assert "unknown config key 'delta'" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "empty-path"])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys, where, fmt) -> None:
    out = str(tmp_path / "no-such-dir" / "f.csv") if where == "missing-directory" else ""
    assert cli.main(["regions", "--step", "0.5", "--out", out, *fmt]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fdjam: error: cannot write {out!r}: ") and err.count("\n") == 1


def _fdjam(argv: list[str], stdout) -> subprocess.Popen:
    """`python -m fdjam.cli argv` in a fresh process on this fdjam, stderr piped."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-m", "fdjam.cli", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_cli_stops_quietly_when_its_reader_closes_the_pipe() -> None:
    # the 201 x 201 CSV, over a megabyte, cannot all fit in the pipe, so the
    # child is still writing when the reader closes its end two lines in
    child = _fdjam(["field", "--step", "0.02", "--out", "/dev/stdout"], subprocess.PIPE)
    assert all(child.stdout.readline().endswith(b"\n") for _ in range(2))
    child.stdout.close()
    assert (child.wait(timeout=60), child.stderr.read()) == (141, b"")
    child.stderr.close()


def test_cli_stops_quietly_when_stdout_is_closed_before_the_first_line() -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = _fdjam(["field", "--step", "0.5"], write_end)
    os.close(write_end)
    assert (child.wait(timeout=60), child.stderr.read()) == (141, b"")
    child.stderr.close()


def test_cli_prob_zero_pairwise_small_probability_mass(capsys) -> None:
    rc = cli.main(
        [
            "prob-zero",
            "--mode",
            "pairwise",
            "--pj-db",
            "0",
            "--at",
            "0",
            "0",
            "--rho",
            "0.1",
            "--pt",
            "1",
            "--samples",
            "20000",
            "--seed",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    share = float(out.rsplit("=", 1)[1])
    assert share >= 0.10
    assert "conditional P(S=0) at unit fading = 3.208546e-04" in out


def test_cli_regions_counts(capsys) -> None:
    rc = cli.main(["regions", "--rho", "0.1", "--step", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    counts = {tok.split("=")[0]: int(tok.split("=")[1]) for tok in out.split()[3:7]}
    assert sum(counts.values()) == 41 * 41
    assert counts["R3"] == 0  # rho = 0.1 keeps the disk inside d_A < 1
    assert "disk: center=(-0.611111, 0)" in out


def test_cli_cdf_table(capsys) -> None:
    rc = cli.main(
        ["cdf", "--at", "-0.6", "0", "--rho", "0.01", "--pj-db", "30", "--samples", "5000", "--p-step", "0.25"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [r[0] for r in rows] == ["0.25", "0.50", "0.75"]
    for _, bound, emp in rows:
        assert float(bound) <= float(emp) + 0.02


@pytest.mark.parametrize("step", ["1e-9", "5e-7"])
def test_cli_cdf_step_below_the_floor_is_a_usage_error(monkeypatch, capsys, step: str) -> None:
    # over 10^6 levels: refused before the level array is built
    monkeypatch.setattr(np, "arange", lambda *a, **k: pytest.fail("a level array was built"))
    assert cli.main(["cdf", "--at", "-0.6", "0", "--samples", "1000", "--p-step", step]) == 1
    assert f"--p-step must be in (0, 2/3) and at least 1e-6, got {float(step):g}" in capsys.readouterr().err


def test_cli_policy_table(capsys) -> None:
    rc = cli.main(
        [
            "policy",
            "--rho",
            "0.1",
            "--pt",
            "1",
            "--samples",
            "20000",
            "--seed",
            "5",
            "--ladder-db",
            "0",
            "20",
            "--p-accept",
            "1e-4",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    rows = [line.split() for line in lines if line and line.split()[0] in ("0", "20")]
    assert len(rows) == 2
    for row in rows:
        constant, p2, semi, p1, cap = (float(v) for v in row[1:6])
        assert semi < p1 < cap
        assert constant < p2
    assert "full-dynamic estimate = 0 (exact)" in out
    assert "general-dynamic p=0.0001" in out


def test_cli_policy_at_an_endpoint_node_prints_its_bounds(capsys) -> None:
    assert cli.main(["policy", "--at", "0.5", "0", "--samples", "100", "--ladder-db", "0", "10"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["0"], ["10"])]
    assert len(rows) == 2
    for row in rows:
        constant, p2, semi, p1, _ = (float(v) for v in row[1:6])
        assert constant == semi == 0.0
        assert 0.0 < p1 < p2


POLICY_TABLE = (
    "policy comparison at (0, 0): rho=0.1 alpha=2 p_t=100 n=20000 seed=5\n"
    " pj_db      constant      p2_bound      semi_dyn      p1_bound      pi_rho_4\n"
    "     0  2.581378e-01  6.652780e-01  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    10  6.552421e-02  1.707397e-01  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    20  3.196394e-02  8.506954e-02  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    30  2.769596e-02  7.429171e-02  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    40  2.722489e-02  7.306294e-02  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    50  2.717663e-02  7.293357e-02  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "    60  2.717178e-02  7.292041e-02  2.717124e-02  7.291894e-02  7.853982e-02\n"
    "full-dynamic estimate = 0 (exact)\n"
)


@pytest.mark.parametrize("pj, rho", [("1e155", "0.1"), ("1e300", "0.1"), ("1e154", "1")])
def test_cli_pairwise_prob_zero_past_the_overflow_is_the_unbounded_one(capsys, pj: str, rho: str) -> None:
    # P_J^2 overflowed a float from P_J = 1.34e154 (a traceback), and at rho = 1 the product
    # q1*q2 did just below it (nan, exit 0); the wedge scaled by max(1, P_J)^2 reaches
    # P_J = inf as the member 1/P_J = 0, and a power that large prints its lines
    argv = ["prob-zero", "--mode", "pairwise", "--at", "0", "0", "--rho", rho, "--samples", "20000", "--seed", "1"]
    assert cli.main([*argv, "--pj", "inf"]) == 0
    want = capsys.readouterr().out
    assert cli.main([*argv, "--pj", pj]) == 0
    got = capsys.readouterr().out
    assert "nan" not in got and got == want


@pytest.mark.parametrize("pj", ["1e307", "1e308", "1.7976931348623157e308"])
def test_cli_colluding_prob_zero_near_the_float_limit_is_the_unbounded_one(capsys, pj: str) -> None:
    # the products with P_J overflowed: at 1e308 the estimate printed nan +- nan and a share of 0.0973;
    # on the jamming scale r = min(P_J, 1), i = 1/max(P_J, 1) the power prints the P_J = inf lines
    argv = ["prob-zero", "--mode", "colluding", "--at", "-0.6", "0", "--rho", "0.01", "--samples", "20000"]
    assert cli.main([*argv, "--seed", "1", "--pj", "inf"]) == 0
    want = capsys.readouterr().out
    assert cli.main([*argv, "--seed", "1", "--pj", pj]) == 0
    assert capsys.readouterr().out == want


def test_colluding_prob_zero_field_near_the_float_limit_is_the_unbounded_one() -> None:
    # the 41x41 field at rho = 0.01 had 8 nan cells at P_J = 1e307 and 68 at 1e308; each cell now
    # lies within its reported error of the P_J = inf cell
    grid = GridSpec(-2.0, 2.0, -2.0, 2.0, 0.1)
    unbounded = build_field("colluding", SystemParams(p_t=100.0, p_j=math.inf, rho=0.01), grid, quantity="prob-zero")
    for p_j in (1e307, 1e308, sys.float_info.max):
        fg = build_field("colluding", SystemParams(p_t=100.0, p_j=p_j, rho=0.01), grid, quantity="prob-zero")
        assert not np.any(np.isnan(fg.values))
        assert np.all(np.abs(fg.values - unbounded.values) <= fg.error)


@pytest.mark.parametrize("mode, rho", [("colluding", "0"), ("pairwise", "0.01")])
def test_cli_secrecy_field_at_the_float_limit_prints_a_finite_mean(capsys, mode: str, rho: str) -> None:
    # a*P_T overflowed before the jamming term divided it: at P_T = 1e308 and P_J = inf the colluding
    # field printed mean = nan (176 nan cells at rho = 0), and the pairwise one 313 nan cells at rho = 0.01
    argv = ["field", "--mode", mode, "--quantity", "secrecy", "--pt", "1e308", "--pj", "inf", "--rho", rho]
    assert cli.main([*argv, "--step", "0.1"]) == 0
    mean = float(capsys.readouterr().out.split("mean = ")[1].split()[0])
    assert math.isfinite(mean)


def test_cli_policy_past_the_overflow_prints_no_nan_and_no_wider_window(capsys) -> None:
    # at rho = 1, 1539 and 1540 dB printed a nan constant rung and a P2 above the 1530 dB rung's,
    # and 1550 dB died with an OverflowError; P2 cannot grow with P_J
    assert cli.main(["policy", "--rho", "1", "--samples", "2000", "--ladder-db", "1530", "1539", "1540", "1550"]) == 0
    out = capsys.readouterr().out
    table = [line.split() for line in out.splitlines() if line[:6].strip().isdigit()]
    rows = {int(row[0]): [float(v) for v in row[1:]] for row in table}
    assert "nan" not in out and sorted(rows) == [1530, 1539, 1540, 1550]
    assert all(0.0 < row[0] <= row[1] <= rows[1530][1] for row in rows.values())


def test_cli_policy_table_is_unchanged_with_one_semi_dynamic_report(monkeypatch, capsys) -> None:
    # the semi-dynamic rung runs at P_J = inf whatever the row's power, so the
    # command computes it once; the table is the one the per-row loop printed
    kinds = []
    real = cli.policy_prob_zero

    def counted(policy, g, params, mc):
        kinds.append(policy.kind)
        return real(policy, g, params, mc)

    monkeypatch.setattr(cli, "policy_prob_zero", counted)
    assert cli.main(["policy", "--samples", "20000", "--seed", "5"]) == 0
    assert capsys.readouterr().out == POLICY_TABLE
    assert kinds.count(JamPolicyKind.SEMI_DYNAMIC) == 1
    assert kinds.count(JamPolicyKind.CONSTANT) == 7


def test_cli_verify_suite(capsys) -> None:
    rc = cli.main(["verify", "--suite", "geometry", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failures" in out
    assert all(line.startswith("ok") for line in out.splitlines() if "/" in line)
    assert cli.main(["verify", "--suite", "nonsense"]) == 1
    capsys.readouterr()


def test_cli_field_export(tmp_path, capsys) -> None:
    csv_path = tmp_path / "f.csv"
    rc = cli.main(
        [
            "field",
            "--mode",
            "pairwise",
            "--x-min",
            "-1",
            "--x-max",
            "1",
            "--y-min",
            "-0.5",
            "--y-max",
            "0.5",
            "--step",
            "0.25",
            "--out",
            str(csv_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "field mode=pairwise quantity=secrecy" in out
    assert csv_path.exists()
    back = read_csv(str(csv_path), GridSpec(-1.0, 1.0, -0.5, 0.5, 0.25))
    direct = build_field("pairwise", SystemParams(p_t=100.0, p_j=1.0, rho=0.1), GridSpec(-1.0, 1.0, -0.5, 0.5, 0.25))
    assert np.array_equal(back.values, direct.values)

    json_path = tmp_path / "f.json"
    rc = cli.main(
        [
            "field",
            "--x-min",
            "-1",
            "--x-max",
            "1",
            "--y-min",
            "-0.5",
            "--y-max",
            "0.5",
            "--step",
            "0.25",
            "--out",
            str(json_path),
            "--json",
        ]
    )
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["meta"]["mode"] == "colluding"
    assert payload["meta"]["p_t"] == 100.0


def test_cli_config_file_with_flag_override(tmp_path, capsys) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for the sweep\nrho = 0.01\npt_db = 20\n")
    cli.main(["optjam", "--a", "4", "--b", "1", "--config", str(cfg)])
    from_config = capsys.readouterr().out
    assert "p_j_opt = 207.2705134" in from_config
    # explicit flag wins over the file value
    cli.main(["optjam", "--a", "4", "--b", "1", "--config", str(cfg), "--rho", "0.1"])
    overridden = capsys.readouterr().out
    assert "p_j_opt = 207.2705134" not in overridden
    bad = tmp_path / "bad.cfg"
    bad.write_text("warp_factor = 9\n")
    assert cli.main(["optjam", "--a", "4", "--b", "1", "--config", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, config, env",
    [
        (["optjam", "--a", "4", "--b", "1"], "rho = abc\n", None),
        (["prob-zero", "--at", "0", "0"], "samples = 1e3\n", None),
        (["prob-zero"], "at = 1\n", None),
        (["prob-zero", "--at", "0", "0", "--samples", "100"], None, "abc"),
    ],
)
def test_cli_config_and_env_values_are_checked_like_flags(tmp_path, monkeypatch, capsys, argv, config, env) -> None:
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    if env is not None:
        monkeypatch.setenv("FDJAM_SEED", env)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fdjam: error: ")


@pytest.mark.parametrize(
    "argv, config, flags",
    [
        (["prob-zero", "--samples", "2000"], "at = 0.3 0.2\n", ["--at", "0.3", "0.2"]),
        (["policy", "--samples", "2000"], "ladder_db = 0 30\n", ["--ladder-db", "0", "30"]),
        (["field", "--step", "0.5", "--samples", "50"], "fading = true\njson = yes\n", ["--fading", "--json"]),
    ],
)
def test_cli_config_values_match_the_flag_forms(tmp_path, capsys, argv, config, flags) -> None:
    out = tmp_path / "grid.out"
    argv = argv + ["--out", str(out)] if argv[0] == "field" else argv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    runs = []
    for extra in (["--config", str(cfg)], flags):
        assert cli.main(argv + extra) == 0
        runs.append((capsys.readouterr().out, out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]


def test_colluding_prob_zero_field_carries_its_cubature_error(tmp_path) -> None:
    # no MCConfig needed; the meta names the rule, the error rides along in JSON only
    params = SystemParams(p_t=100.0, p_j=10.0, rho=0.05)
    fg = build_field("colluding", params, SMALL, quantity="prob-zero")
    assert fg.error.shape == fg.values.shape and np.all(fg.error >= 0.0)
    assert (fg.meta["method"], fg.meta["nodes"], fg.meta["error_nodes"]) == ("cubature", 48, 32)
    assert "seed" not in fg.meta and "n_samples" not in fg.meta
    assert build_field("colluding", params, SMALL, quantity="prob-zero", mc=MCConfig(seed=1, n_samples=5)).meta == fg.meta
    path = tmp_path / "field.json"
    write_json(fg, str(path))
    back = read_json(str(path))
    assert np.array_equal(back.values, fg.values) and np.array_equal(back.error, fg.error)
    assert back.meta == fg.meta
    bare = build_field("colluding", params, SMALL)
    write_json(bare, str(path))
    assert "error" not in json.loads(path.read_text()) and read_json(str(path)).error is None
    # CSV holds x,y,value alone, byte for byte as for a field without an error
    write_csv(fg, str(tmp_path / "with.csv"))
    write_csv(FieldGrid(spec=SMALL, values=fg.values), str(tmp_path / "without.csv"))
    assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()
    with pytest.raises(InvalidParameterError):
        FieldGrid(spec=SMALL, values=fg.values, error=np.zeros((2, 2)))


def test_field_help_says_what_samples_and_seed_reach(capsys) -> None:
    with pytest.raises(SystemExit):
        cli.main(["field", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "they do not reach a colluding prob-zero field, which is a deterministic cubature" in text


def test_cli_help_prints_the_declared_defaults(monkeypatch, capsys) -> None:
    monkeypatch.delenv("FDJAM_SEED", raising=False)
    for name, sub in cli._build_parser().commands.items():
        with pytest.raises(SystemExit) as stop:
            cli.main([name, "--help"])
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for action in sub._actions:
            if action.default not in (None, argparse.SUPPRESS) and action.default is not False:
                assert f"default {action.default}" in text, (name, action.dest)


def test_readme_cli_commands_parse() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.startswith("fdjam ")]
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a usage error raises
    assert {argv[1] for argv in commands} == set(parser.commands)


def test_cli_seed_env_default(monkeypatch, capsys) -> None:
    argv = ["prob-zero", "--at", "-0.6", "0", "--rho", "0.01", "--samples", "2000"]
    monkeypatch.setenv("FDJAM_SEED", "7")
    cli.main(argv)
    via_env = capsys.readouterr().out
    monkeypatch.delenv("FDJAM_SEED")
    cli.main(argv + ["--seed", "7"])
    via_flag = capsys.readouterr().out
    assert via_env == via_flag
    cli.main(argv + ["--seed", "8"])
    other = capsys.readouterr().out
    assert via_env != other


@pytest.mark.parametrize("step", ["0", "-0.1", "0.7", "2", "nan", "inf"])
def test_cdf_rejects_a_step_that_gives_no_level(capsys, step: str) -> None:
    argv = ["cdf", "--at", "-0.6", "0", "--samples", "100", "--p-step", step]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("fdjam: error: --p-step must be in (0, 2/3)")
    with pytest.raises(SystemExit):
        cli.main(["cdf", "--help"])
    assert "level spacing, in (0, 2/3)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cdf", "--at", "-0.6", "0", "--rho", "0.01", "--pj", "0", "--samples", "1000"], "cdf_lower_bound needs P_J > 0"),
        (["policy", "--samples", "2000", "--ladder-db", "0", "10", "--p-accept", "1.5"], "general-dynamic needs p_accept"),
    ],
)
def test_parameter_errors_come_before_any_output(capsys, argv: list, message: str) -> None:
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"fdjam: error: {message}")


def test_verify_takes_a_seed_and_no_samples(monkeypatch, capsys) -> None:
    assert cli.main(["verify", "--suite", "geometry", "--samples", "5"]) == 1
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err
    monkeypatch.setenv("FDJAM_SEED", "7")
    assert cli._build_parser().parse_args(["verify"]).seed == 7
    monkeypatch.setenv("FDJAM_SEED", "abc")
    assert cli.main(["verify", "--suite", "geometry"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("fdjam: error: ")


def test_cli_pj_auto_where_pt_over_rho_overflows(capsys) -> None:
    # P_T/rho passes the float range, but the coupled power sqrt(P_T/rho) is 1.34e154, not inf
    argv = ["cdf", "--at", "-0.6", "0", "--pt", "1.797693134862316e304", "--rho", "1e-4", "--pj-auto"]
    assert cli.main(argv + ["--samples", "1000"]) == 0
    assert " p_j=1.34078e+154 " in capsys.readouterr().out.splitlines()[0]


def test_cli_pj_auto(capsys) -> None:
    rc = cli.main(
        [
            "field",
            "--mode",
            "pairwise",
            "--pj-auto",
            "--rho",
            "0.01",
            "--pt-db",
            "60",
            "--x-min",
            "0",
            "--x-max",
            "0.2",
            "--y-min",
            "0",
            "--y-max",
            "0.2",
            "--step",
            "0.1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    # near-field plateau sits at log2(1/rho) = 6.64 bits
    mean = float([line for line in out.splitlines() if line.startswith("mean")][0].split("=")[1])
    assert mean == pytest.approx(math.log2(100.0), abs=0.1)
