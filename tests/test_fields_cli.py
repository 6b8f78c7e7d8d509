"""Grid sweeps, export round-trips and the command-line front end."""

import json
import math

import numpy as np
import pytest

from fdjam import cli
from fdjam.colluding import opt_jam
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
    fg = build_region_grid(SMALL, rho=0.1, alpha=2.0)
    xs, ys = SMALL.xs(), SMALL.ys()
    for iy in range(SMALL.ny):
        for ix in range(SMALL.nx):
            g = gains(float(xs[ix]), float(ys[iy]), 2.0)
            want = float(region_classify(g, 0.1).name[1])
            assert fg.values[iy, ix] == want
    # and the disk predicate agrees with the positive-sign side
    disk = rho_disk(0.1, 2.0)
    xm, ym = np.meshgrid(xs, ys)
    np.testing.assert_array_equal(disk.secrecy_side(xm, ym), fg.values <= 2.0)


def test_region_grid_rho_zero() -> None:
    fg = build_region_grid(SMALL, rho=0.0, alpha=2.0)
    assert set(np.unique(fg.values)) <= {1.0, 2.0}


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


POLICY_TABLE = (
    "policy comparison at (0, 0): rho=0.1 alpha=2 p_t=100 n=20000 seed=5\n"
    " pj_db      constant      p2_bound      semi_dyn      p1_bound      pi_rho_4\n"
    "     0  2.583900e-01  6.657262e-01  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    10  6.593600e-02  1.717716e-01  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    20  3.239834e-02  8.618305e-02  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    30  2.813824e-02  7.543484e-02  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    40  2.766889e-02  7.421366e-02  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    50  2.762084e-02  7.408529e-02  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "    60  2.761602e-02  7.407226e-02  2.761548e-02  7.407081e-02  7.853982e-02\n"
    "full-dynamic estimate = 0 (exact)\n"
)


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
