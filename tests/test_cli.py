import csv
import json
import math
import os
from unittest import mock

import numpy as np
import pytest

from heiskit import beta, cli, core, domains, riesz


def test_parse_list_and_ranges():
    assert cli._parse_list("0.5,1,2") == (0.5, 1.0, 2.0)
    assert cli._parse_list("2^-2..2^2") == (0.25, 0.5, 1.0, 2.0, 4.0)
    assert cli._parse_list("2^-1..2^-3") == (0.5, 0.25, 0.125)
    assert cli._parse_list("") == ()
    with pytest.raises(cli.ConfigError):
        cli._parse_list("-1..2")


def test_parse_center_and_scales():
    assert cli._parse_center("1, 2,3") == (1.0, 2.0, 3.0)
    with pytest.raises(cli.ConfigError):
        cli._parse_center("1,2")
    assert cli._parse_scales("2^-4:4:2") == (0.0625, 4.0, 2)
    with pytest.raises(cli.ConfigError):
        cli._parse_scales("1:0.5:2")


def test_config_round_trip():
    cfg = cli.ExperimentConfig(
        experiment="osc-scan",
        domain="slab:t>0",
        center=(0.1, -0.2, 0.3),
        radius=1.5,
        radii=(0.5, 1.0),
        samples=5000,
        seed=9,
        scales=(0.125, 2.0, 3),
        p_exp=2.0,
        eps_grid=(0.5, 0.25),
        out="x.csv",
        fmt="csv",
    )
    back = cli.configs_from_text(cfg.to_text())
    assert back == [cfg]
    assert cfg.config_hash == back[0].config_hash


def test_config_unknown_keys_rejected():
    text = "[osc-scan]\ndomain = slab:t>0\nmystery = 1\n"
    with pytest.raises(cli.ConfigError):
        cli.configs_from_text(text)
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="nope")
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig(experiment="dini", fmt="yaml")


# The benchmark's command lines at seed 1001 (perfbench/workloads.py), plus
# an osc-vs-beta run and a spaced centre, each with its pinned config hash:
# outputs carry the hash, so a rerun must reproduce it.
_LIFT, _HOLDER, _FLAT, _SLAB = "lift:phi0=abs,scale=0.5", "holder:H=1,tau=0.5", "flat:theta=0,offset=0", "slab:t>0"
_OSC = ["--samples", "100000", "--seed", "1001"]
_BETA = ["beta-scan", "--p-exp", "1", "--samples", "30000", "--seed", "1001"]
PINNED_ARGV = [
    (["osc-scan", "--domain", _SLAB, "--radii", "2^-3..2^3", *_OSC], "ea2fba1499fd"),
    (["osc-scan", "--domain", _HOLDER, "--radii", "2^-3..2^3", *_OSC], "c15c2500f613"),
    (["osc-scan", "--domain", _FLAT, "--radius", "1", *_OSC], "899c12adc886"),
    (["dini", "--domain", _SLAB, "--scales", "2^-3:2^3:1", *_OSC, "--format", "json"], "d769422c8335"),
    (["dini", "--domain", _HOLDER, "--scales", "2^-3:2^3:1", *_OSC, "--format", "json"], "292fd0d6091b"),
    ([*_BETA, "--domain", _LIFT, "--radii", "0.5,1,2"], "275071f82512"),
    ([*_BETA, "--domain", _FLAT, "--radius", "1"], "c4620ec24875"),
    (["perimeter-beta", "--domain", _HOLDER, "--scales", "2^-3:2^1:1", *_OSC, "--format", "json"], "4fac93ddba8e"),
    (["carleson", "--domain", _LIFT, "--radius", "1", "--p-exp", "4", *_OSC], "a258a088d254"),
    (["riesz-test", "--domain", _LIFT, "--radii", "0.5,1,2", "--samples", "50000", "--seed", "1001"], "fc4773282d17"),
    (["invariants", "--seed", "1001"], "bcbec06b5c14"),
    (["osc-vs-beta", "--domain", _LIFT, "--radius", "0.25", *_OSC], "7d6c2a56ce12"),
    (["osc-scan", "--center", " 0.1, 0,0", "--samples", "20000", "--seed", "1001"], "42286f5afcac"),
]


def config_of(argv):
    """The ExperimentConfig that main builds from argv, without running it."""
    with mock.patch.object(cli, "run", return_value=0) as run:
        assert cli.main(argv) == 0
    return run.call_args.args[0]


@pytest.mark.parametrize("argv, pinned", PINNED_ARGV, ids=[h for _, h in PINNED_ARGV])
def test_argv_config_round_trips_with_pinned_hash(argv, pinned):
    cfg = config_of(argv)
    assert cli.configs_from_text(cfg.to_text()) == [cfg]
    assert cfg.config_hash == pinned


def test_bare_experiment_takes_the_dataclass_defaults():
    assert config_of(["osc-scan"]) == cli.ExperimentConfig("osc-scan")


def test_bad_values_name_their_key(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("[osc-scan]\nsamples = abc\n")
    for argv in (["osc-scan", "--samples", "abc"], ["--config", str(cfg_file)]):
        assert cli.main(argv) == 2
        assert "config error: samples: " in capsys.readouterr().err
    # no argparse choices: a bad format is a config error, not a SystemExit
    assert cli.main(["osc-scan", "--format", "xml"]) == 2
    assert "config error: format must be csv or json" in capsys.readouterr().err
    # a config file runs its own sections, so an experiment beside it is an error
    good = tmp_path / "good.cfg"
    good.write_text("[osc-scan]\nsamples = 1000\n")
    with mock.patch.object(cli, "run", return_value=0) as run:
        assert cli.main(["--config", str(good), "dini", "--samples", "5"]) == 2
    run.assert_not_called()
    assert "config error: --config " in capsys.readouterr().err
    # a non-finite center is not turned into a number, nor into another key's error
    for argv in (
        ["osc-scan", "--domain", "slab:t>0", "--center", "nan,0,0", "--samples", "2000"],
        ["osc-scan", "--domain", "slab:t>0", "--center", "inf,0,0", "--samples", "2000"],
        ["dini", "--domain", "slab:t>0", "--center", "0,0,nan", "--scales", "1:2:1"],
        ["beta-scan", "--center", "nan,0,0"],
        ["riesz-test", "--center", "nan,0,0"],
    ):
        with mock.patch.object(cli, "run", return_value=0) as run:
            assert cli.main(argv) == 2
        run.assert_not_called()
        assert "config error: center: coordinates must be finite" in capsys.readouterr().err
    # nor is a non-finite or non-positive radius, eps or scale bound
    for argv, key in (
        (["osc-scan", "--domain", "slab:t>0", "--radius", "nan", "--samples", "100"], "radius"),
        (["osc-scan", "--domain", "slab:t>0", "--radius", "0", "--samples", "100"], "radius"),
        (["osc-scan", "--domain", "slab:t>0", "--radii", "1,inf", "--samples", "100"], "radii"),
        (["osc-scan", "--domain", "slab:t>0", "--radii", "1..nan", "--samples", "100"], "radii"),
        (["riesz-test", "--eps-grid", "inf"], "eps_grid"),
        (["riesz-test", "--eps-grid", "0.5,-0.25"], "eps_grid"),
        (["dini", "--domain", "slab:t>0", "--scales", "2^-3:inf:1"], "scales"),
        (["dini", "--domain", "slab:t>0", "--scales", "nan:1:1"], "scales"),
    ):
        with mock.patch.object(cli, "run", return_value=0) as run:
            assert cli.main(argv) == 2
        run.assert_not_called()
        assert f"config error: {key}: must be positive and finite" in capsys.readouterr().err
    # nor is an L^p exponent that is not finite and >= 1, before any sample is drawn
    for argv in (
        ["beta-scan", "--p-exp", "nan"],
        ["perimeter-beta", "--p-exp", "0.5"],
        ["carleson", "--p-exp", "inf"],
    ):
        with mock.patch.object(cli, "run", return_value=0) as run:
            assert cli.main(argv) == 2
        run.assert_not_called()
        assert "config error: p_exp: must be finite and >= 1" in capsys.readouterr().err
    assert cli.main(["osc-scan", "--radii", "2^9999"]) == 2
    assert "config error: radii: '2^9999' overflows a float" in capsys.readouterr().err


def test_every_setting_is_a_flag_of_every_experiment():
    parser = cli._build_parser()
    for name in cli._RUNNERS:
        for key, *_ in cli._SETTINGS:
            args = parser.parse_args([name, "--" + key.replace("_", "-"), "text"])
            assert getattr(args, key) == "text"


@pytest.mark.parametrize("argv", [
    ["riesz-test", "--eps-grid", "0"],
    ["riesz-test", "--eps-grid=-0.5"],
    ["carleson", "--radius", "1", "--p-exp", "0"],
    ["carleson", "--radius", "1", "--p-exp", "-1"],
    ["carleson", "--radius", "1", "--p-exp", "inf"],
    ["perimeter-beta", "--p-exp", "inf"],
    ["perimeter-beta", "--p-exp", "nan"],
    ["carleson", "--samples", "4"],
    ["perimeter-beta", "--samples", "4"],
])
def test_out_of_range_scan_settings_exit_2_before_sampling(argv, capsys):
    # at eps <= 0 the patch ladder of testing_scan never reaches 2R;
    # p < 1 turns the zero beta numbers of a flat graph into 0^p = 1 or 1/0,
    # and p = inf every beta number below 1 into 0; below 50 samples a local
    # beta ball would draw samples // 50 = 0 points
    no_draw = AssertionError("a sample was drawn")
    with mock.patch("heiskit.riesz.surface_sample", side_effect=no_draw), \
         mock.patch("heiskit.beta.surface_sample", side_effect=no_draw), \
         mock.patch("heiskit.beta.lp_vertical_perimeter", side_effect=no_draw):
        assert cli.main(argv) == 2
    assert "config error: " in capsys.readouterr().err


def test_carleson_ratio_follows_samples(tmp_path):
    # the window sample draws --samples points and each local ball a fiftieth
    ratios = []
    for n in ("2000", "5000"):
        out = tmp_path / f"c{n}.csv"
        assert cli.main(["carleson", "--domain", _LIFT, "--radius", "1", "--p-exp", "4",
                         "--samples", n, "--out", str(out)]) == 0
        lines = (line for line in out.read_text().splitlines() if not line.startswith("#"))
        ratios.append(next(csv.DictReader(lines))["ratio"])
    assert ratios[0] != ratios[1]


def test_carleson_small_samples_keep_every_local_ball(tmp_path):
    # at 1,000 samples each local ball draws 20 points; over an upright
    # rectangle a radius-1/64 ball kept none of them and the run exited 1
    out = tmp_path / "c.csv"
    assert cli.main(["carleson", "--domain", _LIFT, "--radius", "1", "--p-exp", "4",
                     "--samples", "1000", "--out", str(out)]) == 0
    lines = (line for line in out.read_text().splitlines() if not line.startswith("#"))
    ratio = float(next(csv.DictReader(lines))["ratio"])
    assert 0.0 < ratio < math.inf


def test_every_local_beta_ball_keeps_most_of_its_draws(tmp_path):
    # the benchmark's perimeter-beta and carleson runs: each local ball's
    # sheared region holds the ball's projection in area 2 rho^3 (1 + pad)^2,
    # so about 40 % of every local sample lands in its ball
    fractions = []
    real = beta._fit

    def spy(sample, ball, p_exp, normalization, coarse):
        res = real(sample, ball, p_exp, normalization, coarse)
        fractions.append(res.n_in_ball / sample.n)
        return res

    runs = [["perimeter-beta", "--domain", _HOLDER, "--scales", "2^-3:2^1:1", *_OSC, "--format", "json"],
            ["carleson", "--domain", _LIFT, "--radius", "1", "--p-exp", "4", *_OSC]]
    with mock.patch.object(beta, "_fit", spy):
        for i, argv in enumerate(runs):
            assert cli.main(argv + ["--out", str(tmp_path / f"o{i}")]) == 0
    assert len(fractions) == beta._N_OUTER * (4 + 7)  # radii up to the window radius, and 7 octaves
    assert min(fractions) >= 0.35, min(fractions)


def test_fit_decay_exact_power_laws():
    radii = [2.0**k for k in range(-5, 6)]
    prof = [(math.log(r), math.log(r**0.5)) for r in radii]
    fit = cli.fit_decay(prof)
    assert fit.slope_below == pytest.approx(0.5, abs=1e-6)
    assert fit.slope_above == pytest.approx(0.5, abs=1e-6)
    assert fit.r2_below == pytest.approx(1.0) and fit.r2_above == pytest.approx(1.0)

    prof2 = [(math.log(r), math.log(min(r, 1 / r))) for r in radii]
    fit2 = cli.fit_decay(prof2)
    assert fit2.slope_below == pytest.approx(1.0, abs=1e-9)
    assert fit2.slope_above == pytest.approx(-1.0, abs=1e-9)


def test_fit_decay_degenerate():
    fit = cli.fit_decay([])
    assert math.isnan(fit.slope_below) and math.isnan(fit.slope_above)
    # all-zero profiles arrive as -inf logs and are dropped, not fit as 0
    fit2 = cli.fit_decay([(0.5, -math.inf), (1.0, -math.inf), (-0.5, -math.inf)])
    assert math.isnan(fit2.slope_below) and math.isnan(fit2.slope_above)


def run_main(argv):
    return cli.main(argv)


def test_osc_scan_flat_zero_column(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = run_main([
        "osc-scan", "--domain", "flat:theta=0,offset=0", "--radii", "2^-1..2^1",
        "--samples", "20000", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# heiskit=")
    rows = list(csv.reader(lines[1:]))
    est_col = rows[0].index("estimate")
    for row in rows[1:]:
        assert float(row[est_col]) == 0.0


def test_cli_determinism_and_parallel(tmp_path):
    # 150,000 samples make three chunks, so the pool runs and a chunk-order
    # bug would show in the osc and profile columns
    args = [
        "osc-scan", "--domain", "holder:H=1,tau=0.5", "--radius", "1",
        "--samples", "150000", "--seed", "5",
    ]
    outs = []
    for workers in ("1", "2", "4"):
        outs.append(tmp_path / f"osc-{workers}.csv")
        with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": workers}):
            assert run_main(args + ["--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_osc_row_is_the_mean_of_its_profile(tmp_path):
    out = tmp_path / "osc.csv"
    assert run_main([
        "osc-scan", "--domain", "holder:H=1,tau=0.5", "--radii", "0.5,2",
        "--samples", "70000", "--seed", "4", "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(line for line in out.read_text().splitlines() if not line.startswith("#")))
    assert len(rows) == 2 * 17
    for k in range(2):
        profile, row = rows[17 * k : 17 * k + 16], rows[17 * k + 16]
        assert row["s"] == "" and all(r["s"] for r in profile)
        mean = sum(float(r["estimate"]) for r in profile) / 16
        assert float(row["estimate"]) == pytest.approx(mean, rel=1e-12)
        assert {r["seed"] for r in profile} == {row["seed"]}


def test_riesz_test_identical_across_workers(tmp_path):
    args = [
        "riesz-test", "--domain", "lift:phi0=abs,scale=0.5", "--radii", "0.5,1",
        "--samples", "20000", "--seed", "5", "--eps-grid", "2^-1..2^-4",
    ]
    outs = []
    for workers in ("1", "4"):
        outs.append(tmp_path / f"riesz-{workers}.csv")
        with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": workers}):
            assert run_main(args + ["--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_invariants_experiment(tmp_path):
    out = tmp_path / "inv.json"
    code = run_main(["invariants", "--seed", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["passed"] is True
    assert payload["summary"]["failures"] == []
    assert all(row[-1] for row in payload["rows"])
    # each row reports the points it ran on: 10,000 group and metric
    # instances, the kernel and finite-difference rows the same <= 500
    counts = {row[0]: row[1] for row in payload["rows"]}
    assert counts["group associativity"] == counts["triangle inequality"] == 10_000
    kernel_rows = [name for name in counts if name.startswith("kernel ")]
    assert len(kernel_rows) == len(riesz.KERNEL_DEGREES) + 1
    fd_rows = ["harmonicity of G in the left and right frames", "left/right divergence identity"]
    kp = {counts[name] for name in kernel_rows + fd_rows}
    assert len(kp) == 1 and 400 < kp.pop() <= 500


def test_beta_scan_runs(tmp_path):
    out = tmp_path / "beta.csv"
    code = run_main([
        "beta-scan", "--domain", "lift:phi0=abs,scale=0.5", "--radius", "1",
        "--samples", "20000", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert rows[0][:4] == ["domain_label", "cx", "cy", "ct"]
    assert len(rows) == 3  # header + (p_exp, inf) rows


def test_beta_scan_curved_lift(tmp_path):
    # the (x, y) projection of a sin lift is a curve, so most in-ball points
    # are hull vertices; the exact beta_inf plane attains the reported value
    # and beats every plane of a dense angle grid
    out = tmp_path / "beta.json"
    code = run_main([
        "beta-scan", "--domain", "lift:phi0=sin,scale=2", "--radius", "1",
        "--seed", "4", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    row = json.loads(out.read_text())["rows"][1]
    _, _, _, _, r, p_exp, value, theta, offset, n, seed = row
    assert p_exp == "inf" and n == 200000
    ball = core.Ball(core.point(0, 0, 0), r)
    g = domains.parse_domain("lift:phi0=sin,scale=2")
    sample = domains.surface_sample(g, domains.region_for_ball(ball), n, seed)
    z = sample.points[sample.in_ball(ball)][:, :2]
    assert len(z) > 10_000
    dist = np.abs(z @ [math.cos(theta), math.sin(theta)] - offset)
    assert float(dist.max()) == pytest.approx(value * r, rel=1e-9)
    th = np.arange(3600) * (math.pi / 3600)
    grid_width = min(float(np.ptp(z @ np.stack((np.cos(b), np.sin(b))), axis=0).min())
                     for b in np.array_split(th, 36))
    assert value * r <= 0.5 * grid_width * (1 + 1e-12)


def test_dini_summary_slopes(tmp_path):
    out = tmp_path / "dini.json"
    code = run_main([
        "dini", "--domain", "holder:H=1,tau=1", "--scales", "2^-4:2^4:1",
        "--samples", "40000", "--seed", "6", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    s = payload["summary"]
    assert 0.6 <= s["slope_below_1"] <= 1.4
    assert -1.4 <= s["slope_above_1"] <= -0.6


def test_config_file_execution(tmp_path):
    out = tmp_path / "via_config.csv"
    cfg_file = tmp_path / "exp.cfg"
    cfg = cli.ExperimentConfig(
        experiment="osc-scan", domain="slab:t>0", radius=1.0,
        samples=10_000, seed=4, out=str(out),
    )
    cfg_file.write_text(cfg.to_text())
    assert run_main(["--config", str(cfg_file)]) == 0
    assert out.exists()


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[osc-scan]\nmystery = 1\n")
    assert run_main(["--config", str(bad)]) == 2
    assert run_main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert run_main(["osc-scan", "--domain", "bogus:a=1", "--samples", "100"]) == 2
    assert run_main([]) == 2
    for raw in ("abc", "0"):
        with mock.patch.dict(os.environ, {"HEISKIT_WORKERS": raw}):
            assert run_main(["osc-scan", "--domain", "slab:t>0", "--samples", "100"]) == 2
        assert f"config error: HEISKIT_WORKERS must be a positive integer, got {raw!r}" in capsys.readouterr().err


@pytest.mark.parametrize("seed, inside", [(0, 0), (2, 1)])
def test_beta_scan_near_empty_ball_is_a_violated_invariant(tmp_path, capsys, seed, inside):
    # one surface sample point: with seed 0 it misses the ball, with seed 2
    # it is the only point in it; neither is a configuration error
    out = tmp_path / "beta.json"
    code = run_main([
        "beta-scan", "--domain", "lift:phi0=abs,scale=0.5", "--samples", "1",
        "--seed", str(seed), "--format", "json", "--out", str(out),
    ])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["passed"] is False
    assert payload["rows"] == []
    err = capsys.readouterr().err
    assert f"violated invariant: {inside} sample points in the ball" in err
    assert "config error" not in err


def test_exit_code_1_on_numerical_errors(capsys):
    # the beta sample of the enlarged ball is one point outside it
    code = run_main([
        "osc-vs-beta", "--domain", "lift:phi0=abs,scale=0.5", "--samples", "1", "--seed", "0",
    ])
    assert code == 1
    assert "numerical error: no sample points in the ball" in capsys.readouterr().err


def test_osc_vs_beta_single_point_fit_is_a_violated_invariant(tmp_path, capsys):
    # with seed 1 the one beta sample point lies in the enlarged ball: a plane
    # through it fits exactly, which is no evidence of flatness
    out = tmp_path / "ovb.json"
    code = run_main([
        "osc-vs-beta", "--domain", "lift:phi0=abs,scale=0.5", "--samples", "1", "--seed", "1",
        "--format", "json", "--out", str(out),
    ])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["summary"]["passed"] is False
    assert payload["rows"] == []
    err = capsys.readouterr().err
    assert "violated invariant: 1 sample points in the ball" in err
    assert "config error" not in err


def test_riesz_test_experiment_small(tmp_path):
    out = tmp_path / "riesz.csv"
    code = run_main([
        "riesz-test", "--domain", "flat:theta=0,offset=0", "--radius", "0.5",
        "--samples", "20000", "--seed", "7", "--eps-grid", "2^-1..2^-2",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    rows = list(csv.reader(lines[1:]))
    assert rows[0][0] == "graph"
    assert len(rows) == 1 + 10 * 2  # ten points, two eps values, one ball
