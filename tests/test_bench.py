"""Tests for the benchmark helpers and the command-line entry points."""

import csv
import json

import numpy as np
import pytest

from pgstab.bench import (
    LinearSuiteConfig,
    RoaConfig,
    estimate_roa,
    run_counterexample,
    run_linear_suite,
    run_lqr_baseline,
    sample_stabilizable_system,
    write_csv,
)
from pgstab.cli import main
from pgstab.dynamics import cartpole, linear_as_nonlinear
from pgstab.matops import solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem

SMALL_ROA = RoaConfig(directions=16, horizon=300, tol=1e-2, seed=0)


def test_roa_globally_stable_loop_reports_ceiling():
    sys = linear_as_nonlinear(LinearSystem(0.5 * np.eye(2), np.array([[1.0], [0.0]])))
    report = estimate_roa(sys, np.zeros((1, 2)), SMALL_ROA)
    assert report.rho_roa == SMALL_ROA.ceiling
    assert np.all(report.radii == SMALL_ROA.ceiling)


def test_roa_uncontrolled_cartpole_is_empty():
    report = estimate_roa(cartpole(), np.zeros((1, 4)), SMALL_ROA)
    assert report.rho_roa <= SMALL_ROA.tol


def test_roa_is_deterministic_per_seed():
    sys = cartpole()
    gain = np.array([[1.0, -9.0, 3.7, -7.9]])
    a = estimate_roa(sys, gain, SMALL_ROA)
    b = estimate_roa(sys, gain, SMALL_ROA)
    assert np.array_equal(a.radii, b.radii)
    c = estimate_roa(sys, gain, RoaConfig(directions=16, horizon=300, tol=1e-2, seed=1))
    assert not np.array_equal(a.directions, c.directions)


def test_write_csv_round_trips_floats(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[np.float64(0.1), 0.2, 3, "label"], [1.0 / 3.0, np.float64(2.0) ** -52, 0, "x"]]
    write_csv(path, ["a", "b", "n", "tag"], rows)
    with open(path) as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["a", "b", "n", "tag"]
    for given, parsed in zip(rows, back[1:]):
        assert float(parsed[0]) == float(given[0])
        assert float(parsed[1]) == float(given[1])
        assert int(parsed[2]) == given[2]
        assert parsed[3] == given[3]


def test_sample_stabilizable_system_respects_radius_band():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        lin = sample_stabilizable_system(rng, d)
        rho = spectral_radius(lin.A)
        assert 1.0 < rho <= 2.0
        p_star, _ = solve_dare(lin, CostSpec.identity(lin.d_x, lin.d_u), 1.0)
        assert np.isfinite(np.trace(p_star))


def test_linear_suite_exact_rows_are_certified(tmp_path):
    cfg = LinearSuiteConfig(
        instances=3, dims=(2, 3), seed=0, modes=("exact",), out_dir=str(tmp_path)
    )
    rows = run_linear_suite(cfg)
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "ok"
        assert row["gap"] <= row["d_x"] + 1e-9
        assert row["rho_closed_loop"] < 1.0
        assert row["outer_iters"] >= 1

    with open(tmp_path / "linear_suite.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 3
    assert [int(r["instance"]) for r in table] == [0, 1, 2]
    assert float(table[0]["gap"]) == rows[0]["gap"]

    meta = json.loads((tmp_path / "linear_suite.meta.json").read_text())
    assert meta["report"] == "linear_suite"
    assert meta["seed"] == 0
    assert len(meta["config_hash"]) == 16


def test_linear_suite_meta_hash_is_deterministic(tmp_path):
    cfg = LinearSuiteConfig(instances=1, dims=(2,), seed=3)
    a, b = tmp_path / "a", tmp_path / "b"
    run_linear_suite(LinearSuiteConfig(**{**cfg.__dict__, "out_dir": str(a)}))
    run_linear_suite(LinearSuiteConfig(**{**cfg.__dict__, "out_dir": str(b)}))
    ha = json.loads((a / "linear_suite.meta.json").read_text())["config_hash"]
    hb = json.loads((b / "linear_suite.meta.json").read_text())["config_hash"]
    assert ha == hb


def test_linear_suite_sampled_instance_stabilizes():
    cfg = LinearSuiteConfig(
        instances=1,
        dims=(2,),
        seed=0,
        modes=("sampled",),
        n_rollouts=150,
        horizon=150,
        pg_steps=120,
    )
    row = run_linear_suite(cfg)[0]
    assert row["status"] == "ok"
    assert row["rho_closed_loop"] < 1.0
    assert row["grad_queries"] > 0


def test_counterexample_certificates(tmp_path):
    record = run_counterexample(out_dir=str(tmp_path))
    assert record["gamma"] == 0.225
    assert record["beta"] > 0.0
    assert record["rho_damped"] < 1.0
    assert record["rho_undamped"] > 1.0
    on_disk = json.loads((tmp_path / "counterexample.json").read_text())
    assert on_disk == record


def test_lqr_baseline_anchor(tmp_path):
    record = run_lqr_baseline(out_dir=str(tmp_path))
    assert record["rho_closed_loop_linearization"] < 1.0
    assert 0.65 <= record["rho_roa"] <= 0.76
    # frozen value for the default seed; the bisection grid step is ~7e-4,
    # so any behavior change moves the answer far beyond this tolerance
    assert record["rho_roa"] == pytest.approx(0.711181640625, abs=1e-6)
    on_disk = json.loads((tmp_path / "lqr_baseline.json").read_text())
    assert on_disk["rho_roa"] == record["rho_roa"]


def test_cli_counterexample(tmp_path, capsys):
    rc = main(["counterexample", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["beta"] > 0.0
    assert (tmp_path / "counterexample.json").exists()


def test_cli_roa_on_declared_linear_system(tmp_path, capsys):
    config = {
        "system": {"kind": "linear", "A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]]},
        "gain": [[0.0, 0.0]],
        "roa": {"directions": 8, "horizon": 100, "tol": 0.01},
    }
    cfg_path = tmp_path / "roa.json.in"
    cfg_path.write_text(json.dumps(config))
    rc = main(["roa", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rho_roa"] == 3.0
    report = json.loads((tmp_path / "out" / "roa.json").read_text())
    assert report["rho_roa"] == 3.0
    assert len(report["radii"]) == 8


def test_cli_roa_without_gain_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"system": {"kind": "cartpole"}}))
    rc = main(["roa", "--config", str(cfg_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_cli_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["counterexample", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_cli_anneal_linear_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"instances": 1, "dims": [2], "modes": ["exact"]}))
    rc = main(
        ["anneal-linear", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"rows": 1, "failures": 0, "out_dir": str(tmp_path / "out")}
    assert (tmp_path / "out" / "linear_suite.csv").exists()


def test_cli_cartpole_rejects_exact_oracle(capsys):
    rc = main(["anneal-cartpole", "--oracle", "exact"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("anneal-linear", {"instances": 1, "n_rollout": 10}, "n_rollout"),
        ("anneal-cartpole", {"trials": 1, "pg_step": 5}, "pg_step"),
        ("roa", {"gain": [[0.0, 0.0, 0.0, 0.0]], "directons": 8}, "directons"),
        ("counterexample", {"gama": 0.5}, "gama"),
        ("baseline-lqr", {"roa": {"horizn": 10}}, "horizn"),
    ],
)
def test_cli_refuses_unknown_config_keys(tmp_path, capsys, command, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert repr(key) in err["message"]
    assert not (tmp_path / "out").exists()
