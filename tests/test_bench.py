"""Tests for the benchmark helpers and the command-line entry points."""

import csv
import json

import numpy as np
import pytest

from pgstab import bench, cli
from pgstab.anneal import AnnealConfig
from pgstab.bench import (
    CartpoleBenchConfig,
    LinearSuiteConfig,
    estimate_roa,
    run_counterexample,
    run_linear_suite,
    run_lqr_baseline,
    sample_stabilizable_system,
)
from pgstab.cli import build_parser, main
from pgstab.dynamics import CartPoleParams, cartpole, linear_as_nonlinear
from pgstab.files import write_csv, write_json
from pgstab.matops import NotStabilizableError, solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem
from pgstab.oracles import OracleConfig


def test_roa_globally_stable_loop_reports_ceiling():
    sys = linear_as_nonlinear(LinearSystem(0.5 * np.eye(2), np.array([[1.0], [0.0]])))
    report = estimate_roa(sys, np.zeros((1, 2)))
    assert report.rho_roa == bench.ROA_CEILING
    assert report.radii.shape == (bench.ROA_DIRECTIONS,)
    assert np.all(report.radii == bench.ROA_CEILING)


def test_roa_uncontrolled_cartpole_is_empty():
    report = estimate_roa(cartpole(), np.zeros((1, 4)))
    assert report.rho_roa <= bench.ROA_TOL


def test_roa_is_deterministic_per_seed():
    sys = cartpole()
    gain = np.array([[1.0, -9.0, 3.7, -7.9]])
    a = estimate_roa(sys, gain)
    b = estimate_roa(sys, gain, seed=0)
    assert np.array_equal(a.radii, b.radii)
    assert (a.seed, a.to_dict()["seed"]) == (0, 0)
    c = estimate_roa(sys, gain, seed=1)
    assert not np.array_equal(a.directions, c.directions)


def test_write_json_writes_numpy_scalars_as_numbers(tmp_path):
    sys = linear_as_nonlinear(LinearSystem(0.5 * np.eye(2), np.array([[1.0], [0.0]])))
    write_json(tmp_path / "roa.json", estimate_roa(sys, np.zeros((1, 2)), np.int64(3)).to_dict())
    assert json.loads((tmp_path / "roa.json").read_text())["seed"] == 3
    write_json(tmp_path / "x.json", {"n": np.uint8(2), "ok": np.bool_(True), "x": np.float32(0.5)})
    assert json.loads((tmp_path / "x.json").read_text()) == {"n": 2, "ok": True, "x": 0.5}


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


def test_sample_stabilizable_system_draws_again_after_a_refusal(monkeypatch):
    # with the first draw of the stream refused, the second one comes back
    rng = np.random.default_rng(4)
    first, second = sample_stabilizable_system(rng, 3), sample_stabilizable_system(rng, 3)
    drawn = []
    inner = bench.solve_dare

    def refuse_first(sys, *args):
        drawn.append(sys)
        if len(drawn) == 1:
            raise NotStabilizableError("refused")
        return inner(sys, *args)

    monkeypatch.setattr(bench, "solve_dare", refuse_first)
    lin = sample_stabilizable_system(np.random.default_rng(4), 3)
    assert len(drawn) == 2
    assert np.array_equal(drawn[0].A, first.A)
    assert lin is drawn[1]
    assert np.array_equal(lin.A, second.A) and np.array_equal(lin.B, second.B)


def test_linear_suite_exact_rows_are_certified(tmp_path):
    cfg = LinearSuiteConfig(
        instances=3, dims=(2, 3), seed=0, oracle_mode="exact", out_dir=str(tmp_path)
    )
    rows = run_linear_suite(cfg)
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "ok"
        assert row["anneal_iteration"] is None
        assert row["gap"] <= row["d_x"] + 1e-9
        assert row["rho_closed_loop"] < 1.0
        assert row["outer_iters"] >= 1

    with open(tmp_path / "linear_suite.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 3
    assert [int(r["instance"]) for r in table] == [0, 1, 2]
    assert float(table[0]["gap"]) == rows[0]["gap"]
    assert [r["anneal_iteration"] for r in table] == ["", "", ""]

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


def test_linear_suite_records_failed_instance():
    # one outer iteration cannot reach gamma = 1, so the instance fails, and
    # the suite records it instead of stopping
    (row,) = run_linear_suite(LinearSuiteConfig(instances=1, dims=(2,), max_outer=1))
    assert row["status"] == "error:BudgetExceededError"
    for key in ("outer_iters", "eval_queries", "grad_queries", "max_search_queries"):
        assert row[key] == -1, key
    for key in ("final_cost", "gap", "rho_closed_loop"):
        assert np.isnan(row[key]), key
    assert np.isfinite(row["tr_p_star"])
    # the row keeps the outer iteration that raised
    assert row["anneal_iteration"] == 1


def test_linear_suite_records_the_iteration_of_a_failed_closing_check():
    # one Adam step per solve on 20 short rollouts reaches gamma = 1 with a
    # gain that leaves the loop unstable; the closing check raises after the
    # last outer iteration, and the row keeps that iteration
    cfg = LinearSuiteConfig(
        instances=3, oracle_mode="sampled", pg_steps=1, n_rollouts=20, horizon=20
    )
    rows = run_linear_suite(cfg)
    assert [r["status"] for r in rows] == ["error:UnstableError"] * 3
    assert [r["anneal_iteration"] for r in rows] == [15, 14, 9]


def test_linear_suite_sampled_instance_stabilizes():
    cfg = LinearSuiteConfig(
        instances=1,
        dims=(2,),
        seed=0,
        oracle_mode="sampled",
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
    assert record["beta"] == 0.5
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


def test_cli_anneal_cartpole_writes_its_reports(tmp_path, capsys):
    # one small trial: the table, its trace, the baselines and the meta file
    config = {
        "trials": 1, "n_rollouts": 200, "horizon": 200, "pg_steps": 15,
    }
    cfg_path = tmp_path / "cartpole.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["anneal-cartpole", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["out_dir"] == str(out)
    names = ("cartpole_table.csv", "trace_r0.1_trial0.csv", "baselines.csv",
             "cartpole.meta.json")
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    with open(out / "cartpole_table.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert int(row["trials"]) == 1
    # the last column is the trial's certificate on the linearization
    assert list(row)[-1] == "rho_lin_max"
    assert 0.0 < float(row["rho_lin_max"]) < 1.0
    with open(out / "trace_r0.1_trial0.csv") as fh:
        trace = list(csv.DictReader(fh))
    assert len(trace) == int(row["iters_max"])
    # the final cost is the run's own last estimate, not a second one
    assert row["final_cost_min"] == row["final_cost_max"] == trace[-1]["cost"]
    with open(out / "baselines.csv") as fh:
        assert [r["label"] for r in csv.DictReader(fh)] == ["lqr_linearization", "hinf"]
    meta = json.loads((out / "cartpole.meta.json").read_text())
    assert meta["report"] == "cartpole" and meta["config"]["trials"] == 1


# a gain of the cart-pole's shape, (d_u, d_x) = (1, 4)
ROA_GAIN = {"gain": [[0.0, 0.0, 0.0, 0.0]]}


def test_cli_roa_on_cartpole_params_matches_the_baseline(tmp_path, capsys):
    # roa builds the cart-pole from the top-level params, as baseline-lqr does,
    # so on the baseline's own gain it writes the baseline's ROA exactly
    baseline = run_lqr_baseline(CartPoleParams(m_p=0.5))
    cfg_path = tmp_path / "roa.json.in"
    cfg_path.write_text(json.dumps({"params": {"m_p": 0.5}, "gain": baseline["gain"]}))
    rc = main(["roa", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["rho_roa"] == baseline["rho_roa"]
    report = json.loads((tmp_path / "out" / "roa.json").read_text())
    assert report["rho_roa"] == baseline["rho_roa"]
    assert report["seed"] == 0 and len(report["radii"]) == bench.ROA_DIRECTIONS


@pytest.mark.parametrize("flags, seed", [([], 5), (["--seed", "2"], 2)])
def test_cli_roa_and_baseline_read_the_config_seed(
    tmp_path, capsys, monkeypatch, flags, seed
):
    # the top-level seed key seeds the ROA directions, and --seed overrides it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**ROA_GAIN, "seed": 5}))
    rc = main(["roa", "--config", str(cfg_path), "--out", str(tmp_path), *flags])
    assert rc == 0
    assert json.loads((tmp_path / "roa.json").read_text())["seed"] == seed
    seen = []

    def baseline(params=None, seed=0, out_dir=None):
        seen.append(seed)
        return {}

    accepted = cli._COMMANDS["baseline-lqr"][1]
    monkeypatch.setitem(cli._COMMANDS, "baseline-lqr", (baseline, accepted))
    cfg_path.write_text(json.dumps({"seed": 5}))
    assert main(["baseline-lqr", "--config", str(cfg_path), *flags]) == 0
    assert seen == [seed]


def test_cli_roa_without_gain_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({}))
    rc = main(["roa", "--config", str(cfg_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "gain must be a 2-D matrix" in err["message"]


@pytest.mark.parametrize(
    "config, named",
    [
        ({"gain": [[0.0, 0.0]]}, "gain must have shape (1, 4)"),
        ({"gain": [0.0, 0.0, 0.0, 0.0]}, "gain must be a 2-D matrix"),
        ({"gain": [[0.0, float("nan"), 0.0, 0.0]]}, "gain has non-finite entries"),
        # roa reads no system spec: one is refused, not ignored in favour of
        # the default cart-pole
        (
            {"system": {"kind": "cartpole"}, **ROA_GAIN},
            "unknown config key 'system'; accepted: ['gain', 'params', 'seed']",
        ),
    ],
    ids=["gain-shape", "gain-1d", "gain-nan", "system-spec"],
)
def test_cli_roa_refuses_malformed_system_or_gain(tmp_path, capsys, config, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["roa", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert named in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("roa", {"params": [1], **ROA_GAIN}, "'params'"),
        ("anneal-cartpole", {"params": [1]}, "'params'"),
        ("baseline-lqr", {"params": 5}, "'params'"),
    ],
    ids=["roa-params-list", "cartpole-params-list", "baseline-params-number"],
)
def test_cli_refuses_config_value_that_is_not_an_object(
    tmp_path, capsys, command, config, named
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"config key {named} must be a JSON object" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["counterexample", "anneal-linear"])
def test_cli_refuses_config_file_that_is_not_an_object(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([{"gamma": 0.2}]))
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": "config file must contain a JSON object"}
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_file_is_usage_error(tmp_path, capsys):
    rc = main(["counterexample", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_cli_anneal_linear_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"instances": 1, "dims": [2], "oracle_mode": "exact"}))
    rc = main(
        ["anneal-linear", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"rows": 1, "failures": 0, "out_dir": str(tmp_path / "out")}
    assert (tmp_path / "out" / "linear_suite.csv").exists()


def test_cli_refuses_invalid_loop_setting(tmp_path, capsys):
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps({"instances": 1, "oracle_mode": "sampled", "pg_steps": -1}))
    rc = main(["anneal-linear", "--config", str(cfg_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "pg_steps" in err["message"]


@pytest.mark.parametrize("field", ["n_rollouts", "horizon", "estimator"])
def test_suite_configs_refuse_oracle_settings_when_built(field):
    bad = {"n_rollouts": 0, "horizon": 0, "estimator": "spsa"}[field]
    for cls in (LinearSuiteConfig, CartpoleBenchConfig):
        with pytest.raises(ValueError, match=field):
            cls(**{field: bad})


@pytest.mark.parametrize(
    "cls, kwargs, name",
    [
        (OracleConfig, {"horizon": 2.5}, "horizon"),
        (OracleConfig, {"n_rollouts": True}, "n_rollouts"),
        (AnnealConfig, {"max_outer": 0.5}, "max_outer"),
        (AnnealConfig, {"pg_steps": -1}, "pg_steps"),
        (AnnealConfig, {"exact_max_steps": 1e3}, "exact_max_steps"),
        (LinearSuiteConfig, {"instances": np.float64(2.0)}, "instances"),
        (CartpoleBenchConfig, {"trials": True}, "trials"),
    ],
)
def test_configs_refuse_counts_that_are_not_integers(cls, kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        cls(**kwargs)


def test_configs_accept_numpy_integer_counts():
    cfg = OracleConfig(n_rollouts=np.int64(3), horizon=np.uint16(5))
    assert (cfg.n_rollouts, cfg.horizon) == (3, 5)
    assert AnnealConfig(max_outer=np.int32(0)).max_outer == 0


NAN, INF = float("nan"), float("inf")  # json writes and reads them as NaN, Infinity


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("roa", {**ROA_GAIN, "params": {"m_p": NAN}}, "m_p"),
        ("roa", {**ROA_GAIN, "params": {"ts": INF}}, "ts"),
        ("baseline-lqr", {"params": {"m_c": INF}}, "m_c"),
        ("anneal-cartpole", {"params": {"m_p": NAN}}, "m_p"),
        # every radius is checked before the first trial runs
        ("anneal-cartpole", {"radii": [0.1, -0.1]}, "radius"),
        ("anneal-cartpole", {"radii": [0.1, INF]}, "radius"),
        ("anneal-linear", {"dims": [2.5]}, "dims"),
        ("anneal-cartpole", {"radii": []}, "radii"),
        ("anneal-cartpole", {"trials": 0}, "trials"),
        ("anneal-linear", {"instances": 0}, "instances"),
        ("anneal-linear", {"dims": []}, "dims"),
        ("anneal-linear", {"oracle_mode": []}, "oracle_mode"),
        ("anneal-linear", {"oracle_mode": "analytic"}, "oracle_mode"),
        ("anneal-linear", {"instances": 1, "estimator": "spsa"}, "estimator"),
        ("anneal-cartpole", {"n_rollouts": 0}, "n_rollouts"),
        ("anneal-cartpole", {"estimator": "spsa"}, "estimator"),
        # a seed must be a non-negative integer, and a bool is not one
        ("roa", {**ROA_GAIN, "seed": 1.5}, "seed"),
        ("baseline-lqr", {"seed": True}, "seed"),
        ("anneal-linear", {"seed": "a"}, "seed"),
        ("anneal-cartpole", {"seed": -1}, "seed"),
        # a count must be an integer, refused where it enters rather than as
        # a failed row or trial
        ("anneal-linear", {"instances": 1.5}, "instances"),
        ("anneal-linear", {"oracle_mode": "sampled", "n_rollouts": 20.5}, "n_rollouts"),
        ("anneal-linear", {"pg_steps": 2.5}, "pg_steps"),
        ("anneal-linear", {"max_outer": 0.5}, "max_outer"),
        ("anneal-linear", {"horizon": 2.5}, "horizon"),
        ("anneal-linear", {"dims": [2, True]}, "dims"),
        ("anneal-cartpole", {"trials": True}, "trials"),
        ("anneal-cartpole", {"pg_steps": 1.5}, "pg_steps"),
        ("anneal-cartpole", {"max_outer": -1}, "max_outer"),
        ("anneal-cartpole", {"horizon": 2.5}, "horizon"),
        # a value of the wrong JSON type is refused where it enters, not
        # left to fail as a TypeError
        ("anneal-cartpole", {"radii": 0.1}, "radii"),
        ("anneal-cartpole", {"radii": ["a"]}, "radius"),
        ("anneal-linear", {"dims": 3}, "dims"),
        ("counterexample", {"gamma": "a"}, "gamma"),
        ("counterexample", {"gamma": None}, "gamma"),
        ("baseline-lqr", {"params": {"m_p": "a"}}, "m_p"),
        ("baseline-lqr", {"params": {"m_p": True}}, "m_p"),
    ],
)
def test_cli_refuses_invalid_config_values(tmp_path, capsys, command, config, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    # the unknown-key message lists every accepted key, so it would name the field too
    assert not err["message"].startswith("unknown config key")
    assert field in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("anneal-linear", "--oracle", "sampled"),
        ("anneal-linear", "--estimator", "zeroth"),
        ("anneal-cartpole", "--oracle", "exact"),
        ("anneal-cartpole", "--estimator", "zeroth"),
        ("roa", "--oracle", "sampled"),
        ("roa", "--estimator", "zeroth"),
        ("counterexample", "--seed", "3"),
        ("counterexample", "--oracle", "sampled"),
        ("counterexample", "--estimator", "zeroth"),
        ("baseline-lqr", "--oracle", "sampled"),
        ("baseline-lqr", "--estimator", "zeroth"),
    ],
)
def test_cli_refuses_flags_the_subcommand_does_not_read(command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main([command, flag, value])
    assert excinfo.value.code == 2


def test_cli_parses_flags_where_they_are_read():
    # --seed is registered exactly where seed is a config key
    parser = build_parser()
    for command in ("anneal-linear", "anneal-cartpole", "roa", "baseline-lqr"):
        args = parser.parse_args([command, "--seed", "3", "--out", "x", "--config", "c"])
        assert (args.seed, args.out, args.config) == (3, "x", "c")
    assert not hasattr(parser.parse_args(["counterexample"]), "seed")


def test_cli_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    def run(config, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instances": 2, "dims": [2], **config}))
        out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
        assert main(["anneal-linear", "--config", str(cfg_path), "--out", str(out), *flags]) == 0
        meta = json.loads((out / "linear_suite.meta.json").read_text())
        return (out / "linear_suite.csv").read_bytes(), meta["seed"]

    flagged = run({"seed": 5}, "--seed", "3")
    assert flagged == run({"seed": 3})
    assert flagged[1] == 3
    assert flagged[0] != run({"seed": 5})[0]


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("anneal-linear", {"instances": 1, "n_rollout": 10}, "n_rollout"),
        ("anneal-cartpole", {"trials": 1, "pg_step": 5}, "pg_step"),
        ("roa", {"gain": [[0.0, 0.0, 0.0, 0.0]], "directons": 8}, "directons"),
        ("counterexample", {"gama": 0.5}, "gama"),
        ("baseline-lqr", {"params": {"horizn": 10}}, "horizn"),
        # roa reads only the cart-pole: a linear system's matrices are refused,
        # inside params or at the top level, and so is a system spec's params
        # lifted to the top level without being unwrapped
        ("roa", {**ROA_GAIN, "params": {"A": [[2.0]], "B": [[1.0]]}}, "A"),
        ("roa", {**ROA_GAIN, "B": [[1.0]]}, "B"),
        ("roa", {**ROA_GAIN, "params": {"params": {"m_p": 0.5}}}, "params"),
        # the ROA estimate has no settings but its seed, a top-level key
        ("roa", {**ROA_GAIN, "roa": [1]}, "roa"),
        ("baseline-lqr", {"roa": 5}, "roa"),
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
