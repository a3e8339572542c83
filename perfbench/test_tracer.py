"""Checks of the benchmark's tracer and workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pgstab  # noqa: E402
import pgstab.cli  # noqa: E402,F401 - its bindings must be wrapped too
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from pgstab import model  # noqa: E402

# Every binding the package makes with ``from .x import y``, per function.
EXPECTED_BINDINGS = {
    "dlyap": ("matops", "lqr"),
    "solve_dare": ("matops", "lqr", "anneal", "bench"),
    "spectral_radius": ("matops", "lqr", "anneal", "bench"),
    "lqr_cost": ("lqr", "anneal", "bench"),
    "rollout_cost_batch": ("dynamics", "oracles"),
    "initial_states": ("oracles",),
}


def _bindings():
    return {
        (m.__name__, attr): value
        for m in tracing.pgstab_modules()
        for attr, value in vars(m).items()
        if callable(value)
    }


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    stage = model.CostSpec.stage
    originals = tracing.traced_originals()
    t = tracing.Tracer()
    t.install()
    try:
        during = _bindings()
        for key, value in during.items():
            hit = originals.get(id(value))
            assert hit is None or hit[0] is not value, f"{key} left unwrapped"
        for fn, modules in EXPECTED_BINDINGS.items():
            for mod in modules:
                key = (f"pgstab.{mod}", fn)
                assert during[key] is not before[key]
                assert during[key].__wrapped__ is before[key]
        assert model.CostSpec.stage is not stage
        wrapped = [k for k in before if during[k] is not before[k]]
        assert ("pgstab", "discount_anneal") not in wrapped
        assert ("pgstab.cli", "estimate_roa") in wrapped
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert model.CostSpec.stage is stage


def _small_exact(seed=0, count=4):
    return workloads._draw_linear(seed, count, workloads._exact_cfg)


def _traced_pass(instances):
    t = tracing.Tracer()
    t.install()
    try:
        outcomes = run.run_pass(workloads, instances, t)
    finally:
        t.uninstall()
    return t, outcomes


def test_traced_exact_pass_is_bit_identical_and_isolated():
    instances = _small_exact()
    plain = run.run_pass(workloads, instances)
    t, traced = _traced_pass(instances)
    assert run.fingerprints(traced) == run.fingerprints(plain)
    assert all(o.certified for o in plain)
    layers = t.layer_metrics()
    assert layers["matops.dlyap.calls"] > 0
    assert layers["lqr.lqr_grad.calls"] == sum(o.grad_queries for o in plain)
    assert run.isolation_problems(layers, workloads.WORKLOADS["exact-linear"]) == []
    for name in tracing.LAYERS:
        assert 0.0 <= layers[f"{name}.self_s"] <= layers[f"{name}.s"] + 1e-12


def test_traced_sampled_pass_counts_rows_and_queries():
    lin = pgstab.LinearSystem(np.array([[1.1, 0.5], [0.0, 0.7]]), np.array([[0.0], [1.0]]))
    cfg = pgstab.AnnealConfig(
        oracle_mode="sampled",
        seed=3,
        oracle=pgstab.OracleConfig(n_rollouts=20, horizon=30, radius=1.0, seed=3, estimator="zeroth"),
        pg_steps=10,
    )
    inst = workloads.Instance(
        index=0,
        system=pgstab.linear_as_nonlinear(lin),
        cost=model.CostSpec.identity(2, 1),
        cfg=cfg,
        lin=lin,
        declared_linear=True,
        tr_p_star=float(np.trace(pgstab.solve_dare(lin, model.CostSpec.identity(2, 1))[0])),
    )
    plain = run.run_pass(workloads, [inst])
    t, traced = _traced_pass([inst])
    assert run.fingerprints(traced) == run.fingerprints(plain)
    layers = t.layer_metrics()
    o = plain[0]
    assert layers["oracles.eps_grad_zeroth_order.calls"] == o.grad_queries
    assert layers["oracles.eps_eval.calls"] == o.eval_queries
    assert run.isolation_problems(layers, workloads.WORKLOADS["zeroth-linear"]) == []
    assert layers["dynamics.step.calls"] == layers["model.CostSpec.stage.calls"]
    assert layers["dynamics.rollout_cost_batch.row_steps"] == layers["dynamics.step.rows"]
    searched = layers["anneal.search.queries"]
    assert 0 < searched <= o.eval_queries


def test_workload_draws_match_the_linear_suite_stream():
    from pgstab.bench import LinearSuiteConfig, run_linear_suite

    rows = run_linear_suite(LinearSuiteConfig(instances=3, seed=workloads.SYSTEMS_SEED))
    instances = _small_exact(seed=5, count=3)
    assert [r["tr_p_star"] for r in rows] == [i.tr_p_star for i in instances]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    gated = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert gated == {k: run.END_TO_END[k] for k in run.GATED}
    layer_names = [m["name"] for m in spec["per_layer"]]
    expected = list(tracing.Tracer().layer_metrics()) + ["trace.overhead"]
    assert sorted(layer_names) == sorted(expected)
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_unknown_workload_is_refused():
    assert run.main(["--workload", "nope", "--seed", "0"]) == 2


def test_traced_cartpole_pass_is_bit_identical_and_isolated():
    inst = workloads.setup_cartpole(0)[0]
    inst.cfg = replace(
        inst.cfg,
        oracle=replace(inst.cfg.oracle, n_rollouts=40, horizon=40),
        pg_steps=2,
        max_outer=2,
    )
    plain = run.run_pass(workloads, [inst])
    t, traced = _traced_pass([inst])
    assert run.fingerprints(traced) == run.fingerprints(plain)
    layers = t.layer_metrics()
    assert layers["oracles.eps_grad_sensitivity.calls"] > 0
    assert layers["dynamics.step_jac.calls"] > 0
    assert run.isolation_problems(layers, workloads.WORKLOADS["cartpole"]) == []


def test_a_call_into_a_layer_the_workload_leaves_alone_is_a_problem():
    layers = dict.fromkeys(tracing.Tracer().layer_metrics(), 0)
    layers["lqr.lqr_grad.calls"] = 3
    assert run.isolation_problems(layers, workloads.WORKLOADS["zeroth-linear"]) == []
    assert len(run.isolation_problems(layers, workloads.WORKLOADS["cartpole"])) == 1


def test_host_sampler_leaves_results_alone_and_its_time_out():
    import signal

    import hostspeed

    instances = _small_exact(count=3)
    plain = run.run_pass(workloads, instances)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period_s=0.002) as sampler:
        sampled = run.run_pass(workloads, instances, sampler=sampler)
    assert signal.getsignal(signal.SIGALRM) is before
    assert run.fingerprints(sampled) == run.fingerprints(plain)
    assert sampler.samples and sampler.busy_s >= sum(sampler.samples)
    assert all(o.seconds > 0 for o in sampled)
    assert sampler.scale > 0
