"""Tests for the annealing loop: the inner policy-gradient solvers, the
discount searches, run-state serialization, and the full outer loop on small
linear systems in both exact and sampled mode."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import pgstab.lqr
from pgstab.anneal import (
    AdamOptimizer,
    AnnealConfig,
    AnnealState,
    BudgetExceededError,
    InnerDivergedError,
    IterationRecord,
    PgConfig,
    PgObjective,
    SearchBracket,
    _ExactOracle,
    binary_search_gamma,
    config_hash,
    discount_anneal,
    load_manifest,
    policy_gradient,
    random_search_gamma,
)
from pgstab.dynamics import NonlinearSystem, jacobian_linearization, linear_as_nonlinear
from pgstab.lqr import lqr_cost, lqr_grad
from pgstab.matops import UnstableError, solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem
from pgstab.oracles import DivergedAllError, OracleConfig

SYS = LinearSystem(np.array([[1.1, 0.5], [0.0, 0.7]]), np.array([[0.0], [1.0]]))
COST = CostSpec.identity(2, 1)


def exact_objective(sys, cost, gamma):
    """Exact cost/gradient queries plus the known optimum at this discount."""
    p_star, _ = solve_dare(sys, cost, gamma)

    def eval_fn(k):
        try:
            return lqr_cost(sys, cost, k, gamma), False
        except UnstableError:
            return np.inf, True

    def grad_fn(k):
        value, capped = eval_fn(k)
        return lqr_grad(sys, cost, k, gamma), value, capped

    return PgObjective(
        grad_fn=grad_fn, eval_fn=eval_fn, optimal_cost=float(np.trace(p_star))
    )


def test_adam_first_step_has_learning_rate_magnitude():
    opt = AdamOptimizer(0.05)
    grad = np.array([3.0, -2.0, 0.5])
    step = opt.update(grad)
    # bias correction makes m_hat / sqrt(v_hat) = g / |g| on the first call
    assert np.allclose(step, 0.05 * np.sign(grad), rtol=1e-6)


def test_adam_minimizes_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    x = np.zeros(3)
    opt = AdamOptimizer(0.05)
    for _ in range(2000):
        x = x - opt.update(2.0 * (x - target))
    assert np.linalg.norm(x - target) < 1e-3


def test_gap_mode_reaches_target_gap():
    objective = exact_objective(SYS, COST, 0.5)
    cfg = PgConfig(optimizer="gd", max_steps=10_000, target_gap=0.05)
    res = policy_gradient(objective, np.zeros((1, 2)), cfg)
    assert res.costs[-1] - objective.optimal_cost <= 0.05
    assert res.steps == len(res.costs) - 1
    # backtracking only ever accepts strict improvements
    assert all(b <= a for a, b in zip(res.costs, res.costs[1:]))


def test_gap_mode_stops_immediately_at_optimum():
    gamma = 0.5
    _, k_star = solve_dare(SYS, COST, gamma)
    objective = exact_objective(SYS, COST, gamma)
    cfg = PgConfig(optimizer="gd", max_steps=100, target_gap=1e-6)
    res = policy_gradient(objective, k_star, cfg)
    assert res.steps == 0
    assert np.array_equal(res.gain, k_star)


def test_gap_mode_requires_known_optimum():
    objective = exact_objective(SYS, COST, 0.5)
    objective.optimal_cost = None
    cfg = PgConfig(optimizer="gd", max_steps=10, target_gap=1.0)
    with pytest.raises(ValueError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def test_gap_mode_rejects_infinite_start():
    # undamped cost of the zero gain is infinite: rho(A) > 1
    objective = exact_objective(SYS, COST, 1.0)
    cfg = PgConfig(optimizer="gd", max_steps=10, target_gap=1.0)
    with pytest.raises(ValueError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def test_gap_mode_budget_error():
    objective = exact_objective(SYS, COST, 0.5)
    cfg = PgConfig(optimizer="gd", max_steps=2, target_gap=1e-9)
    with pytest.raises(BudgetExceededError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def test_fixed_steps_requires_learning_rate():
    objective = exact_objective(SYS, COST, 0.5)
    cfg = PgConfig(optimizer="adam", max_steps=10, target_gap=None)
    with pytest.raises(ValueError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def quadratic_objective(target):
    def eval_fn(k):
        return float(((k - target) ** 2).sum()) + 1.0, False

    def grad_fn(k):
        value, capped = eval_fn(k)
        return 2.0 * (k - target), value, capped

    return PgObjective(grad_fn=grad_fn, eval_fn=eval_fn)


def test_fixed_steps_finds_quadratic_minimum():
    target = np.array([[0.3, -0.7]])
    objective = quadratic_objective(target)
    cfg = PgConfig(optimizer="adam", learning_rate=0.05, max_steps=400)
    res = policy_gradient(objective, np.zeros((1, 2)), cfg)
    assert res.steps == 400
    assert len(res.costs) == 400
    assert np.linalg.norm(res.gain - target) < 0.05
    value, _ = objective.eval_fn(res.gain)
    assert value == min(res.costs)


def test_fixed_steps_returns_best_measured_iterate():
    # gradient flips sign after a few calls, so later iterates walk away
    # from the minimum; the best measured one must still be returned
    target = np.array([[1.0, 0.0]])
    base = quadratic_objective(target)
    calls = {"n": 0}

    def flipping_grad(k):
        grad, value, capped = base.grad_fn(k)
        calls["n"] += 1
        return (grad if calls["n"] <= 10 else -grad), value, capped

    objective = PgObjective(grad_fn=flipping_grad, eval_fn=base.eval_fn)
    cfg = PgConfig(optimizer="gd", learning_rate=0.1, max_steps=25)
    res = policy_gradient(objective, np.zeros((1, 2)), cfg)
    value, _ = objective.eval_fn(res.gain)
    assert value == min(res.costs)
    assert value < res.costs[-1]


def test_fixed_steps_guard_trips_on_capped_streak():
    def capped_grad(k):
        return np.zeros_like(k), 1.0, True

    objective = PgObjective(grad_fn=capped_grad, eval_fn=lambda k: (1.0, True))
    cfg = PgConfig(optimizer="gd", learning_rate=0.1, max_steps=50)
    with pytest.raises(InnerDivergedError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def test_fixed_steps_guard_resets_between_bad_steps():
    calls = {"n": 0}

    def alternating_grad(k):
        calls["n"] += 1
        return np.zeros_like(k), 1.0, calls["n"] % 2 == 0

    objective = PgObjective(grad_fn=alternating_grad, eval_fn=lambda k: (1.0, False))
    cfg = PgConfig(optimizer="gd", learning_rate=0.1, max_steps=30)
    res = policy_gradient(objective, np.zeros((1, 2)), cfg)
    assert res.steps == 30


def test_fixed_steps_rejects_infinite_start():
    def bad_grad(k):
        return np.zeros_like(k), np.inf, True

    objective = PgObjective(grad_fn=bad_grad, eval_fn=lambda k: (np.inf, True))
    cfg = PgConfig(optimizer="gd", learning_rate=0.1, max_steps=10)
    with pytest.raises(ValueError):
        policy_gradient(objective, np.zeros((1, 2)), cfg)


def test_search_bracket_validation():
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=5.0, f2_bar=4.0, eps=0.1)
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=0.0, f2_bar=4.0, eps=0.1)
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=1.0, f2_bar=4.0, eps=0.0)
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=1.0, f2_bar=4.0, eps=0.1, budget=1)


def monotone_cost(gamma):
    """Increasing toy cost profile: 1 / (1 - 0.95 gamma), about 1.6 -> 20."""
    return 1.0 / (1.0 - 0.95 * gamma)


def test_binary_search_lands_in_accept_window():
    gamma_t = 0.4
    j_hat = monotone_cost(gamma_t)
    bracket = SearchBracket(
        f1_bar=2.75 * j_hat, f2_bar=7.25 * j_hat, eps=0.05, budget=60
    )
    queries = []

    def evaluator(g):
        queries.append(g)
        return monotone_cost(g)

    found = binary_search_gamma(evaluator, gamma_t, bracket)
    assert gamma_t < found < 1.0
    value = monotone_cost(found)
    assert bracket.f1_bar + bracket.eps <= value <= bracket.f2_bar + bracket.eps
    assert queries[0] == 1.0
    assert len(queries) <= bracket.budget


def test_binary_search_termination_branch_returns_one():
    bracket = SearchBracket(f1_bar=10.0, f2_bar=30.0, eps=0.1, budget=60)
    queries = []

    def evaluator(g):
        queries.append(g)
        return monotone_cost(g)

    assert binary_search_gamma(evaluator, 0.4, bracket) == 1.0
    assert queries == [1.0]


def test_binary_search_budget_error():
    # the cost jumps straight over the accept window, so bisection never lands
    bracket = SearchBracket(f1_bar=5.0, f2_bar=20.0, eps=0.1, budget=16)

    def evaluator(g):
        return 100.0 if g >= 0.5 else 1.0

    with pytest.raises(BudgetExceededError):
        binary_search_gamma(evaluator, 0.1, bracket)


def test_binary_search_rejects_bad_gamma():
    bracket = SearchBracket(f1_bar=1.0, f2_bar=2.0, eps=0.1)
    with pytest.raises(ValueError):
        binary_search_gamma(monotone_cost, 0.0, bracket)
    with pytest.raises(ValueError):
        binary_search_gamma(monotone_cost, 1.5, bracket)


def test_random_search_accepts_inside_window():
    gamma_t = 0.4
    j_hat = monotone_cost(gamma_t)
    bracket = SearchBracket(f1_bar=2.75 * j_hat, f2_bar=7.25 * j_hat, eps=0.05)
    found = random_search_gamma(
        monotone_cost, gamma_t, bracket, np.random.default_rng(3)
    )
    assert gamma_t < found < 1.0
    assert bracket.f1_bar <= monotone_cost(found) <= bracket.f2_bar
    again = random_search_gamma(
        monotone_cost, gamma_t, bracket, np.random.default_rng(3)
    )
    assert again == found


def test_random_search_termination_branch_returns_one():
    bracket = SearchBracket(f1_bar=10.0, f2_bar=30.0, eps=0.1)
    found = random_search_gamma(
        monotone_cost, 0.4, bracket, np.random.default_rng(0)
    )
    assert found == 1.0


def test_random_search_budget_error():
    bracket = SearchBracket(f1_bar=5.0, f2_bar=20.0, eps=0.1)

    def evaluator(g):
        return 100.0 if g >= 0.5 else 1.0

    with pytest.raises(BudgetExceededError):
        random_search_gamma(
            evaluator, 0.1, bracket, np.random.default_rng(0), max_iters=40
        )


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(oracle_mode="analytic")
    with pytest.raises(ValueError):
        AnnealConfig(c1=8.0, c2=2.5)
    with pytest.raises(ValueError):
        AnnealConfig(c1=0.5)
    with pytest.raises(ValueError):
        AnnealConfig(oracle_mode="sampled")


def test_pg_config_validation():
    # the inner-loop settings are refused by AnnealConfig, where they enter
    with pytest.raises(ValueError):
        AnnealConfig(pg_optimizer="sgd")
    with pytest.raises(ValueError):
        AnnealConfig(pg_steps=-1)
    with pytest.raises(ValueError):
        AnnealConfig(exact_max_steps=-1)
    with pytest.raises(ValueError):
        AnnealConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AnnealConfig(learning_rate=-0.01)


def test_config_hash_ignores_operational_fields():
    base = config_hash(AnnealConfig())
    assert config_hash(AnnealConfig(max_outer=7, out_dir="/tmp/x")) == base
    assert config_hash(AnnealConfig(seed=1)) != base
    assert config_hash(AnnealConfig(c2=7.0)) != base


def test_state_round_trips_through_json():
    record = IterationRecord(
        iteration=0,
        gamma=0.4,
        gamma_next=0.5,
        inner_steps=3,
        cost_start=9.0,
        cost_end=4.0,
        cost_next_gamma=11.0,
        optimal_cost=3.5,
        search_queries=2,
        search_transcript=[{"gamma": 1.0, "value": 50.0, "capped": True}],
        gain=[[0.1, -0.2]],
    )
    state = AnnealState(
        gamma0=0.4,
        gamma=0.5,
        iteration=1,
        gain=np.array([[0.1, -0.2]]),
        history=[record],
        query_counter=7,
        eval_queries=5,
        grad_queries=3,
    )
    back = AnnealState.from_dict(json.loads(json.dumps(state.to_dict())))
    assert back.gamma == state.gamma
    assert back.iteration == 1
    assert back.query_counter == 7
    assert np.array_equal(back.gain, state.gain)
    assert back.history[0] == record
    assert back.gammas == [0.4, 0.5]


def test_anneal_exact_stabilizes_unstable_system():
    nls = linear_as_nonlinear(SYS)
    gain, state = discount_anneal(nls)
    assert state.done
    rho = spectral_radius(SYS.closed_loop(gain))
    assert rho < 1.0
    assert state.final_spectral_radius == rho

    gammas = state.gammas
    assert gammas[0] == min(1.0, 0.9 / np.linalg.norm(SYS.A, 2) ** 2)
    assert gammas[-1] == 1.0
    assert all(b > a for a, b in zip(gammas, gammas[1:]))

    # final inner solve certifies a gap of at most d_x against the optimum
    last = state.history[-1]
    assert last.gamma == 1.0
    assert last.cost_end - last.optimal_cost <= 2.0 + 1e-9

    # intermediate discounts came from searches that respected their budget
    for rec in state.history[:-1]:
        budget = 3 * (math.ceil(4.0 * math.log(max(math.e, 8.0 * rec.cost_end))) + 10)
        assert rec.search_queries <= budget
        assert rec.search_transcript[0]["gamma"] == 1.0
        assert rec.cost_next_gamma <= 8.0 * rec.cost_end + 2.0 * 0.2 + 1e-9


def test_anneal_easy_system_goes_straight_to_undamped():
    easy = LinearSystem(0.3 * np.eye(2), np.array([[1.0], [0.0]]))
    gain, state = discount_anneal(linear_as_nonlinear(easy))
    assert state.done
    assert state.gammas == [1.0]
    assert state.outer_iterations == 1
    assert spectral_radius(easy.closed_loop(gain)) < 1.0


def test_anneal_random_search_also_works_on_linear():
    # without the declaration the system is searched as a simulator would be
    nls = replace(linear_as_nonlinear(SYS), linear=None)
    gain, state = discount_anneal(nls)
    assert state.done
    assert spectral_radius(SYS.closed_loop(gain)) < 1.0
    gammas = state.gammas
    assert gammas[-1] == 1.0
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def test_anneal_certifies_simulator_only_gain_on_its_linearization():
    # x' = A x + B u + 0.1 x^3, known only through step and step_jac
    def step(x, u):
        return x @ SYS.A.T + u @ SYS.B.T + 0.1 * x**3

    def step_jac(x, u):
        gx = SYS.A + 0.3 * x[:, None, :] ** 2 * np.eye(2)
        return step(x, u), gx, np.broadcast_to(SYS.B, (x.shape[0], 2, 1)).copy()

    cubic = NonlinearSystem(d_x=2, d_u=1, step=step, step_jac=step_jac)
    gain, state = discount_anneal(cubic)
    rho = spectral_radius(jacobian_linearization(cubic).closed_loop(gain))
    assert rho < 1.0
    assert state.final_spectral_radius == rho


def test_anneal_refuses_gain_unstable_on_linearization():
    # x' = 1.5 x / (1 + 10 x^2): rollouts settle on the fixed points
    # +-sqrt(0.05), so every sampled cost stays finite, but the origin is
    # unstable and the input does not reach it
    def step(x, u):
        return 1.5 * x / (1.0 + 10.0 * x**2) + 0.0 * u

    def step_jac(x, u):
        gx = 1.5 * (1.0 - 10.0 * x**2) / (1.0 + 10.0 * x**2) ** 2
        return step(x, u), gx[:, :, None], np.zeros((x.shape[0], 1, 1))

    saturating = NonlinearSystem(d_x=1, d_u=1, step=step, step_jac=step_jac)
    cfg = AnnealConfig(
        oracle_mode="sampled",
        oracle=OracleConfig(n_rollouts=20, horizon=50, seed=0),
        pg_steps=5,
    )
    with pytest.raises(UnstableError, match="rho=1.5"):
        discount_anneal(saturating, CostSpec.identity(1, 1), cfg)


def test_anneal_requires_unit_cost_floor():
    nls = linear_as_nonlinear(SYS)
    weak = CostSpec(0.5 * np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        discount_anneal(nls, cost=weak)


def test_anneal_budget_error_reports_iteration():
    nls = linear_as_nonlinear(SYS)
    with pytest.raises(BudgetExceededError) as excinfo:
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1))
    assert excinfo.value.anneal_iteration == 1


def test_anneal_tags_all_diverged_gradient_query_with_iteration():
    # x' = 0.5 x + 10 x^3 + u: the linearization is stable, so annealing
    # starts undamped at gamma = 1, but every rollout from radius 1 explodes
    def step(x, u):
        return 0.5 * x + 10.0 * x**3 + u

    def step_jac(x, u):
        return step(x, u), (0.5 + 30.0 * x**2)[:, :, None], np.ones((x.shape[0], 1, 1))

    cubic = NonlinearSystem(d_x=1, d_u=1, step=step, step_jac=step_jac)
    cfg = AnnealConfig(
        oracle_mode="sampled",
        oracle=OracleConfig(n_rollouts=8, horizon=50, radius=1.0, seed=0),
        pg_steps=5,
    )
    with pytest.raises(InnerDivergedError) as excinfo:
        discount_anneal(cubic, CostSpec.identity(1, 1), cfg)
    assert excinfo.value.anneal_iteration == 0
    assert isinstance(excinfo.value.__cause__, DivergedAllError)


SAMPLED_50x100 = AnnealConfig(
    oracle_mode="sampled",
    oracle=OracleConfig(n_rollouts=50, horizon=100, radius=1.0, seed=0),
    pg_steps=40,
)


@pytest.mark.parametrize(
    "cfg", [AnnealConfig(), SAMPLED_50x100], ids=["exact", "sampled"]
)
def test_anneal_manifest_resume_matches_uninterrupted_run(tmp_path, cfg):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=replace(cfg, max_outer=1, out_dir=str(out)))

    manifest = load_manifest(out / "manifest.json")
    assert manifest["config_hash"] == config_hash(cfg)
    saved = AnnealState.from_dict(manifest["state"])
    assert saved.iteration == 1
    assert not saved.done

    resumed_gain, resumed = discount_anneal(
        nls, cfg=cfg, resume_from=out / "manifest.json"
    )
    fresh_gain, fresh = discount_anneal(nls, cfg=cfg)
    assert np.array_equal(resumed_gain, fresh_gain)
    assert resumed.gammas == fresh.gammas
    assert resumed.outer_iterations == fresh.outer_iterations
    # the counts carry across the resume instead of restarting from zero
    for name in ("eval_queries", "grad_queries", "query_counter"):
        assert getattr(resumed, name) == getattr(fresh, name), name
    assert resumed.query_counter == resumed.eval_queries + resumed.grad_queries


def test_anneal_sampled_manifest_is_strict_json(tmp_path):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    out = tmp_path / "run"
    discount_anneal(
        linear_as_nonlinear(SYS), cfg=replace(SAMPLED_50x100, out_dir=str(out))
    )
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["config"]["oracle"]["cap"] == "inf"
    # frozen from before manifests were strict, so those manifests still resume
    assert manifest["config_hash"] == config_hash(SAMPLED_50x100) == "79968d05fbac4e92"


def test_anneal_resume_refuses_other_config(tmp_path):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1, out_dir=str(out)))
    with pytest.raises(ValueError, match="refusing to resume"):
        discount_anneal(
            nls, cfg=AnnealConfig(c2=7.0), resume_from=out / "manifest.json"
        )


def test_anneal_writes_manifest_and_gains_on_success(tmp_path):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    gain, state = discount_anneal(nls, cfg=AnnealConfig(out_dir=str(out)))
    manifest = load_manifest(out / "manifest.json")
    assert manifest["state"]["done"] is True
    assert np.allclose(np.array(manifest["state"]["gain"]), gain)

    saved = AnnealState.from_dict(manifest["state"])
    for f in fields(AnnealState):
        if f.name == "gain":
            assert np.array_equal(saved.gain, state.gain)
        else:
            assert getattr(saved, f.name) == getattr(state, f.name), f.name

    rows = (out / "gains.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration,gamma,k00,k01"
    assert len(rows) - 1 == state.outer_iterations
    last = rows[-1].split(",")
    assert float(last[1]) == 1.0
    assert np.allclose([float(v) for v in last[2:]], gain.reshape(-1))


def test_exact_gradient_query_solves_two_lyapunov_equations(monkeypatch):
    dlyap = pgstab.lqr.dlyap
    solves = []

    def counting_dlyap(*args, **kwargs):
        solves.append(args)
        return dlyap(*args, **kwargs)

    K = np.array([[-0.2, -0.9]])
    expected = lqr_grad(SYS, COST, K, 0.5)
    monkeypatch.setattr(pgstab.lqr, "dlyap", counting_dlyap)
    oracle = _ExactOracle(SYS, COST)
    grad, value, capped = oracle.gradient(K, 0.5)
    assert len(solves) == 2
    assert np.array_equal(grad, expected)
    assert math.isnan(value) and not capped
    assert oracle.grad_queries == 1 and oracle.eval_queries == 0


def test_anneal_sampled_mode_stabilizes_linear_system():
    nls = linear_as_nonlinear(SYS)
    oracle = OracleConfig(n_rollouts=150, horizon=200, radius=1.0, seed=0)
    cfg = AnnealConfig(
        oracle_mode="sampled",
        oracle=oracle,
        pg_steps=250,
        learning_rate=0.02,
        seed=0,
    )
    gain, state = discount_anneal(nls, cfg=cfg)
    assert state.done
    assert spectral_radius(SYS.closed_loop(gain)) < 1.0
    assert state.gammas[-1] == 1.0
    assert state.grad_queries == 250 * state.outer_iterations
    # every oracle query consumed a fresh noise substream
    assert state.query_counter == state.eval_queries + state.grad_queries
