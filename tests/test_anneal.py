"""Tests for the annealing loop: the inner policy-gradient solvers, the
discount searches, run-state serialization, and the full outer loop on small
linear systems in both exact and sampled mode."""

import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    binary_search_gamma_loop,
    policy_iteration_loop,
    random_search_gamma_loop,
)
from test_matops import linear_suite_systems

import pgstab.lqr
from pgstab.anneal import (
    AdamOptimizer,
    AnnealConfig,
    AnnealState,
    BudgetExceededError,
    InnerDivergedError,
    IterationRecord,
    SearchBracket,
    _ExactOracle,
    _SampledOracle,
    binary_search_gamma,
    config_hash,
    discount_anneal,
    random_search_gamma,
)
from pgstab.dynamics import NonlinearSystem, jacobian_linearization, linear_as_nonlinear
from pgstab.matops import (
    NotStabilizableError,
    UnstableError,
    solve_dare,
    spectral_radius,
)
from pgstab.model import CostSpec, LinearSystem
from pgstab.oracles import DivergedAllError, OracleConfig, eps_eval

SYS = LinearSystem(np.array([[1.1, 0.5], [0.0, 0.7]]), np.array([[0.0], [1.0]]))
COST = CostSpec.identity(2, 1)


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


# gamma = 0.8 starts the zero gain about 70 above the optimum, well outside
# the target gap d_x = 2
GAMMA_FAR = 0.8


def test_gap_mode_reaches_target_gap():
    oracle = _ExactOracle(SYS, COST, AnnealConfig())
    res = oracle.solve(np.zeros((1, 2)), GAMMA_FAR)
    assert res.costs[0] - res.optimal_cost > SYS.d_x
    assert res.cost == res.costs[-1]
    assert res.cost - res.optimal_cost <= SYS.d_x
    assert res.optimal_cost == float(np.trace(solve_dare(SYS, COST, GAMMA_FAR)[0]))
    # one cost query for the start and one per step, and no gradient query
    assert oracle.eval_queries == res.steps + 1 == len(res.costs)
    assert oracle.grad_queries == 0
    # policy iteration lowers the cost at every step
    assert all(b < a for a, b in zip(res.costs, res.costs[1:]))


def test_gap_mode_stops_immediately_at_optimum():
    gamma = 0.5
    p_star, k_star = solve_dare(SYS, COST, gamma)
    res = _ExactOracle(SYS, COST, AnnealConfig()).solve(k_star, gamma)
    assert res.steps == 0
    assert np.array_equal(res.gain, k_star)
    assert res.optimal_cost == float(np.trace(p_star))


def test_gap_mode_rejects_infinite_start():
    # undamped cost of the zero gain is infinite: rho(A) > 1
    oracle = _ExactOracle(SYS, COST, AnnealConfig())
    with pytest.raises(ValueError):
        oracle.solve(np.zeros((1, 2)), 1.0)


@pytest.mark.parametrize("budget", [0, 1])
def test_gap_mode_budget_error(budget):
    # at gamma = 0.9 this gain starts about 15 above the optimum and takes
    # two steps to the gap d_x = 2
    K = np.array([[-0.2, -0.9]])
    assert _ExactOracle(SYS, COST, AnnealConfig()).solve(K, 0.9).steps == 2
    oracle = _ExactOracle(SYS, COST, AnnealConfig(exact_max_steps=budget))
    with pytest.raises(BudgetExceededError):
        oracle.solve(K, 0.9)


@pytest.mark.parametrize("index", range(12))
def test_gap_mode_iterates_equal_the_policy_iteration_loop(monkeypatch, index):
    # scipy evaluates each iterate; on these draws the two agree to 1e-11.
    # Draw 39 is left out: there scipy's solve (no refinement step) is 2.7e-7
    # relative from a long-double doubling sum of an operator with condition
    # number 2e10, where dlyap is 2.2e-10 from it
    pytest.importorskip("scipy.linalg")
    lin = linear_suite_systems()[index]
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    solves = []
    inner = pgstab.anneal.policy_gradient

    def recording(oracle, K0, gamma):
        solves.append((np.array(K0, dtype=float), gamma, inner(oracle, K0, gamma)))
        return solves[-1][2]

    monkeypatch.setattr(pgstab.anneal, "policy_gradient", recording)
    discount_anneal(linear_as_nonlinear(lin))
    for k0, gamma, res in solves:
        gains, costs = policy_iteration_loop(
            lin, cost, k0, gamma, res.optimal_cost + lin.d_x
        )
        assert res.steps == len(costs) - 1
        assert np.allclose(res.costs, costs, rtol=1e-10, atol=0)
        assert np.linalg.norm(res.gain - gains[-1]) <= 1e-10 * np.linalg.norm(gains[-1])
        assert all(b < a for a, b in zip(res.costs, res.costs[1:]))


def previous_value_matrix(calls, P):
    """The second call answers the first call's P: a step that does not
    lower the cost."""
    return calls[0] if len(calls) == 2 else P


def refused_value_matrix(calls, P):
    """The second call raises, as ``dlyap`` does on an iterate it refuses."""
    if len(calls) == 2:
        raise UnstableError("refused")
    return P


@pytest.mark.parametrize("fault", [refused_value_matrix, previous_value_matrix])
def test_gap_mode_step_that_fails_raises_inner_diverged(monkeypatch, fault):
    # suite draw 0 takes a step in its first solve, so the second value
    # matrix is that of the first step's gain
    lin = linear_suite_systems()[0]
    _, state = discount_anneal(linear_as_nonlinear(lin))
    assert state.history[0].inner_steps >= 1
    calls = []
    inner = pgstab.anneal.value_matrix

    def faulty(*args):
        calls.append(inner(*args))
        return fault(calls, calls[-1])

    monkeypatch.setattr(pgstab.anneal, "value_matrix", faulty)
    with pytest.raises(InnerDivergedError) as excinfo:
        discount_anneal(linear_as_nonlinear(lin))
    assert excinfo.value.anneal_iteration == 0
    assert len(calls) == 2


@pytest.mark.parametrize("index", [0, 5, 13, 39])
def test_anneal_exact_counts_one_cost_query_per_step_and_search_query(index):
    # each solve queries its start and each step's gain, each search its
    # discounts; nothing else is queried and no gradient is
    _, state = discount_anneal(linear_as_nonlinear(linear_suite_systems()[index]))
    assert state.grad_queries == 0
    assert state.eval_queries == sum(
        rec.inner_steps + 1 + rec.search_queries for rec in state.history
    )


class SyntheticOracle(_SampledOracle):
    """A sampled oracle whose gradient and cost queries answer from
    ``grad_fn(K)``; its Adam rate ``0.01 / radius`` is ``learning_rate``."""

    def __init__(self, grad_fn, learning_rate: float, pg_steps: int):
        cfg = AnnealConfig(
            oracle_mode="sampled",
            oracle=OracleConfig(radius=0.01 / learning_rate),
            pg_steps=pg_steps,
        )
        super().__init__(None, None, cfg)
        self.grad_fn = grad_fn

    def gradient(self, K, gamma):
        self.grad_queries += 1
        return self.grad_fn(K)

    def evaluate(self, K, gamma, cap=np.inf):
        self.eval_queries += 1
        _, value, capped = self.grad_fn(K)
        return value, capped


def quadratic_grad(target):
    def grad_fn(k):
        return 2.0 * (k - target), quadratic_value(k, target), False

    return grad_fn


def quadratic_value(k, target):
    return float(((k - target) ** 2).sum()) + 1.0


def test_fixed_steps_finds_quadratic_minimum():
    target = np.array([[0.3, -0.7]])
    oracle = SyntheticOracle(quadratic_grad(target), learning_rate=0.05, pg_steps=400)
    res = oracle.solve(np.zeros((1, 2)), 1.0)
    assert res.steps == 400
    assert len(res.costs) == 400
    assert np.linalg.norm(res.gain - target) < 0.05
    assert quadratic_value(res.gain, target) == min(res.costs) == res.cost
    assert res.optimal_cost is None


def test_fixed_steps_returns_best_measured_iterate():
    # gradient flips sign after a few calls, so later iterates walk away
    # from the minimum; the best measured one must still be returned
    target = np.array([[1.0, 0.0]])
    base = quadratic_grad(target)
    calls = {"n": 0}

    def flipping_grad(k):
        grad, value, capped = base(k)
        calls["n"] += 1
        return (grad if calls["n"] <= 10 else -grad), value, capped

    oracle = SyntheticOracle(flipping_grad, learning_rate=0.1, pg_steps=25)
    res = oracle.solve(np.zeros((1, 2)), 1.0)
    value = quadratic_value(res.gain, target)
    assert value == min(res.costs) == res.cost
    assert value < res.costs[-1]


@pytest.mark.parametrize("pg_steps", [3, 50])
def test_fixed_steps_raises_when_no_estimate_is_usable(pg_steps):
    # every estimate is finite but capped: the solve spends all its steps,
    # then fails with none to return and makes no cost query
    def capped_grad(k):
        return np.zeros_like(k), 1.0, True

    oracle = SyntheticOracle(capped_grad, learning_rate=0.1, pg_steps=pg_steps)
    with pytest.raises(
        InnerDivergedError,
        match=rf"none of the {pg_steps} cost estimates was finite and uncapped",
    ):
        oracle.solve(np.zeros((1, 2)), 1.0)
    assert (oracle.grad_queries, oracle.eval_queries) == (pg_steps, 0)


def test_fixed_steps_returns_lowest_usable_iterate_after_capped_streak():
    # six capped estimates, below every usable one, then usable estimates that
    # fall as Adam walks toward the minimum (at this rate it cannot overshoot
    # in 20 steps): the capped ones are never kept, and the last iterate is
    # returned with one fresh cost query of it
    target = np.array([[0.3, -0.7]])
    base = quadratic_grad(target)
    calls = {"n": 0}

    def grad_fn(k):
        calls["n"] += 1
        grad, value, _ = base(k)
        capped = calls["n"] <= 6
        return grad, 0.5 if capped else value, capped

    oracle = SyntheticOracle(grad_fn, learning_rate=0.01, pg_steps=20)
    res = oracle.solve(np.zeros((1, 2)), 1.0)
    assert res.costs[:6] == [0.5] * 6
    assert all(b < a for a, b in zip(res.costs[6:], res.costs[7:]))
    assert (oracle.grad_queries, oracle.eval_queries) == (20, 1)
    assert res.cost == quadratic_value(res.gain, target) == res.costs[-1]
    assert not res.capped


def test_fixed_steps_rejects_infinite_start():
    def bad_grad(k):
        return np.zeros_like(k), np.inf, True

    oracle = SyntheticOracle(bad_grad, learning_rate=0.1, pg_steps=10)
    with pytest.raises(ValueError):
        oracle.solve(np.zeros((1, 2)), 1.0)


def test_search_bracket_validation():
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=5.0, f2_bar=4.0, eps=0.1, budget=60)
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=0.0, f2_bar=4.0, eps=0.1, budget=60)
    with pytest.raises(ValueError):
        SearchBracket(f1_bar=1.0, f2_bar=4.0, eps=0.0, budget=60)
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


def test_search_budget_error_outside_a_run_has_no_iteration():
    # only discount_anneal tags an error with its outer iteration
    bracket = SearchBracket(f1_bar=5.0, f2_bar=20.0, eps=0.1, budget=16)
    with pytest.raises(BudgetExceededError) as excinfo:
        binary_search_gamma(lambda g: 100.0 if g >= 0.5 else 1.0, 0.1, bracket)
    assert excinfo.value.anneal_iteration is None


def test_binary_search_rejects_bad_gamma():
    bracket = SearchBracket(f1_bar=1.0, f2_bar=2.0, eps=0.1, budget=60)
    with pytest.raises(ValueError):
        binary_search_gamma(monotone_cost, 0.0, bracket)
    with pytest.raises(ValueError):
        binary_search_gamma(monotone_cost, 1.5, bracket)


def test_random_search_accepts_inside_window():
    gamma_t = 0.4
    j_hat = monotone_cost(gamma_t)
    bracket = SearchBracket(
        f1_bar=2.75 * j_hat, f2_bar=7.25 * j_hat, eps=0.05, budget=501
    )
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
    bracket = SearchBracket(f1_bar=10.0, f2_bar=30.0, eps=0.1, budget=501)
    found = random_search_gamma(
        monotone_cost, 0.4, bracket, np.random.default_rng(0)
    )
    assert found == 1.0


def test_random_search_budget_error():
    bracket = SearchBracket(f1_bar=5.0, f2_bar=20.0, eps=0.1, budget=41)
    queries = []

    def evaluator(g):
        queries.append(g)
        return 100.0 if g >= 0.5 else 1.0

    with pytest.raises(BudgetExceededError, match="41 queries"):
        random_search_gamma(evaluator, 0.1, bracket, np.random.default_rng(0))
    assert len(queries) == 41


def test_binary_search_never_accepts_nan():
    # a NaN cost is an overshoot: bisection moves down and runs out of budget
    bracket = SearchBracket(f1_bar=5.0, f2_bar=20.0, eps=0.1, budget=8)
    queries = []

    def evaluator(g):
        queries.append(g)
        return 100.0 if g == 1.0 else float("nan")

    with pytest.raises(BudgetExceededError):
        binary_search_gamma(evaluator, 0.1, bracket)
    assert len(queries) == 8
    assert queries[1:] == sorted(queries[1:], reverse=True)


def cost_profile(kind: str, seed: int, j: float, bracket: SearchBracket):
    """A cost-versus-discount profile starting near ``j``: ``monotone``
    (polynomial growth), ``pole`` (grows to a pole, ``inf`` beyond it, as a
    destabilized gain does), ``bumpy`` (not monotone) or ``edges`` (jumps
    between the edges of both accept windows)."""
    r = np.random.default_rng(seed)
    if kind == "edges":
        f1, f2, eps = bracket.f1_bar, bracket.f2_bar, bracket.eps
        levels = r.permutation([j, f1, f2, f1 + eps, f2 + eps, 100.0 * j])
        return lambda g: float(levels[int(97.0 * g) % len(levels)])
    if kind == "monotone":
        power, top = r.uniform(0.5, 8.0), j * r.uniform(1.0, 40.0)
        return lambda g: j + (top - j) * g**power
    if kind == "pole":
        pole = r.uniform(0.3, 1.2)
        return lambda g: j * pole / (pole - g) if g < pole else np.inf
    amp, freq, phase = r.uniform(1.0, 12.0), r.uniform(2.0, 40.0), r.uniform(0, 6.3)
    return lambda g: j * (1.0 + amp * np.sin(freq * g + phase) ** 2)


def run_search(search, evaluator, *args):
    """The queried discounts and the outcome (a discount or the error type)."""
    queries = []

    def recorded(g):
        queries.append(g)
        return evaluator(g)

    try:
        return queries, search(recorded, *args)
    except BudgetExceededError as exc:
        return queries, type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["monotone", "pole", "bumpy", "edges"]),
    seed=st.integers(0, 2**32 - 1),
    gamma_t=st.floats(0.01, 1.0),
    j=st.floats(0.5, 50.0),
    eps=st.sampled_from([1e-3, 0.05, 0.2, 5.0]),
    budget=st.integers(2, 40),
)
def test_searches_equal_their_separate_loops(kind, seed, gamma_t, j, eps, budget):
    # the shared loop queries the same discounts and returns the same value
    # (or raises the same budget error) as the two searches written apart
    bracket = SearchBracket(
        f1_bar=2.75 * j, f2_bar=7.25 * j, eps=eps * j, budget=budget
    )
    args = (cost_profile(kind, seed, j, bracket), gamma_t, bracket)
    assert run_search(binary_search_gamma, *args) == run_search(
        binary_search_gamma_loop, *args
    )
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    assert run_search(random_search_gamma, *args, rngs[0]) == run_search(
        random_search_gamma_loop, *args, rngs[1], budget - 1
    )
    # and leaves the search rng in the same state
    assert rngs[0].random() == rngs[1].random()


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(oracle_mode="analytic")
    with pytest.raises(ValueError):
        AnnealConfig(oracle_mode="sampled")
    # a seed is a non-negative integer of either kind, and a bool is not one
    for seed in (1.5, "a", True, -1, None):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            AnnealConfig(seed=seed)
    assert AnnealConfig(seed=np.uint32(7)).seed == 7


def test_pg_config_validation():
    # the inner-loop settings are refused by AnnealConfig, where they enter
    with pytest.raises(ValueError):
        AnnealConfig(pg_optimizer="sgd")
    with pytest.raises(ValueError):
        AnnealConfig(pg_optimizer="gd")
    with pytest.raises(ValueError):
        AnnealConfig(pg_steps=-1)
    with pytest.raises(ValueError):
        AnnealConfig(exact_max_steps=-1)
    # a sampled solve of no steps has no estimate to return
    with pytest.raises(ValueError, match="pg_steps"):
        AnnealConfig(oracle_mode="sampled", oracle=OracleConfig(), pg_steps=0)


def test_config_hash_ignores_operational_fields():
    base = config_hash(AnnealConfig())
    # pinned: it moved from 9a7800351e4ca1d2 when c1, c2 and learning_rate
    # became constants, and from b2b65eb364ea8466 when the exact hash left out
    # the fields exact mode never reads, so manifests written before are refused
    assert base == "9b0c1b704c9f6080"
    assert config_hash(AnnealConfig(max_outer=7, out_dir="/tmp/x")) == base
    assert config_hash(AnnealConfig(seed=1)) != base
    assert config_hash(AnnealConfig(exact_max_steps=100)) != base
    # nor does either mode hash the fields only the other mode reads
    for unread in (dict(pg_steps=100), dict(oracle=OracleConfig(seed=5))):
        assert config_hash(AnnealConfig(**unread)) == base, unread
    sampled = config_hash(SAMPLED_50x100)
    assert config_hash(replace(SAMPLED_50x100, exact_max_steps=3)) == sampled
    assert config_hash(replace(SAMPLED_50x100, pg_steps=41)) != sampled


def test_state_round_trips_through_json():
    record = IterationRecord(
        gamma=0.4,
        gamma_next=0.5,
        inner_steps=3,
        cost_start=9.0,
        cost_end=4.0,
        optimal_cost=3.5,
        search_transcript=[
            {"gamma": 1.0, "value": 50.0, "capped": True},
            {"gamma": 0.5, "value": 11.0, "capped": False},
        ],
        gain=[[0.1, -0.2]],
    )
    state = AnnealState(gamma0=0.4, history=[record], eval_queries=5, grad_queries=3)
    back = AnnealState.from_dict(json.loads(json.dumps(asdict(state))))
    assert back == state
    assert back.history[0] == record
    assert back.gammas == [0.4, 0.5]
    assert back.outer_iterations == 1
    assert not back.done
    # the derived record field is read off the transcript
    assert record.search_queries == 2
    assert len(fields(AnnealState)) == 5 and len(fields(IterationRecord)) == 8


def test_anneal_resume_refuses_manifest_keys_the_state_does_not_have(tmp_path):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1, out_dir=str(out)))
    manifest = json.loads((out / "manifest.json").read_text())
    state = manifest["state"]
    # the layout written before the run was its history: the exact
    # configuration hash is unchanged, so the state keys must refuse it
    record = state["history"][0]
    transcript = record["search_transcript"]
    record = {**record, "iteration": 0, "search_queries": len(transcript),
              "cost_next_gamma": transcript[-1]["value"]}
    old = {**state, "history": [record], "gamma": record["gamma_next"],
           "iteration": 1, "gain": record["gain"], "done": False,
           "query_counter": state["eval_queries"] + state["grad_queries"]}
    (out / "manifest.json").write_text(json.dumps({**manifest, "seed": 0, "state": old}))
    with pytest.raises(ValueError, match="refusing to resume") as excinfo:
        discount_anneal(nls, resume_from=out / "manifest.json")
    for key in ("done", "gain", "gamma", "iteration", "query_counter"):
        assert repr(key) in str(excinfo.value)
    with pytest.raises(ValueError, match="'search_queries'"):
        AnnealState.from_dict({**state, "history": [record]})
    with pytest.raises(ValueError, match="'history'"):
        AnnealState.from_dict({k: v for k, v in state.items() if k != "history"})


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
        assert rec.search_transcript[-1]["value"] <= 8.0 * rec.cost_end + 2.0 * 0.2 + 1e-9


def test_anneal_exact_certifies_the_heavy_tailed_suite_draw():
    # instance 39 of the exact-linear suite: tr P* is about 4.4e5 and Sigma_K
    # is badly conditioned along the way, so a step length that only grows
    # by a constant factor runs out of 2,000 steps at outer iteration 8
    lin = linear_suite_systems()[39]
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    gain, state = discount_anneal(
        linear_as_nonlinear(lin), cost, AnnealConfig(exact_max_steps=2000)
    )
    assert state.done
    assert spectral_radius(lin.closed_loop(gain)) < 1.0
    p_star, _ = solve_dare(lin, cost, 1.0)
    assert pgstab.lqr.lqr_cost(lin, cost, gain, 1.0) - np.trace(p_star) <= lin.d_x


def test_anneal_exact_certifies_the_suite_draw_whose_line_search_stalled():
    # instance 751 of `pgstab anneal-linear --seed 1` (tr P* is about 2.64e6):
    # gradient steps with a Barzilai-Borwein first trial stalled here, 80
    # halvings without a fall in cost, at outer iteration 15
    lin = LinearSystem(
        np.array(
            [
                [0.2797308765525298, 0.9095698451033993, 0.332696567080702],
                [0.26254011346082784, 0.19543630781096136, 1.2169119153838395],
                [2.10930693576943, 0.14854551150938342, 0.39410442440800936],
            ]
        ),
        np.array([[0.06830435083634641], [-0.6990345601192399], [0.4987575152117558]]),
    )
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    gain, state = discount_anneal(linear_as_nonlinear(lin), cost, AnnealConfig())
    assert state.done
    assert spectral_radius(lin.closed_loop(gain)) < 1.0
    p_star, _ = solve_dare(lin, cost, 1.0)
    assert np.trace(p_star) == pytest.approx(2.64e6, rel=1e-3)
    assert pgstab.lqr.lqr_cost(lin, cost, gain, 1.0) - np.trace(p_star) <= lin.d_x


def test_anneal_easy_system_goes_straight_to_undamped():
    easy = LinearSystem(0.3 * np.eye(2), np.array([[1.0], [0.0]]))
    gain, state = discount_anneal(linear_as_nonlinear(easy))
    assert state.done
    assert state.gammas == [1.0]
    assert state.outer_iterations == 1
    assert spectral_radius(easy.closed_loop(gain)) < 1.0


def test_anneal_zero_step_budget_accepts_a_start_within_the_gap():
    # the zero gain is within d_x of the optimum at gamma = 1, so the final
    # solve needs no step and a budget of none is enough
    easy = LinearSystem(0.3 * np.eye(2), np.array([[1.0], [0.0]]))
    gain, state = discount_anneal(
        linear_as_nonlinear(easy), cfg=AnnealConfig(exact_max_steps=0)
    )
    (rec,) = state.history
    assert rec.inner_steps == 0 and state.grad_queries == 0
    assert rec.cost_end - rec.optimal_cost <= easy.d_x
    assert np.array_equal(gain, np.zeros((1, 2)))


def test_anneal_random_search_also_works_on_linear(monkeypatch):
    # without the declaration the system is searched as a simulator would be,
    # by random search with its fixed budget
    budgets = []

    def recording_search(evaluator, gamma_t, bracket, rng):
        budgets.append(bracket.budget)
        return random_search_gamma(evaluator, gamma_t, bracket, rng)

    monkeypatch.setattr(pgstab.anneal, "random_search_gamma", recording_search)
    nls = replace(linear_as_nonlinear(SYS), linear=None)
    gain, state = discount_anneal(nls)
    assert budgets and set(budgets) == {pgstab.anneal.RANDOM_SEARCH_QUERIES} == {501}
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


@pytest.mark.parametrize(
    "cfg",
    [AnnealConfig(), AnnealConfig(oracle_mode="sampled", oracle=OracleConfig())],
    ids=["exact", "sampled"],
)
def test_anneal_refuses_cost_of_other_dimensions(monkeypatch, cfg):
    def no_solve(*args):
        raise AssertionError("queried the oracle")

    monkeypatch.setattr(pgstab.anneal, "policy_gradient", no_solve)
    # refused before any query, with both shapes named: (d_x, d_u) is (2, 1)
    with pytest.raises(ValueError, match=r"\(3, 1\).*\(2, 1\)"):
        discount_anneal(linear_as_nonlinear(SYS), CostSpec.identity(3, 1), cfg)


def test_anneal_budget_error_reports_iteration():
    nls = linear_as_nonlinear(SYS)
    with pytest.raises(BudgetExceededError) as excinfo:
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1))
    assert excinfo.value.anneal_iteration == 1


def test_anneal_tags_inner_budget_error_with_iteration():
    # with no policy-iteration step allowed, the zero gain passes the solve at
    # gamma_0 (it is within d_x of the optimum there) but not the one after
    # the search
    with pytest.raises(BudgetExceededError) as excinfo:
        discount_anneal(linear_as_nonlinear(SYS), cfg=AnnealConfig(exact_max_steps=0))
    assert excinfo.value.anneal_iteration == 1


def cubic_system() -> NonlinearSystem:
    """x' = 0.5 x + 10 x^3 + u: the linearization is stable, so annealing
    starts undamped at gamma = 1, but every rollout from radius 1 explodes."""

    def step(x, u):
        return 0.5 * x + 10.0 * x**3 + u

    def step_jac(x, u):
        return step(x, u), (0.5 + 30.0 * x**2)[:, :, None], np.ones((x.shape[0], 1, 1))

    return NonlinearSystem(d_x=1, d_u=1, step=step, step_jac=step_jac)


CUBIC_CFG = AnnealConfig(
    oracle_mode="sampled",
    oracle=OracleConfig(n_rollouts=8, horizon=50, radius=1.0, seed=0),
    pg_steps=5,
)


def test_sampled_solve_turns_all_diverged_gradient_query_into_inner_diverged():
    # the gradient query that loses every rollout ends the solve at once,
    # and outside a run nothing tags the error with an iteration
    oracle = _SampledOracle(cubic_system(), CostSpec.identity(1, 1), CUBIC_CFG)
    with pytest.raises(InnerDivergedError) as excinfo:
        oracle.solve(np.zeros((1, 1)), 1.0)
    assert isinstance(excinfo.value.__cause__, DivergedAllError)
    assert excinfo.value.anneal_iteration is None
    assert (oracle.grad_queries, oracle.eval_queries) == (1, 0)


def test_anneal_tags_all_diverged_gradient_query_with_iteration():
    with pytest.raises(InnerDivergedError) as excinfo:
        discount_anneal(cubic_system(), CostSpec.identity(1, 1), CUBIC_CFG)
    assert excinfo.value.anneal_iteration == 0
    assert isinstance(excinfo.value.__cause__, DivergedAllError)


def test_anneal_tags_riccati_failure_with_iteration(monkeypatch):
    # the second solve_dare call is the exact solve of outer iteration 1
    calls = []
    inner = pgstab.anneal.solve_dare

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise NotStabilizableError("injected")
        return inner(*args)

    monkeypatch.setattr(pgstab.anneal, "solve_dare", failing)
    with pytest.raises(NotStabilizableError) as excinfo:
        discount_anneal(linear_as_nonlinear(SYS))
    assert excinfo.value.anneal_iteration == 1


SAMPLED_50x100 = AnnealConfig(
    oracle_mode="sampled",
    oracle=OracleConfig(n_rollouts=50, horizon=100, radius=1.0, seed=0),
    pg_steps=40,
)
ZEROTH_50x100 = replace(
    SAMPLED_50x100, oracle=replace(SAMPLED_50x100.oracle, estimator="zeroth")
)


@pytest.mark.parametrize(
    "fault", [{"capped": True}, {"cost": np.inf}, {"cost": np.nan}], ids=["capped", "inf", "nan"]
)
@pytest.mark.parametrize(
    "cfg, t", [(AnnealConfig(), 1), (SAMPLED_50x100, 0)], ids=["exact", "sampled"]
)
def test_anneal_tags_unusable_final_estimate_with_iteration(monkeypatch, cfg, t, fault):
    # the solve of outer iteration t, below gamma = 1, returns a gain whose
    # last cost query is capped or not finite: no search can start from it
    started = []
    inner = pgstab.anneal.policy_gradient

    def faulty(*args):
        started.append(args)
        pg = inner(*args)
        return replace(pg, **fault) if len(started) == t + 1 else pg

    monkeypatch.setattr(pgstab.anneal, "policy_gradient", faulty)
    with pytest.raises(InnerDivergedError, match="not finite after the inner solve") as excinfo:
        discount_anneal(linear_as_nonlinear(SYS), cfg=cfg)
    assert excinfo.value.anneal_iteration == t
    assert started[t][2] < 1.0


def test_anneal_tags_simulator_failure_with_iteration(monkeypatch):
    # the simulator fails on its first step in the second solve, that of
    # outer iteration 1, in a zeroth-order gradient query
    started = []
    inner = pgstab.anneal.policy_gradient

    def counting(*args):
        started.append(args)
        return inner(*args)

    monkeypatch.setattr(pgstab.anneal, "policy_gradient", counting)
    nls = linear_as_nonlinear(SYS)

    def step(x, u):
        if len(started) == 2:
            raise FloatingPointError("injected")
        return nls.step(x, u)

    with pytest.raises(FloatingPointError) as excinfo:
        discount_anneal(replace(nls, step=step), cfg=ZEROTH_50x100)
    assert excinfo.value.anneal_iteration == 1


@pytest.mark.parametrize(
    "cfg", [SAMPLED_50x100, ZEROTH_50x100], ids=["sensitivity", "zeroth"]
)
def test_anneal_sampled_counts_one_cost_query_per_solve_and_search_query(cfg):
    # each solve makes pg_steps gradient queries and one cost query of the
    # gain it returns, each search one cost query per discount it tries
    _, state = discount_anneal(linear_as_nonlinear(SYS), cfg=cfg)
    assert state.eval_queries == sum(rec.search_queries + 1 for rec in state.history)
    assert state.grad_queries == sum(rec.inner_steps for rec in state.history)


@pytest.mark.parametrize(
    "cfg", [AnnealConfig(), SAMPLED_50x100], ids=["exact", "sampled"]
)
def test_anneal_manifest_resume_matches_uninterrupted_run(tmp_path, cfg):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=replace(cfg, max_outer=1, out_dir=str(out)))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    saved = AnnealState.from_dict(manifest["state"])
    assert saved.outer_iterations == 1
    assert not saved.done

    resumed_gain, resumed = discount_anneal(
        nls, cfg=cfg, resume_from=out / "manifest.json"
    )
    fresh_gain, fresh = discount_anneal(nls, cfg=cfg)
    assert np.array_equal(resumed_gain, fresh_gain)
    assert resumed.gammas == fresh.gammas
    assert resumed.outer_iterations == fresh.outer_iterations
    # the counts carry across the resume instead of restarting from zero
    for name in ("eval_queries", "grad_queries"):
        assert getattr(resumed, name) == getattr(fresh, name), name


@pytest.mark.parametrize(
    "cfg", [AnnealConfig(), SAMPLED_50x100], ids=["exact", "sampled"]
)
def test_anneal_finished_manifest_resumes_without_queries(tmp_path, cfg):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    fresh_gain, fresh = discount_anneal(nls, cfg=replace(cfg, out_dir=str(out)))
    resumed_gain, resumed = discount_anneal(
        nls, cfg=cfg, resume_from=out / "manifest.json"
    )
    # the oracles count every query, so equal counts mean none was made
    assert np.array_equal(resumed_gain, fresh_gain)
    assert resumed.outer_iterations == fresh.outer_iterations
    assert resumed.eval_queries == fresh.eval_queries
    assert resumed.grad_queries == fresh.grad_queries
    assert resumed.final_spectral_radius == fresh.final_spectral_radius


@pytest.fixture
def solves(monkeypatch):
    """The result of every ``pgstab.anneal.policy_gradient`` call, recorded by
    replacing the module attribute, the way perfbench's tracer wraps it."""
    results = []
    inner = pgstab.anneal.policy_gradient

    def recording(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(pgstab.anneal, "policy_gradient", recording)
    return results


@pytest.mark.parametrize(
    "cfg", [AnnealConfig(), SAMPLED_50x100], ids=["exact", "sampled"]
)
def test_anneal_solves_once_per_outer_iteration_through_policy_gradient(solves, cfg):
    # perfbench counts inner steps from the results of anneal.policy_gradient
    gain, state = discount_anneal(linear_as_nonlinear(SYS), cfg=cfg)
    assert len(solves) == state.outer_iterations
    assert [pg.steps for pg in solves] == [rec.inner_steps for rec in state.history]
    assert np.array_equal(solves[-1].gain, gain)


def test_anneal_sampled_final_cost_is_a_fresh_estimate_of_the_returned_gain(
    monkeypatch,
):
    estimates = []  # every gradient query's iterate and estimate, in order
    inner = _SampledOracle.gradient

    def recording(self, K, gamma):
        grad, value, capped = inner(self, K, gamma)
        estimates.append((np.array(K), value))
        return grad, value, capped

    monkeypatch.setattr(_SampledOracle, "gradient", recording)
    nls = linear_as_nonlinear(SYS)
    gain, state = discount_anneal(nls, cfg=SAMPLED_50x100)
    # the returned gain is still the final solve's iterate with the lowest
    # estimate, and cost_end is the run's last query: a fresh estimate of it
    k_best, _ = min(estimates[-SAMPLED_50x100.pg_steps:], key=lambda e: e[1])
    assert np.array_equal(gain, k_best)
    fresh = eps_eval(
        nls, gain, 1.0, SAMPLED_50x100.oracle, COST,
        query_index=state.eval_queries + state.grad_queries - 1,
    )
    assert state.history[-1].cost_end == fresh.value


def test_anneal_sampled_manifest_is_strict_json(tmp_path):
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    out = tmp_path / "run"
    discount_anneal(
        linear_as_nonlinear(SYS), cfg=replace(SAMPLED_50x100, out_dir=str(out))
    )
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    # pinned: it moved from 79968d05fbac4e92 when the evaluation cap left
    # OracleConfig, from 0c0511624e6d615c when c1, c2 and learning_rate became
    # constants, from eb92e8f1b2c846d1 when the sampled hash left out
    # exact_max_steps, and from ddb290ddce29ceb9 when smoothing_radius became a
    # constant, so sampled manifests written before any are refused
    assert manifest["config_hash"] == config_hash(SAMPLED_50x100) == "df18dd481098d545"


def test_anneal_resume_refuses_sampled_manifest_with_old_hash(tmp_path):
    # a sampled manifest hashed with OracleConfig.cap in it (79968d05fbac4e92)
    # would resume onto other noise streams, so it must be refused
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(
            nls, cfg=replace(SAMPLED_50x100, max_outer=1, out_dir=str(out))
        )
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config_hash"] = "79968d05fbac4e92"
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="refusing to resume"):
        discount_anneal(nls, cfg=SAMPLED_50x100, resume_from=out / "manifest.json")


def test_anneal_resume_refuses_other_config(tmp_path):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1, out_dir=str(out)))
    with pytest.raises(ValueError, match="refusing to resume"):
        discount_anneal(
            nls, cfg=AnnealConfig(exact_max_steps=100), resume_from=out / "manifest.json"
        )


def test_anneal_exact_manifest_resumes_under_unread_sampled_settings(tmp_path):
    # pg_steps is read only by the sampled inner loop, so the exact run it
    # configures is the same run and its manifest resumes
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=AnnealConfig(max_outer=1, out_dir=str(out)))
    resumed_gain, resumed = discount_anneal(
        nls, cfg=AnnealConfig(pg_steps=100), resume_from=out / "manifest.json"
    )
    fresh_gain, fresh = discount_anneal(nls)
    assert np.array_equal(resumed_gain, fresh_gain)
    assert resumed.gammas == fresh.gammas


def test_anneal_manifest_under_numpy_integer_seed_resumes_under_the_int(tmp_path):
    # a numpy scalar is hashed, and written, as the number it holds
    assert config_hash(AnnealConfig(seed=np.int64(3))) == config_hash(AnnealConfig(seed=3))
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    with pytest.raises(BudgetExceededError):
        discount_anneal(nls, cfg=AnnealConfig(seed=np.int64(3), max_outer=1, out_dir=str(out)))
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 3
    resumed_gain, _ = discount_anneal(
        nls, cfg=AnnealConfig(seed=3), resume_from=out / "manifest.json"
    )
    assert np.array_equal(resumed_gain, discount_anneal(nls, cfg=AnnealConfig(seed=3))[0])


def test_anneal_writes_manifest_and_gains_on_success(tmp_path):
    nls = linear_as_nonlinear(SYS)
    out = tmp_path / "run"
    gain, state = discount_anneal(nls, cfg=AnnealConfig(out_dir=str(out)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "config_hash", "state"}
    assert manifest["state"]["history"][-1]["gamma_next"] is None
    assert np.array_equal(np.array(manifest["state"]["history"][-1]["gain"]), gain)

    saved = AnnealState.from_dict(manifest["state"])
    assert saved.done
    for f in fields(AnnealState):
        assert getattr(saved, f.name) == getattr(state, f.name), f.name

    rows = (out / "gains.csv").read_text().strip().splitlines()
    assert rows[0] == "iteration,gamma,k00,k01"
    assert len(rows) - 1 == state.outer_iterations
    last = rows[-1].split(",")
    assert float(last[1]) == 1.0
    assert np.allclose([float(v) for v in last[2:]], gain.reshape(-1))


def test_anneal_sampled_mode_stabilizes_linear_system():
    nls = linear_as_nonlinear(SYS)
    # radius 0.5 sets the Adam rate 0.01 / radius to 0.02
    oracle = OracleConfig(n_rollouts=150, horizon=200, radius=0.5, seed=0)
    cfg = AnnealConfig(oracle_mode="sampled", oracle=oracle, pg_steps=250, seed=0)
    gain, state = discount_anneal(nls, cfg=cfg)
    assert state.done
    assert spectral_radius(SYS.closed_loop(gain)) < 1.0
    assert state.gammas[-1] == 1.0
    assert state.grad_queries == 250 * state.outer_iterations
