"""End-to-end acceptance checks.

Each test exercises one published criterion at its stated tolerance and time
budget and prints a single summary line on success (run with ``pytest -s`` to
see the lines; the verbose listing gives one pass/fail line per criterion
either way).  The cart-pole annealing check (criterion 7) dominates the
runtime at roughly ten minutes.
"""

import math
import time

import numpy as np
import pytest
from reference import damp

from pgstab.anneal import discount_anneal
from pgstab.bench import (
    CartpoleBenchConfig,
    run_cartpole,
    run_lqr_baseline,
    sample_stabilizable_system,
)
from pgstab.dynamics import cartpole, linear_as_nonlinear, rollout_cost_batch
from pgstab.lqr import lqr_cost, lqr_grad, reward_shaping_counterexample
from pgstab.matops import dlyap, solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem
from pgstab.oracles import OracleConfig, eps_eval, eps_grad_sensitivity, initial_states


def report(number: int, label: str, elapsed: float, budget: float | None = None):
    suffix = f" (budget {budget:g}s)" if budget is not None else ""
    print(f"acceptance {number} ({label}): PASS in {elapsed:.2f}s{suffix}")


def test_criterion_1_discounting_equals_damping():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        sys = LinearSystem(rng.normal(size=(d, d)), rng.normal(size=(d, m)))
        k = rng.normal(size=(m, d))
        gamma = float(rng.uniform(0.05, 1.0))
        if spectral_radius(np.sqrt(gamma) * sys.closed_loop(k)) >= 0.98:
            continue
        cost = CostSpec.identity(d, m)
        j_discounted = lqr_cost(sys, cost, k, gamma)
        j_damped = lqr_cost(damp(sys, gamma), cost, k, 1.0)
        assert abs(j_discounted - j_damped) <= 1e-8 * abs(j_damped)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "discounted cost equals damped cost, 200 instances", elapsed, 1.0)


def test_criterion_2_gradient_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # analytic policy gradient against central differences of the exact cost
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        sys = LinearSystem(rng.normal(size=(d, d)), rng.normal(size=(d, m)))
        k = rng.normal(size=(m, d))
        gamma = float(rng.uniform(0.1, 1.0))
        if spectral_radius(np.sqrt(gamma) * sys.closed_loop(k)) >= 0.97:
            continue
        cost = CostSpec.identity(d, m)
        grad = lqr_grad(sys, cost, k, gamma)
        fd = np.zeros_like(grad)
        h = 1e-6
        for a in range(m):
            for b in range(d):
                e = np.zeros_like(k)
                e[a, b] = h
                fd[a, b] = (
                    lqr_cost(sys, cost, k + e, gamma)
                    - lqr_cost(sys, cost, k - e, gamma)
                ) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)
        checked += 1

    # forward-sensitivity estimate against identically-seeded differences of
    # the finite-sample cart-pole objective it differentiates
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    k = np.array([[0.8, -8.0, 3.2, -7.0]])
    cfg = OracleConfig(n_rollouts=12, horizon=120, radius=0.1, seed=17)
    gamma = 0.9

    def objective(gain):
        x0s = initial_states(cfg, sys.d_x, query_index=3)
        batch = rollout_cost_batch(sys, gain, gamma, x0s, cfg.horizon, cost)
        return sys.d_x / cfg.radius**2 * float(batch.costs.mean())

    res = eps_grad_sensitivity(sys, k, gamma, cfg, cost, query_index=3)
    fd = np.zeros_like(k)
    h = 1e-6
    for b in range(4):
        e = np.zeros_like(k)
        e[0, b] = h
        fd[0, b] = (objective(k + e) - objective(k - e)) / (2 * h)
    assert np.linalg.norm(res.gradient - fd) <= 1e-5 * np.linalg.norm(fd)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, "analytic and sampled gradients match differences", elapsed, 30.0)


@pytest.fixture(scope="module")
def linear_suite_run():
    """Ten annealing runs with exact oracles on random unstable systems."""
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0xACC,)))
    t0 = time.perf_counter()
    runs = []
    for i in range(10):
        d_x = (2, 3, 4)[i % 3]
        lin = sample_stabilizable_system(rng, d_x)
        cost = CostSpec.identity(lin.d_x, lin.d_u)
        p_star, _ = solve_dare(lin, cost, 1.0)
        gain, state = discount_anneal(linear_as_nonlinear(lin))
        runs.append((lin, cost, float(np.trace(p_star)), gain, state))
    return runs, time.perf_counter() - t0


def test_criterion_3_linear_annealing_with_exact_oracles(linear_suite_run):
    runs, elapsed = linear_suite_run
    for lin, cost, tr_p_star, gain, state in runs:
        assert spectral_radius(lin.closed_loop(gain)) < 1.0
        gap = lqr_cost(lin, cost, gain, 1.0) - tr_p_star
        assert gap <= lin.d_x + 1e-9

        gamma0 = state.gamma0
        iter_budget = 64.0 * tr_p_star**4 * math.log(1.0 / gamma0)
        assert state.outer_iterations <= max(1.0, iter_budget)

        growth_floor = (1.0 / (128.0 * tr_p_star**4) + 1.0) ** 2
        gammas = state.gammas
        for before, after in zip(gammas, gammas[1:]):
            assert after / before >= growth_floor
    assert elapsed < 300.0
    report(3, "exact-oracle annealing on 10 random systems", elapsed, 300.0)


def test_criterion_4_search_query_budget(linear_suite_run):
    runs, _ = linear_suite_run
    t0 = time.perf_counter()
    for _, _, tr_p_star, _, state in runs:
        budget = 3 * (math.ceil(4.0 * math.log(tr_p_star)) + 10)
        for rec in state.history:
            assert rec.search_queries <= budget
    report(4, "discount searches within query budget", time.perf_counter() - t0)


def test_criterion_5_reward_shaping_counterexample():
    t0 = time.perf_counter()
    gamma = 0.225
    witness = reward_shaping_counterexample(gamma)
    assert witness.beta > 0.0

    # recompute the optimal discounted gain from scratch and certify both
    # spectral radii on it
    lin = LinearSystem(np.diag([0.0, 2.0]), np.array([[1.0], [witness.beta]]))
    _, k_gamma = solve_dare(lin, CostSpec.identity(2, 1), gamma)
    assert spectral_radius(np.sqrt(gamma) * lin.closed_loop(k_gamma)) < 1.0
    assert spectral_radius(lin.closed_loop(k_gamma)) > 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "discounted-optimal gain leaves the loop unstable", elapsed, 10.0)


def test_criterion_6_cartpole_lqr_baseline_roa():
    t0 = time.perf_counter()
    record = run_lqr_baseline()
    assert 0.65 <= record["rho_roa"] <= 0.76
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, "cart-pole LQR baseline region of attraction", elapsed, 120.0)


@pytest.mark.slow
def test_criterion_7_cartpole_annealing_desk_scale():
    t0 = time.perf_counter()
    result = run_cartpole(CartpoleBenchConfig())
    (radius, roa_min, _, trials, iters_max, _, _, rho_lin_max) = result["table"][0]
    assert radius == 0.1
    assert trials == 3
    assert iters_max <= 9
    assert roa_min >= 0.5
    assert rho_lin_max < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(7, "cart-pole annealing, 3 trials at r=0.1", elapsed, 900.0)


def test_criterion_8_divergence_detection():
    t0 = time.perf_counter()
    lin = LinearSystem(np.array([[1.3, 0.2], [0.0, 1.1]]), np.array([[0.0], [1.0]]))
    sys = linear_as_nonlinear(lin)
    cost = CostSpec.identity(2, 1)
    cap = 100.0
    cfg = OracleConfig(n_rollouts=50, horizon=int(4 * cap), radius=1.0)
    gain = np.zeros((1, 2))
    hits = sum(
        eps_eval(sys, gain, 1.0, cfg, cost, query_index=i, cap=cap).capped
        for i in range(100)
    )
    assert hits >= 99
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"capped on {hits}/100 unstable-loop queries", elapsed, 10.0)


def test_criterion_9_value_matrix_decay_and_margin_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    tol = -1e-8

    def random_stable_value(rng):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d))
        a *= rng.uniform(0.3, 0.95) / spectral_radius(a)
        v = rng.normal(size=(d, d)) / np.sqrt(d)
        q = np.eye(d) + v @ v.T
        return a, dlyap(a, q)

    # decay: powers of the closed loop shrink geometrically in the metric of
    # its value matrix
    for _ in range(100):
        a, p = random_stable_value(rng)
        rate = 1.0 - 1.0 / np.linalg.norm(p, 2)
        for j in (1, 5, 20):
            aj = np.linalg.matrix_power(a, j)
            middle = aj.T @ p @ aj
            assert np.linalg.eigvalsh(middle - aj.T @ aj).min() >= tol
            assert np.linalg.eigvalsh(p * rate**j - middle).min() >= tol

    # margin: perturbations up to 1/(6||P||^2) keep the decay at half rate
    for _ in range(100):
        a, p = random_stable_value(rng)
        delta = rng.normal(size=a.shape)
        delta *= 1.0 / (6.0 * np.linalg.norm(p, 2) ** 2) / np.linalg.norm(delta, 2)
        rate = 1.0 - 1.0 / (2.0 * np.linalg.norm(p, 2))
        for j in (1, 5, 20):
            aj = np.linalg.matrix_power(a + delta, j)
            assert np.linalg.eigvalsh(p * rate**j - aj.T @ p @ aj).min() >= tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, "value-matrix decay and stability-margin bounds", elapsed, 30.0)
