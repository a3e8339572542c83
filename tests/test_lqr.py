"""Tests for discounted LQR values, gradients, and the shaping counterexample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import damp, lqr_grad_two_solves, state_covariance

import pgstab.lqr
from pgstab.lqr import (
    lqr_cost,
    lqr_grad,
    reward_shaping_counterexample,
    value_matrix,
)
from pgstab.matops import UnstableError, dlyap, solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem


def random_stabilized(rng, d_max=4):
    """A random system with a random gain drawn until the loop is stable."""
    while True:
        d = int(rng.integers(1, d_max + 1))
        m = int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, m))
        k = rng.normal(size=(m, d))
        sys = LinearSystem(a, b)
        if spectral_radius(sys.closed_loop(k)) < 0.98:
            return sys, k


def test_damp_scales_both_matrices():
    sys = LinearSystem(np.eye(2), np.ones((2, 1)))
    damped = damp(sys, 0.25)
    assert np.allclose(damped.A, 0.5 * np.eye(2))
    assert np.allclose(damped.B, 0.5 * np.ones((2, 1)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LinearSystem(np.ones((2, 3)), np.ones((2, 1))), "A must be square"),
        (lambda: LinearSystem(np.eye(2), np.ones((3, 1))), "B must have 2 rows"),
        (lambda: CostSpec(np.ones((2, 3)), np.eye(1)), "Q must be square"),
        (lambda: CostSpec(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])), "R must be symmetric"),
        (lambda: CostSpec(np.diag([1.0, -1.0]), np.eye(1)), "Q must be positive definite"),
        (lambda: CostSpec(np.eye(2), np.zeros((1, 1))), "R must be positive definite"),
    ],
    ids=["A-not-square", "B-rows", "Q-not-square", "R-asymmetric", "Q-indefinite", "R-singular"],
)
def test_system_and_cost_refuse_malformed_matrices(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_value_matrix_scalar_example():
    # closed loop a + bk = 0.5, value = (1 + k^2) / (1 - 0.25) with k = -0.5:
    # 1.25 / 0.75 = 5/3
    sys = LinearSystem(np.array([[1.0]]), np.array([[1.0]]))
    cost = CostSpec.identity(1, 1)
    k = np.array([[-0.5]])
    p = value_matrix(sys, cost, k)
    assert p[0, 0] == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert lqr_cost(sys, cost, k) == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_value_matrix_rejects_unstable_loop():
    sys = LinearSystem(np.array([[2.0]]), np.array([[1.0]]))
    with pytest.raises(UnstableError):
        value_matrix(sys, CostSpec.identity(1, 1), np.array([[0.0]]))


@pytest.mark.parametrize("entry", [lqr_cost, lqr_grad, value_matrix])
def test_public_entries_refuse_bad_gain_and_gamma(entry):
    sys = LinearSystem(np.array([[1.1, 0.5], [0.0, 0.7]]), np.array([[0.0], [1.0]]))
    cost = CostSpec.identity(2, 1)
    stabilizing = np.array([[-0.2, -0.9]])
    entry(sys, cost, stabilizing, 0.5)
    bad_gains = [
        np.array([[np.nan, -0.9]]),
        np.array([[-0.2, np.inf]]),
        np.zeros((2, 2)),
        np.zeros((1, 3)),
    ]
    for K in bad_gains:
        with pytest.raises(ValueError):
            entry(sys, cost, K, 0.5)
    for gamma in (0.0, -0.5, 1.5, np.nan):
        with pytest.raises(ValueError):
            entry(sys, cost, stabilizing, gamma)


def test_discount_damping_equivalence():
    # J(K | gamma, A, B) == J(K | 1, sqrt(gamma) A, sqrt(gamma) B)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 200:
        sys, k = random_stabilized(rng)
        gamma = float(rng.uniform(0.05, 1.0))
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        try:
            j_disc = lqr_cost(sys, cost, k, gamma)
        except UnstableError:
            continue
        j_damp = lqr_cost(damp(sys, gamma), cost, k, 1.0)
        assert abs(j_disc - j_damp) <= 1e-8 * abs(j_damp)
        checked += 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), d_x=st.integers(1, 5), d_u=st.integers(1, 5))
def test_discounting_is_damping_for_every_exact_quantity(seed, d_x, d_u):
    # the value matrix, cost and exact gradient at (sys, gamma) are those at
    # (damp(sys, gamma), 1); the draw fixes the damped closed loop's radius
    # in (0.05, 0.95], so the undamped loop may be unstable
    rng = np.random.default_rng(seed)
    d_u = min(d_u, d_x)
    gamma = float(rng.uniform(0.05, 1.0))
    b = rng.normal(size=(d_x, d_u))
    k = rng.normal(size=(d_u, d_x))
    a_cl = rng.normal(size=(d_x, d_x))
    a_cl *= rng.uniform(0.05, 0.95) / (np.sqrt(gamma) * spectral_radius(a_cl))
    sys = LinearSystem(a_cl - b @ k, b)
    cost = CostSpec(np.diag(rng.uniform(1.0, 3.0, d_x)), np.diag(rng.uniform(0.1, 2.0, d_u)))
    assert spectral_radius(np.sqrt(gamma) * sys.closed_loop(k)) <= 0.95 + 1e-12
    for entry in (value_matrix, lqr_cost):
        discounted = entry(sys, cost, k, gamma)
        damped = entry(damp(sys, gamma), cost, k, 1.0)
        assert np.linalg.norm(discounted - damped) <= 1e-12 * np.linalg.norm(damped)
    # near the optimum the gradient's two terms cancel, so it is compared
    # relative to its size plus that of the term 2 R K Sigma_K
    grad = lqr_grad(sys, cost, k, gamma)
    sigma = state_covariance(sys, k, gamma)
    scale = np.linalg.norm(grad) + np.linalg.norm(2.0 * cost.R @ k @ sigma)
    assert np.linalg.norm(grad - lqr_grad(damp(sys, gamma), cost, k, 1.0)) <= 1e-12 * scale


def test_cost_nondecreasing_in_gamma():
    rng = np.random.default_rng(22)
    for _ in range(50):
        sys, k = random_stabilized(rng)
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        grid = np.linspace(0.05, 1.0, 50)
        values = []
        for gamma in grid:
            try:
                values.append(lqr_cost(sys, cost, k, float(gamma)))
            except UnstableError:
                values.append(np.inf)
        diffs = np.diff(values)
        finite = np.isfinite(diffs)
        assert np.all(diffs[finite] >= -1e-10)
        # once the damped loop goes unstable it stays unstable
        infinite = ~np.isfinite(values)
        if infinite.any():
            first = int(np.argmax(infinite))
            assert infinite[first:].all()


def test_state_covariance_is_lyapunov_solution():
    rng = np.random.default_rng(23)
    sys, k = random_stabilized(rng)
    gamma = 0.9
    sigma = state_covariance(sys, k, gamma)
    a_cl = np.sqrt(gamma) * sys.closed_loop(k)
    assert np.allclose(sigma, np.eye(sys.d_x) + a_cl @ sigma @ a_cl.T, atol=1e-9)


def finite_difference_grad(sys, cost, k, gamma, eps=1e-6):
    g = np.zeros_like(k)
    for a in range(k.shape[0]):
        for b in range(k.shape[1]):
            e = np.zeros_like(k)
            e[a, b] = eps
            g[a, b] = (
                lqr_cost(sys, cost, k + e, gamma) - lqr_cost(sys, cost, k - e, gamma)
            ) / (2 * eps)
    return g


def test_lqr_grad_matches_finite_differences():
    rng = np.random.default_rng(24)
    for _ in range(100):
        sys, k = random_stabilized(rng)
        gamma = float(rng.uniform(0.2, 1.0))
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        try:
            g = lqr_grad(sys, cost, k, gamma)
        except UnstableError:
            continue
        g_fd = finite_difference_grad(sys, cost, k, gamma)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g_fd))


def test_lqr_grad_vanishes_at_optimum():
    rng = np.random.default_rng(25)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, m))
        sys = LinearSystem(a, b)
        cost = CostSpec.identity(d, m)
        gamma = float(rng.uniform(0.3, 1.0))
        try:
            _, k_star = solve_dare(sys, cost, gamma)
        except Exception:
            continue
        g = lqr_grad(sys, cost, k_star, gamma)
        assert np.linalg.norm(g) <= 1e-7 * max(1.0, lqr_cost(sys, cost, k_star, gamma))



def test_lqr_grad_solves_two_lyapunov_equations_in_one_call(monkeypatch):
    # P_K and Sigma_K come from one stacked dlyap call: one eigenvalue check and
    # one batched solve, bit for bit the two separate solves
    sys = LinearSystem(np.array([[1.1, 0.5], [0.0, 0.7]]), np.array([[0.0], [1.0]]))
    cost = CostSpec.identity(2, 1)
    K = np.array([[-0.2, -0.9]])
    expected = lqr_grad_two_solves(sys, cost, K, 0.5)
    shapes = []
    inner = pgstab.lqr.dlyap

    def counting(a_cl, sigma):
        shapes.append(a_cl.shape)
        return inner(a_cl, sigma)

    monkeypatch.setattr(pgstab.lqr, "dlyap", counting)
    grad = lqr_grad(sys, cost, K, 0.5)
    assert shapes == [(2, sys.d_x, sys.d_x)]
    assert np.array_equal(grad, expected)

def test_discount_growth_preserves_stability():
    # raising gamma by the factor (1/(8 ||P||^4) + 1)^2 keeps the current
    # gain stable and at most doubles its cost
    rng = np.random.default_rng(26)
    for _ in range(50):
        sys, k = random_stabilized(rng)
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        gamma = float(rng.uniform(0.1, 0.8))
        try:
            p = value_matrix(sys, cost, k, gamma)
        except UnstableError:
            continue
        norm_p = np.linalg.norm(p, ord=2)
        gamma_next = min(1.0, gamma * (1.0 / (8.0 * norm_p**4) + 1.0) ** 2)
        p_next = value_matrix(sys, cost, k, gamma_next)
        assert np.trace(p_next) <= 2.0 * np.trace(p) + 1e-9


def test_shaping_counterexample_witness():
    gamma = 0.225
    w = reward_shaping_counterexample(gamma)
    a = np.diag([0.0, 2.0])
    b = np.array([[1.0], [w.beta]])
    sys = LinearSystem(a, b)
    assert np.array_equal(w.system.A, a) and np.array_equal(w.system.B, b)
    a_cl = sys.closed_loop(w.gain)
    # discounted-optimal gain, stabilizing for the damped system but not the
    # undamped one
    assert spectral_radius(np.sqrt(gamma) * a_cl) < 1.0
    assert w.rho_undamped == pytest.approx(spectral_radius(a_cl))
    assert w.rho_undamped > 1.0
    # gain components stay below 1/(2 beta), the leverage the small input
    # channel would need to pull the unstable mode back
    assert np.max(np.abs(w.gain)) < 1.0 / (2.0 * w.beta)
    # the witness gain is the true discounted optimum for its system
    _, k_star = solve_dare(sys, CostSpec.identity(2, 1), gamma)
    assert np.allclose(w.gain, k_star, atol=1e-8)


# the admitted discounts (0, 1/4): both ends within 1e-12, and 39 between
SHAPING_GAMMAS = [1e-12] + [0.25 * i / 40 for i in range(1, 40)] + [0.25 - 1e-12]


@pytest.mark.parametrize("gamma", SHAPING_GAMMAS)
def test_shaping_counterexample_is_beta_one_half_for_every_gamma(gamma):
    # the closed form behind the fixed beta = 1/2: the value matrix is
    # diag(1, p) with p <= 5, the gain (0, k) with
    # k = -2 gamma p beta / (1 + gamma + gamma p beta^2), and the undamped
    # loop's radius 2 (1 + gamma) / (1 + gamma + gamma p beta^2) is in [1.6, 2]
    w = reward_shaping_counterexample(gamma)
    assert w.beta == 0.5
    assert np.array_equal(w.system.B, [[1.0], [0.5]])
    P, _ = solve_dare(w.system, CostSpec.identity(2, 1), gamma)
    p = P[1, 1]
    assert np.allclose(P, np.diag([1.0, p]), rtol=0.0, atol=1e-12)
    assert 1.0 <= p <= 5.0
    denom = 1.0 + gamma + gamma * p * w.beta**2
    assert w.gain[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert w.gain[0, 1] == pytest.approx(-2.0 * gamma * p * w.beta / denom, rel=1e-9, abs=1e-15)
    assert w.rho_undamped == pytest.approx(2.0 * (1.0 + gamma) / denom, rel=1e-12)
    assert 1.6 <= w.rho_undamped <= 2.0
    assert np.max(np.abs(w.gain)) <= 0.8 < 1.0 / (2.0 * w.beta)
    assert spectral_radius(np.sqrt(gamma) * w.system.closed_loop(w.gain)) < 1.0


def test_shaping_counterexample_rejects_large_gamma():
    with pytest.raises(ValueError):
        reward_shaping_counterexample(0.25)
    with pytest.raises(ValueError):
        reward_shaping_counterexample(0.0)
