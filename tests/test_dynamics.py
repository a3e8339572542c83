"""Tests for the simulator interface, cart-pole model, and damped rollouts."""

import numpy as np
import pytest
from reference import damped_rollout

from pgstab.dynamics import (
    CartPoleParams,
    cartpole,
    jacobian_linearization,
    linear_as_nonlinear,
    rollout_cost_batch,
)
from pgstab.lqr import value_matrix
from pgstab.matops import solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem


def cartpole_step_oracle(x, u, p=None):
    """Independent Euler step: assemble M(theta) and solve the 2x2 system."""
    p = p or CartPoleParams()
    pos, th, v, om = x
    f = float(u[0])
    mass = np.array(
        [
            [p.m_p + p.m_c, -p.m_p * p.l * np.cos(th)],
            [-p.m_p * p.l * np.cos(th), p.m_p * p.l**2],
        ]
    )
    rhs = np.array(
        [
            f - p.m_p * p.l * np.sin(th) * om**2,
            p.m_p * p.g * p.l * np.sin(th),
        ]
    )
    xacc, thacc = np.linalg.solve(mass, rhs)
    return np.array([pos + p.ts * v, th + p.ts * om, v + p.ts * xacc, om + p.ts * thacc])


def test_cartpole_matches_independent_oracle():
    sys = cartpole()
    rng = np.random.default_rng(31)
    for _ in range(200):
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        assert np.allclose(sys.step(x, u), cartpole_step_oracle(x, u), atol=1e-12)


def test_cartpole_origin_is_equilibrium():
    sys = cartpole()
    assert np.allclose(sys.step(np.zeros(4), np.zeros(1)), np.zeros(4))


def test_cartpole_batch_matches_single():
    sys = cartpole()
    rng = np.random.default_rng(32)
    xs = rng.normal(size=(40, 4))
    us = rng.normal(size=(40, 1))
    batch = sys.step(xs, us)
    for i in range(40):
        assert np.array_equal(batch[i], sys.step(xs[i], us[i]))


def test_cartpole_jacobian_matches_finite_differences():
    sys = cartpole()
    rng = np.random.default_rng(33)
    eps = 1e-7
    for _ in range(50):
        x = rng.normal(size=4)
        u = rng.normal(size=1)
        _, gx, gu = sys.step_jac(x[None], u[None])
        gx, gu = gx[0], gu[0]
        gx_fd = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = eps
            gx_fd[:, j] = (sys.step(x + e, u) - sys.step(x - e, u)) / (2 * eps)
        gu_fd = ((sys.step(x, u + eps) - sys.step(x, u - eps)) / (2 * eps)).reshape(
            4, 1
        )
        assert np.linalg.norm(gx - gx_fd) <= 1e-4 * max(1.0, np.linalg.norm(gx_fd))
        assert np.linalg.norm(gu - gu_fd) <= 1e-6 * max(1.0, np.linalg.norm(gu_fd))


def test_cartpole_fused_step_jac_agrees():
    sys = cartpole()
    rng = np.random.default_rng(34)
    xs = rng.normal(size=(25, 4))
    us = rng.normal(size=(25, 1))
    xn, gx, gu = sys.step_jac(xs, us)
    assert np.array_equal(xn, sys.step(xs, us))
    for i in range(25):
        _, gx1, gu1 = sys.step_jac(xs[i : i + 1], us[i : i + 1])
        assert np.array_equal(gx[i], gx1[0])
        assert np.array_equal(gu[i], gu1[0])


def test_cartpole_linearization_frozen():
    # unity parameters, ts = 0.05: upright equilibrium is open-loop unstable
    lin = jacobian_linearization(cartpole())
    a_expected = np.eye(4)
    a_expected[0, 2] = 0.05
    a_expected[1, 3] = 0.05
    a_expected[2, 1] = 0.05
    a_expected[3, 1] = 0.10
    assert np.allclose(lin.A, a_expected, atol=1e-12)
    assert np.allclose(lin.B, np.array([[0.0], [0.0], [0.05], [0.05]]), atol=1e-12)
    assert spectral_radius(lin.A) == pytest.approx(1.0707106781186548, rel=1e-12)


def test_linear_wrapper_round_trip():
    rng = np.random.default_rng(35)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    sys = linear_as_nonlinear(LinearSystem(a, b))
    assert sys.linear is not None
    x = rng.normal(size=3)
    u = rng.normal(size=2)
    assert np.allclose(sys.step(x, u), a @ x + b @ u, atol=1e-12)
    lin = jacobian_linearization(sys)
    assert np.array_equal(lin.A, a)
    assert np.array_equal(lin.B, b)
    xs = rng.normal(size=(10, 3))
    us = rng.normal(size=(10, 2))
    xn, gx, gu = sys.step_jac(xs, us)
    assert np.array_equal(xn, sys.step(xs, us))
    assert np.array_equal(gx[3], a)
    assert np.array_equal(gu[7], b)


def test_rollout_cost_converges_to_value_matrix():
    # partial sums of undiscounted stage costs on damped linear dynamics
    # converge to x0' P x0 with P the discounted value matrix
    rng = np.random.default_rng(36)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, m))
        k = rng.normal(size=(m, d))
        lin = LinearSystem(a, b)
        gamma = float(rng.uniform(0.2, 1.0))
        if spectral_radius(np.sqrt(gamma) * lin.closed_loop(k)) > 0.9:
            continue
        cost = CostSpec.identity(d, m)
        x0 = rng.normal(size=d)
        roll = damped_rollout(linear_as_nonlinear(lin), k, gamma, x0, 400, cost)
        expected = x0 @ value_matrix(lin, cost, k, gamma) @ x0
        assert roll.cost == pytest.approx(expected, rel=1e-6)
        assert not roll.truncated
        assert not roll.diverged


def test_rollout_deterministic():
    sys = cartpole()
    k = np.array([[1.0, -8.0, 3.0, -7.0]])
    x0 = np.array([0.1, -0.05, 0.0, 0.02])
    cost = CostSpec.identity(4, 1)
    r1 = damped_rollout(sys, k, 0.9, x0, 300, cost)
    r2 = damped_rollout(sys, k, 0.9, x0, 300, cost)
    assert np.array_equal(r1.states, r2.states)
    assert np.array_equal(r1.stage_costs, r2.stage_costs)


def test_rollout_damping_equivalence_linear():
    # damped rollout of (A, B) equals undamped rollout of (sqrt(g)A, sqrt(g)B)
    rng = np.random.default_rng(37)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 1))
    k = -0.3 * np.ones((1, 3))
    gamma = 0.7
    cost = CostSpec.identity(3, 1)
    x0 = rng.normal(size=3)
    sys = linear_as_nonlinear(LinearSystem(a, b))
    damped = linear_as_nonlinear(
        LinearSystem(np.sqrt(gamma) * a, np.sqrt(gamma) * b)
    )
    r1 = damped_rollout(sys, k, gamma, x0, 60, cost)
    r2 = damped_rollout(damped, k, 1.0, x0, 60, cost)
    assert np.allclose(r1.states, r2.states, rtol=1e-12, atol=1e-12)
    assert np.allclose(r1.stage_costs, r2.stage_costs, rtol=1e-12)


def test_rollout_divergence_flags():
    sys = linear_as_nonlinear(LinearSystem(np.array([[2.0]]), np.array([[1.0]])))
    cost = CostSpec.identity(1, 1)
    roll = damped_rollout(sys, np.zeros((1, 1)), 1.0, np.array([1.0]), 100, cost)
    assert roll.diverged
    assert roll.truncated
    assert roll.horizon < 100
    # final state is the first one past the blow-up bound
    assert np.linalg.norm(roll.states[-1]) > 1e6


def test_rollout_cap_truncates_without_divergence():
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    x0 = np.array([0.0, 0.1, 0.0, 0.0])
    roll = damped_rollout(sys, np.zeros((1, 4)), 1.0, x0, 400, cost, cap=100.0)
    assert roll.truncated
    assert not roll.diverged
    assert roll.cost > 100.0
    assert roll.horizon < 400


def test_uncontrolled_cartpole_spins_without_blowup():
    # the unactuated pole swings forever: the state norm grows polynomially,
    # never crossing the blow-up bound within the horizon, while the
    # accumulated cost becomes enormous
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    x0 = np.array([0.0, 0.1, 0.0, 0.0])
    roll = damped_rollout(sys, np.zeros((1, 4)), 1.0, x0, 400, cost)
    assert not roll.diverged
    assert not roll.truncated
    assert roll.cost > 1e5
    assert np.linalg.norm(roll.states[-1]) < 1e3


def test_rollout_exponential_decay_envelope():
    # a finite-cost gain obeys ||x_t|| <= sqrt(C) exp(-t/(4C)) ||x0|| with
    # C the discounted cost of the loop
    lin = LinearSystem(np.array([[1.05, 0.1], [0.0, 0.95]]), np.eye(2))
    cost = CostSpec.identity(2, 2)
    _, k = solve_dare(lin, cost)
    c_j = float(np.trace(value_matrix(lin, cost, k)))
    x0 = np.array([0.6, -0.8])
    roll = damped_rollout(linear_as_nonlinear(lin), k, 1.0, x0, 200, cost)
    norms = np.linalg.norm(roll.states, axis=1)
    t = np.arange(len(norms))
    envelope = np.sqrt(c_j) * np.exp(-t / (4.0 * c_j)) * np.linalg.norm(x0)
    assert np.all(norms <= envelope + 1e-12)


def test_rollout_zero_horizon():
    sys = cartpole()
    roll = damped_rollout(
        sys, np.zeros((1, 4)), 1.0, np.ones(4), 0, CostSpec.identity(4, 1)
    )
    assert roll.cost == 0.0
    assert roll.states.shape == (1, 4)
    assert roll.inputs.shape == (0, 1)


def test_rollout_rejects_bad_gamma():
    sys = cartpole()
    with pytest.raises(ValueError):
        damped_rollout(sys, np.zeros((1, 4)), 0.0, np.ones(4), 5, CostSpec.identity(4, 1))
    with pytest.raises(ValueError):
        damped_rollout(sys, np.zeros((1, 4)), 1.2, np.ones(4), 5, CostSpec.identity(4, 1))


def test_batch_rollout_matches_single():
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    k = np.array([[0.5, -6.0, 2.0, -5.0]])
    rng = np.random.default_rng(38)
    # mix of converging, slowly-diverging, and capped rollouts
    x0s = np.vstack(
        [0.05 * rng.normal(size=(8, 4)), 2.0 * rng.normal(size=(8, 4))]
    )
    gamma = 0.95
    batch = rollout_cost_batch(sys, k, gamma, x0s, 250, cost, rollout_cap=500.0)
    for i in range(x0s.shape[0]):
        single = damped_rollout(sys, k, gamma, x0s[i], 250, cost, cap=500.0)
        assert batch.costs[i] == pytest.approx(single.cost, rel=1e-12, abs=1e-12)
        assert batch.steps[i] == single.horizon
        assert bool(batch.diverged[i]) == single.diverged
        assert bool(batch.capped[i]) == (single.truncated and not single.diverged)


def test_batch_rollout_divergence_column():
    lin = linear_as_nonlinear(
        LinearSystem(np.diag([3.0, 0.5]), np.array([[0.0], [1.0]]))
    )
    cost = CostSpec.identity(2, 1)
    x0s = np.array([[1.0, 0.0], [0.0, 1.0]])
    batch = rollout_cost_batch(lin, np.zeros((1, 2)), 1.0, x0s, 80, cost)
    assert batch.diverged[0]
    assert not batch.diverged[1]
    assert batch.steps[0] < 80
    assert batch.steps[1] == 80
