"""Tests for Monte-Carlo cost/gradient queries and their seeding contract."""

import dataclasses

import numpy as np
import pytest
from reference import (
    initial_states_loop,
    sensitivity_gradient_closed_loop,
    sphere_sample,
    two_point_gradient,
    zeroth_order_draws_loop,
)

from pgstab import oracles
from pgstab.dynamics import NonlinearSystem, cartpole, linear_as_nonlinear, rollout_cost_batch
from pgstab.lqr import lqr_cost, lqr_grad
from pgstab.matops import solve_dare, spectral_radius
from pgstab.model import CostSpec, LinearSystem
from pgstab.oracles import (
    DivergedAllError,
    OracleConfig,
    eps_eval,
    eps_grad_sensitivity,
    eps_grad_zeroth_order,
    initial_states,
)

SYS = LinearSystem(np.array([[1.1, 0.3], [0.0, 0.9]]), np.array([[0.0], [1.0]]))
K_STAB = np.array([[-0.45, -0.9]])
COST2 = CostSpec.identity(2, 1)


def truncated_value(sys, cost, k, gamma, horizon):
    """Analytic H-step truncation of the discounted cost from identity starts."""
    a_cl = np.sqrt(gamma) * sys.closed_loop(k)
    stage = cost.Q + k.T @ cost.R @ k
    p, term = np.zeros_like(stage), np.eye(sys.d_x)
    for _ in range(horizon):
        p += term.T @ stage @ term
        term = a_cl @ term
    return float(np.trace(p))


def test_sphere_sample_radius_and_reproducibility():
    rng = np.random.default_rng(1)
    for d in (1, 2, 5):
        x = sphere_sample(rng, d, 3.0)
        assert np.linalg.norm(x) == pytest.approx(3.0, rel=1e-12)
    a = sphere_sample(np.random.default_rng(9), 4, 1.0)
    b = sphere_sample(np.random.default_rng(9), 4, 1.0)
    assert np.array_equal(a, b)


def test_initial_states_substream_contract():
    # adding rollouts must not change the states of existing ones, and
    # distinct query indices must give fresh draws
    cfg5 = OracleConfig(n_rollouts=5, seed=3)
    cfg10 = OracleConfig(n_rollouts=10, seed=3)
    x5 = initial_states(cfg5, 3, query_index=4)
    x10 = initial_states(cfg10, 3, query_index=4)
    assert np.array_equal(x10[:5], x5)
    assert not np.array_equal(
        initial_states(cfg5, 3, query_index=5), x5
    )
    assert np.allclose(np.linalg.norm(x10, axis=1), cfg10.radius)


@pytest.mark.parametrize("d_x", [1, 2, 4, 7])
def test_initial_states_equal_per_rollout_loop(d_x):
    for seed, q, n, radius in ((0, 0, 1, 1.0), (3, 4, 57, 0.1), (2**40 + 9, 2**33, 300, 2.5)):
        cfg = OracleConfig(n_rollouts=n, seed=seed, radius=radius)
        assert np.array_equal(
            initial_states(cfg, d_x, q), initial_states_loop(cfg, d_x, q)
        )


@pytest.mark.parametrize("k_shape", [(1, 1), (1, 4), (2, 3)])
def test_zeroth_order_draws_equal_per_rollout_loop(monkeypatch, k_shape):
    # the gains and starts handed to the rollout batch are K +- r_s U and the
    # sphere points of the reference loop, bit for bit
    d_u, d_x = k_shape
    sys = linear_as_nonlinear(
        LinearSystem(0.5 * np.eye(d_x), np.ones((d_x, d_u)))
    )
    k = np.linspace(-0.2, 0.1, d_u * d_x).reshape(k_shape)
    cfg = OracleConfig(
        n_rollouts=33, horizon=3, radius=0.7, seed=12, estimator="zeroth",
    )
    seen = {}

    def recording_batch(sys, gains, gamma, x0s, *args, **kwargs):
        seen.update(gains=gains, x0s=x0s)
        return rollout_cost_batch(sys, gains, gamma, x0s, *args, **kwargs)

    monkeypatch.setattr(oracles, "rollout_cost_batch", recording_batch)
    eps_grad_zeroth_order(sys, k, 0.9, cfg, CostSpec.identity(d_x, d_u), 6)
    dirs, starts = zeroth_order_draws_loop(cfg, k_shape, d_x, 6)
    r_s = oracles.SMOOTHING_RADIUS
    assert np.array_equal(
        seen["gains"], np.concatenate([k + r_s * dirs, k - r_s * dirs])
    )
    assert np.array_equal(seen["x0s"], np.vstack([starts, starts]))


def test_zeroth_order_draws_are_prefix_stable(monkeypatch):
    # adding directions must not change the gains and starts of existing ones:
    # each half of a 5-direction query is the first 5 rows of that half of a
    # 10-direction query at the same (seed, query_index)
    sys = linear_as_nonlinear(SYS)
    seen = {}

    def recording_batch(sys, gains, gamma, x0s, *args, **kwargs):
        seen[gains.shape[0] // 2] = (gains, x0s)
        return rollout_cost_batch(sys, gains, gamma, x0s, *args, **kwargs)

    monkeypatch.setattr(oracles, "rollout_cost_batch", recording_batch)
    for n in (5, 10):
        cfg = OracleConfig(n_rollouts=n, horizon=3, seed=7, estimator="zeroth")
        eps_grad_zeroth_order(sys, K_STAB, 0.9, cfg, COST2, query_index=2)
    for short, long in zip(seen[5], seen[10]):
        assert np.array_equal(short[:5], long[:5])  # the + half
        assert np.array_equal(short[5:], long[10:15])  # the - half


def test_negative_seed_is_refused():
    # refused when the config is built, before any query draws from it, as is
    # any other seed that is not a non-negative integer
    for seed in (-1, 1.5, "a", True):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            OracleConfig(n_rollouts=3, seed=seed)


def test_eps_eval_matches_analytic_cost():
    # horizon long enough that truncation bias is far below sampling noise
    cfg = OracleConfig(n_rollouts=600, horizon=300, radius=1.0, seed=12)
    gamma = 0.9
    res = eps_eval(linear_as_nonlinear(SYS), K_STAB, gamma, cfg, COST2)
    truth = lqr_cost(SYS, COST2, K_STAB, gamma)
    assert not res.capped
    assert abs(res.value - truth) <= 3.0 * res.stderr + 1e-6 * truth


def test_eps_eval_unbiased_for_truncated_objective():
    # averaging many queries against the exact H-step truncated value
    cfg = OracleConfig(n_rollouts=40, horizon=60, radius=0.5, seed=21)
    gamma = 0.85
    truth = truncated_value(SYS, COST2, K_STAB, gamma, cfg.horizon)
    sys_nl = linear_as_nonlinear(SYS)
    values, errs = [], []
    for qi in range(200):
        r = eps_eval(sys_nl, K_STAB, gamma, cfg, COST2, query_index=qi)
        values.append(r.value)
        errs.append(r.stderr)
    pooled = np.mean(errs) / np.sqrt(len(values))
    assert abs(np.mean(values) - truth) <= 4.0 * pooled


def test_eps_eval_deterministic_and_index_sensitive():
    cfg = OracleConfig(n_rollouts=30, horizon=50, seed=5)
    sys_nl = linear_as_nonlinear(SYS)
    a = eps_eval(sys_nl, K_STAB, 0.8, cfg, COST2, query_index=7)
    b = eps_eval(sys_nl, K_STAB, 0.8, cfg, COST2, query_index=7)
    c = eps_eval(sys_nl, K_STAB, 0.8, cfg, COST2, query_index=8)
    assert a.value == b.value
    assert a.stderr == b.stderr
    assert a.value != c.value


def test_eps_eval_radius_invariance_linear():
    # quadratic costs scale exactly with r^2 and the d_x/r^2 normalization
    # cancels it; power-of-two radii make this bit-exact on linear systems
    sys_nl = linear_as_nonlinear(SYS)
    v = {}
    for r in (0.5, 1.0, 2.0):
        cfg = OracleConfig(n_rollouts=25, horizon=40, radius=r, seed=6)
        v[r] = eps_eval(sys_nl, K_STAB, 0.9, cfg, COST2, query_index=1).value
    assert v[0.5] == v[1.0] == v[2.0]


def test_eps_eval_cap_branches():
    sys_nl = linear_as_nonlinear(SYS)
    # estimate above cap on a stable loop: exact cap reported, flag set
    cfg = OracleConfig(n_rollouts=20, horizon=200, seed=2)
    res = eps_eval(sys_nl, K_STAB, 0.9, cfg, COST2, cap=1.0)
    assert res.capped
    assert res.value == 1.0
    # divergence on an unstable loop: flag set even with a huge cap
    res_div = eps_eval(sys_nl, np.zeros((1, 2)), 1.0, cfg, COST2, cap=1e12)
    assert res_div.capped
    assert res_div.value <= 1e12
    # uncapped run on the same unstable loop still flags divergence
    assert eps_eval(sys_nl, np.zeros((1, 2)), 1.0, cfg, COST2).capped


def test_eps_eval_single_rollout_cap_forces_outcome():
    # one runaway rollout alone must push the reported value to the cap
    class OneHot:
        pass

    def step(x, u):
        # first coordinate sign selects stable or exploding branch
        grow = np.where(x[..., :1] > 0, 3.0, 0.1)
        return np.concatenate([grow * x[..., :1], 0.1 * x[..., 1:]], axis=-1)

    def step_jac(x, u):
        raise NotImplementedError

    sys = NonlinearSystem(d_x=2, d_u=1, step=step, step_jac=step_jac)
    cfg = OracleConfig(n_rollouts=40, horizon=200, seed=8)
    res = eps_eval(sys, np.zeros((1, 2)), 1.0, cfg, COST2, cap=50.0)
    assert res.capped
    assert res.value == 50.0


def test_sensitivity_gradient_matches_analytic():
    cfg = OracleConfig(n_rollouts=3000, horizon=300, radius=0.7, seed=5)
    gamma = 0.8
    res = eps_grad_sensitivity(linear_as_nonlinear(SYS), K_STAB, gamma, cfg, COST2)
    g_true = lqr_grad(SYS, COST2, K_STAB, gamma)
    assert res.dropped == 0
    assert np.all(np.abs(res.gradient - g_true) <= 3.0 * res.stderr + 1e-8)
    assert res.value == pytest.approx(lqr_cost(SYS, COST2, K_STAB, gamma), rel=0.1)


def sampled_objective(sys, k, gamma, cfg, cost, query_index):
    """The exact finite-sample objective the sensitivity estimator differentiates."""
    x0s = initial_states(cfg, sys.d_x, query_index)
    batch = rollout_cost_batch(sys, k, gamma, x0s, cfg.horizon, cost)
    scale = sys.d_x / cfg.radius**2
    return scale * float(batch.costs.mean())


def test_sensitivity_gradient_is_exact_for_sampled_objective():
    # central finite differences of the identically-seeded sample objective
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    k = np.array([[0.8, -8.0, 3.2, -7.0]])
    cfg = OracleConfig(n_rollouts=12, horizon=120, radius=0.1, seed=17)
    gamma = 0.9
    res = eps_grad_sensitivity(sys, k, gamma, cfg, cost, query_index=3)
    eps = 1e-6
    fd = np.zeros_like(k)
    for b in range(4):
        e = np.zeros_like(k)
        e[0, b] = eps
        fd[0, b] = (
            sampled_objective(sys, k + e, gamma, cfg, cost, 3)
            - sampled_objective(sys, k - e, gamma, cfg, cost, 3)
        ) / (2 * eps)
    rel = np.linalg.norm(res.gradient - fd) / np.linalg.norm(fd)
    assert rel <= 1e-5
    assert res.value == pytest.approx(
        sampled_objective(sys, k, gamma, cfg, cost, 3), rel=1e-12
    )


A2 = np.array([[1.05, 0.2, 0.0], [0.0, 0.95, 0.3], [0.1, 0.0, 1.02]])
B2 = np.array([[1.0, 0.0], [0.3, 0.5], [0.0, 1.0]])


def two_input_system():
    """x' = A x + B u + 0.1 tanh(x) + 0.05 u_0 x: 3 states, 2 inputs, with the
    state and input Jacobians both depending on (x, u)."""

    def step(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        return x @ A2.T + u @ B2.T + 0.1 * np.tanh(x) + 0.05 * u[..., :1] * x

    def step_jac(x, u):
        n = x.shape[0]
        gx = np.broadcast_to(A2, (n, 3, 3)).copy()
        gx += (0.1 / np.cosh(x) ** 2)[:, :, None] * np.eye(3)
        gx += 0.05 * u[:, 0, None, None] * np.eye(3)
        gu = np.broadcast_to(B2, (n, 3, 2)).copy()
        gu[:, :, 0] += 0.05 * x
        return step(x, u), gx, gu

    return NonlinearSystem(d_x=3, d_u=2, step=step, step_jac=step_jac, name="two-input")


COST3 = CostSpec(
    np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]]),
    np.array([[1.5, 0.4], [0.4, 0.7]]),
)


def two_input_gain(gamma):
    """0.8 times the discounted LQR gain of the linearization at the origin:
    stabilizing, and far enough from optimal that the gradient is not small."""
    lin = LinearSystem(A2 + 0.1 * np.eye(3), B2)
    return 0.8 * solve_dare(lin, COST3, gamma)[1]


def test_two_input_system_jacobian_matches_finite_differences():
    sys = two_input_system()
    rng = np.random.default_rng(38)
    x, u = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    _, gx, gu = sys.step_jac(x, u)
    eps = 1e-6
    for j in range(3):
        e = eps * np.eye(3)[j]
        fd = (sys.step(x + e, u) - sys.step(x - e, u)) / (2 * eps)
        assert np.allclose(gx[:, :, j], fd, rtol=0, atol=1e-8)
    for a in range(2):
        e = eps * np.eye(2)[a]
        fd = (sys.step(x, u + e) - sys.step(x, u - e)) / (2 * eps)
        assert np.allclose(gu[:, :, a], fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "sys, cost, k, cfg",
    [
        # cart-pole at the criterion-7 oracle shape, on a shorter horizon
        (
            cartpole(),
            CostSpec.identity(4, 1),
            np.array([[0.8, -8.0, 3.2, -7.0]]),
            OracleConfig(n_rollouts=1000, horizon=60, radius=0.1, seed=21),
        ),
        (
            two_input_system(),
            COST3,
            two_input_gain(0.9),
            OracleConfig(n_rollouts=40, horizon=80, radius=1.0, seed=22),
        ),
    ],
    ids=["cartpole", "two-input"],
)
def test_sensitivity_step_matches_closed_loop_reference(sys, cost, k, cfg):
    res = eps_grad_sensitivity(sys, k, 0.9, cfg, cost, query_index=4)
    value, grad, dropped = sensitivity_gradient_closed_loop(sys, k, 0.9, cfg, cost, 4)
    assert res.dropped == dropped == 0
    assert np.linalg.norm(res.gradient - grad) <= 1e-12 * np.linalg.norm(grad)
    assert res.value == pytest.approx(value, rel=1e-12)


def test_sensitivity_gradient_is_exact_for_two_input_system():
    # d_u > 1 and Q, R not the identity: every block of d u / d K is exercised
    sys = two_input_system()
    gamma = 0.9
    k = two_input_gain(gamma)
    cfg = OracleConfig(n_rollouts=16, horizon=60, radius=1.0, seed=23)
    res = eps_grad_sensitivity(sys, k, gamma, cfg, COST3, query_index=2)
    eps = 1e-6
    fd = np.zeros_like(k)
    for a in range(2):
        for b in range(3):
            e = np.zeros_like(k)
            e[a, b] = eps
            fd[a, b] = (
                sampled_objective(sys, k + e, gamma, cfg, COST3, 2)
                - sampled_objective(sys, k - e, gamma, cfg, COST3, 2)
            ) / (2 * eps)
    assert np.linalg.norm(res.gradient - fd) <= 1e-7 * np.linalg.norm(fd)
    assert res.value == pytest.approx(
        sampled_objective(sys, k, gamma, cfg, COST3, 2), rel=1e-12
    )


def test_sensitivity_deterministic():
    sys = cartpole()
    cfg = OracleConfig(n_rollouts=50, horizon=80, radius=0.1, seed=9)
    k = np.array([[0.8, -8.0, 3.2, -7.0]])
    a = eps_grad_sensitivity(sys, k, 0.9, cfg, CostSpec.identity(4, 1), 2)
    b = eps_grad_sensitivity(sys, k, 0.9, cfg, CostSpec.identity(4, 1), 2)
    assert np.array_equal(a.gradient, b.gradient)
    assert a.value == b.value


def branch_system():
    """1-d system whose positive starts explode and negative starts decay."""

    def step(x, u):
        return np.where(x > 0, 2.0 * x, 0.5 * x)

    def step_jac(x, u):
        gx = np.where(x > 0, 2.0, 0.5)[:, :, None]
        return step(x, u), gx, np.zeros((x.shape[0], 1, 1))

    return NonlinearSystem(d_x=1, d_u=1, step=step, step_jac=step_jac)


def test_sensitivity_drops_diverged_rollouts():
    sys = branch_system()
    cfg = OracleConfig(n_rollouts=64, horizon=100, seed=14)
    res = eps_grad_sensitivity(sys, np.zeros((1, 1)), 1.0, cfg, CostSpec.identity(1, 1))
    # sphere in 1-d is {-r, +r}: roughly half the rollouts explode
    assert res.capped
    assert res.dropped > 10
    assert res.rollouts_used == cfg.n_rollouts - res.dropped
    assert np.isfinite(res.value)


def test_sensitivity_all_diverged_raises():
    sys = linear_as_nonlinear(LinearSystem(np.array([[2.0]]), np.array([[1.0]])))
    cfg = OracleConfig(n_rollouts=10, horizon=100, seed=3)
    with pytest.raises(DivergedAllError):
        eps_grad_sensitivity(sys, np.zeros((1, 1)), 1.0, cfg, CostSpec.identity(1, 1))
    # the two-point estimator drops every pair, each of whose gains 2 +- 0.01
    # diverges, and has no difference left to average
    with pytest.raises(DivergedAllError, match="all two-point direction pairs"):
        eps_grad_zeroth_order(sys, np.zeros((1, 1)), 1.0, cfg, CostSpec.identity(1, 1))


def nan_at_step(sys, call, row):
    """``sys`` with a simulator fault: its ``call``-th step returns NaN in
    row ``row`` of the batch (the batch still holds every row by then)."""
    calls = [0]

    def step(x, u):
        x_next = sys.step(x, u)
        calls[0] += 1
        if calls[0] == call:
            x_next = x_next.copy()
            x_next[row] = np.nan
        return x_next

    return dataclasses.replace(sys, step=step)


def test_simulator_nan_partway_diverges_its_row_alone():
    # the closed loop is 0.5 I under K = 0, so every row decays as 0.5^t and a
    # NaN-free batch ends at step 20 whichever rows it holds
    sys = linear_as_nonlinear(LinearSystem(0.5 * np.eye(2), np.array([[1.0], [0.0]])))
    k = np.zeros((1, 2))
    cfg = OracleConfig(n_rollouts=6, horizon=200, seed=3)
    x0s = initial_states(cfg, 2, 0)
    clean = rollout_cost_batch(sys, k, 1.0, x0s, cfg.horizon, COST2)
    assert clean.steps.tolist() == [20] * 6
    assert not (clean.diverged | clean.capped).any()
    others = np.arange(6) != 2
    for call in (5, 20):  # partway, and on the step the other rows decay
        faulty = rollout_cost_batch(
            nan_at_step(sys, call, 2), k, 1.0, x0s, cfg.horizon, COST2
        )
        # the NaN row is diverged, never decayed, and ends the batch for no
        # other row: the rest decay at step 20 with their NaN-free costs
        assert faulty.diverged.tolist() == [False, False, True, False, False, False]
        assert not faulty.capped.any()
        assert faulty.steps.tolist() == [20, 20, call, 20, 20, 20]
        np.testing.assert_allclose(
            faulty.costs[others], clean.costs[others], rtol=1e-15, atol=0.0
        )
    res = eps_eval(nan_at_step(sys, 5, 2), k, 1.0, cfg, COST2)
    assert res.capped and np.isfinite(res.value)
    # row 2 and row 6 + 2 are the two members of direction pair 2
    for row in (2, 8):
        res = eps_grad_zeroth_order(nan_at_step(sys, 5, row), k, 1.0, cfg, COST2)
        assert res.dropped == 1 and res.rollouts_used == 5 and res.capped
        assert np.all(np.isfinite(res.gradient))


@pytest.mark.parametrize("estimator", [eps_grad_sensitivity, eps_grad_zeroth_order])
def test_single_rollout_gradient_has_zero_stderr(estimator):
    # one sample has no spread to estimate: its standard error is 0, not NaN
    cfg = OracleConfig(n_rollouts=1, horizon=20, seed=5)
    res = estimator(linear_as_nonlinear(SYS), K_STAB, 0.9, cfg, COST2)
    assert res.rollouts_used == 1
    assert np.all(np.isfinite(res.gradient))
    assert np.array_equal(res.stderr, np.zeros_like(K_STAB))


def test_two_point_gradient_exact_on_quadratic():
    # paired central differences are exact per direction on a quadratic, so
    # only direction-sampling noise remains
    k0 = np.array([[0.3, -0.7], [1.1, 0.2]])

    def f(k, rng):
        return float(np.sum((k - k0) ** 2))

    k = np.array([[1.0, 0.0], [0.0, -1.0]])
    res = two_point_gradient(f, k, smoothing_radius=1e-3, n_directions=4000, seed=0)
    g_true = 2.0 * (k - k0)
    assert res.dropped == 0
    assert np.all(np.abs(res.gradient - g_true) <= 4.0 * res.stderr + 1e-9)


def test_two_point_gradient_drops_nan_pairs():
    calls = {"n": 0}

    def f(k, rng):
        calls["n"] += 1
        if calls["n"] % 4 == 0:
            return float("nan")
        return float(np.sum(k**2))

    res = two_point_gradient(
        f, np.ones((1, 2)), smoothing_radius=1e-2, n_directions=10, seed=1
    )
    assert res.dropped > 0
    assert res.used == 10 - res.dropped


def test_zeroth_order_gradient_matches_analytic():
    cfg = OracleConfig(
        n_rollouts=1200, horizon=120, radius=1.0, seed=4, estimator="zeroth",
    )
    gamma = 0.8
    res = eps_grad_zeroth_order(linear_as_nonlinear(SYS), K_STAB, gamma, cfg, COST2)
    g_true = lqr_grad(SYS, COST2, K_STAB, gamma)
    # truncation at H=200 and smoothing leave only tiny systematic error
    assert np.all(
        np.abs(res.gradient - g_true) <= 4.0 * res.stderr + 1e-3 * np.abs(g_true)
    )
    assert res.value == pytest.approx(lqr_cost(SYS, COST2, K_STAB, gamma), rel=0.15)


def test_zeroth_order_matches_generic_two_point():
    # the batched estimator reproduces two_point_gradient driven by
    # one-rollout evaluations on the same stream
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    k = np.array([[0.8, -8.0, 3.2, -7.0]])
    gamma = 0.9
    cfg = OracleConfig(
        n_rollouts=40, horizon=80, radius=0.1, seed=23, estimator="zeroth",
    )
    scale = sys.d_x / cfg.radius**2

    def evaluate(k_perturbed, rng):
        x0 = sphere_sample(rng, sys.d_x, cfg.radius)[None, :]
        b = rollout_cost_batch(sys, k_perturbed, gamma, x0, cfg.horizon, cost)
        if b.diverged[0]:
            return float("nan")
        return scale * float(b.costs[0])

    generic = two_point_gradient(
        evaluate, k, oracles.SMOOTHING_RADIUS, cfg.n_rollouts, cfg.seed, 5
    )
    batched = eps_grad_zeroth_order(sys, k, gamma, cfg, cost, query_index=5)
    assert batched.rollouts_used == generic.used
    assert np.allclose(batched.gradient, generic.gradient, rtol=1e-9, atol=1e-9)
    assert batched.value == pytest.approx(generic.value, rel=1e-10)


def test_zeroth_order_deterministic():
    cfg = OracleConfig(n_rollouts=50, horizon=60, seed=11, estimator="zeroth")
    sys_nl = linear_as_nonlinear(SYS)
    a = eps_grad_zeroth_order(sys_nl, K_STAB, 0.9, cfg, COST2, query_index=1)
    b = eps_grad_zeroth_order(sys_nl, K_STAB, 0.9, cfg, COST2, query_index=1)
    assert np.array_equal(a.gradient, b.gradient)


def test_estimators_agree_on_cartpole():
    # both estimators target the same gradient; compare directions
    sys = cartpole()
    cost = CostSpec.identity(4, 1)
    k = np.array([[0.8, -8.0, 3.2, -7.0]])
    gamma = 0.9
    sens = eps_grad_sensitivity(
        sys, k, gamma, OracleConfig(n_rollouts=300, horizon=100, radius=0.1, seed=19),
        cost,
    )
    zero = eps_grad_zeroth_order(
        sys, k, gamma,
        OracleConfig(
            n_rollouts=1000, horizon=100, radius=0.1, seed=19, estimator="zeroth",
        ),
        cost,
    )
    ga, gb = sens.gradient.ravel(), zero.gradient.ravel()
    cosine = ga @ gb / (np.linalg.norm(ga) * np.linalg.norm(gb))
    assert cosine > 0.95
    assert 0.5 <= np.linalg.norm(gb) / np.linalg.norm(ga) <= 2.0


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(n_rollouts=0)
    # a start radius that is not positive and finite samples no sphere
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="radius"):
            OracleConfig(radius=radius)
    with pytest.raises(ValueError):
        OracleConfig(estimator="spsa")
    # a query of no steps has no cost to estimate
    with pytest.raises(ValueError, match="horizon"):
        OracleConfig(horizon=0)
    # the cap is refused where it is read, by the query it bounds
    sys_nl, cfg = linear_as_nonlinear(SYS), OracleConfig(n_rollouts=2, horizon=3)
    for cap in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="cap must be positive"):
            eps_eval(sys_nl, K_STAB, 0.9, cfg, COST2, cap=cap)


@pytest.mark.parametrize(
    "estimator", [eps_eval, eps_grad_sensitivity, eps_grad_zeroth_order]
)
@pytest.mark.parametrize("gamma", [1.5, 0.0, -1.0, np.nan])
def test_estimators_refuse_discount_outside_unit_interval(estimator, gamma):
    cfg = OracleConfig(n_rollouts=4, horizon=5)
    with pytest.raises(ValueError, match="gamma must lie in"):
        estimator(linear_as_nonlinear(SYS), K_STAB, gamma, cfg, COST2)
