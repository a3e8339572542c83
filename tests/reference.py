"""Reference implementations that the tests check the package against.

Each one is a plain, unbatched version of something the package computes in
batched or closed form: the seeded draws of an oracle query made one rollout
at a time, a single damped rollout stepped one state at a time, the step at
which a batch of such rollouts has decayed, a
generic two-point gradient estimator driven by an arbitrary objective, the
two discount searches as separate loops, the discounted Riccati equation
solved by plain value iteration, the discrete Lyapunov equation summed by
doubling (``dlyap_doubling``, which also runs in extended precision), the
residual of a discrete Lyapunov solution, the damped system that a discount
stands for, the exact policy gradient from two separate Lyapunov solves,
Hewer's policy iteration evaluated by scipy, and the forward-sensitivity
gradient stepped through the closed-loop Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pgstab.anneal import BudgetExceededError, SearchBracket
from pgstab.dynamics import BLOWUP_FACTOR, DECAY_FRACTION, NonlinearSystem, lockstep
from pgstab.matops import (
    DARE_DIVERGENCE_BOUND,
    DARE_REL_TOL,
    NotStabilizableError,
    UnstableError,
    dlyap,
)
from pgstab.model import CostSpec, LinearSystem, check_gamma
from pgstab.oracles import DivergedAllError, OracleConfig, initial_states


def sphere_sample(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """One point uniform on the sphere of the given radius in R^d."""
    z = rng.standard_normal(d)
    return radius * z / np.linalg.norm(z)


def _query_generator(seed: int, query_index: int) -> np.random.Generator:
    """The one stream of a query, from which its rollouts draw in turn."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(query_index,)))


def initial_states_loop(cfg: OracleConfig, d_x: int, query_index: int) -> np.ndarray:
    """``oracles.initial_states`` one rollout at a time: each draws its sphere
    point from the query's stream after the rollouts before it."""
    rng = _query_generator(cfg.seed, query_index)
    return np.array(
        [sphere_sample(rng, d_x, cfg.radius) for _ in range(cfg.n_rollouts)]
    )


def zeroth_order_draws_loop(
    cfg: OracleConfig, k_shape: tuple, d_x: int, query_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The unit directions and sphere starts of ``oracles.eps_grad_zeroth_order``
    one direction at a time: each draws its direction, then its start, from the
    query's stream after the directions before it."""
    rng = _query_generator(cfg.seed, query_index)
    dirs, starts = [], []
    for _ in range(cfg.n_rollouts):
        u = rng.standard_normal(k_shape)
        dirs.append(u / np.linalg.norm(u))
        starts.append(sphere_sample(rng, d_x, cfg.radius))
    return np.array(dirs), np.array(starts)


@dataclass
class Rollout:
    """A single closed-loop trajectory with its running quadratic cost.

    ``states`` has one more row than ``inputs`` and ``stage_costs``.
    ``truncated`` means the rollout stopped before the requested horizon
    (cost cap hit or divergence); ``diverged`` means the state blew past the
    blow-up bound or went non-finite.
    """

    states: np.ndarray
    inputs: np.ndarray
    stage_costs: np.ndarray
    truncated: bool
    diverged: bool

    @property
    def cost(self) -> float:
        return float(self.stage_costs.sum())

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def damped_rollout(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    x0: np.ndarray,
    horizon: int,
    cost: CostSpec,
    *,
    cap: float = np.inf,
) -> Rollout:
    """Roll the damped closed loop x' = sqrt(gamma) G(x, Kx) for ``horizon`` steps.

    Stage costs are undiscounted ``x'Qx + u'Ru``.  Stops early (``truncated``)
    once the accumulated cost exceeds ``cap``, and flags ``diverged`` if the
    state norm exceeds ``BLOWUP_FACTOR * max(1, ||x0||)`` or goes non-finite.
    A zero horizon returns the initial state alone at zero cost.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    K = np.asarray(K, dtype=float)
    x = np.asarray(x0, dtype=float).reshape(sys.d_x)
    sq = np.sqrt(gamma)
    blow2 = (BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(x)))) ** 2

    states = [x.copy()]
    inputs: list[np.ndarray] = []
    costs: list[float] = []
    total = 0.0
    truncated = False
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            u = K @ x
            stage = float(cost.stage(x, u))
            inputs.append(u.copy())
            costs.append(stage)
            total += stage
            x = sq * np.asarray(sys.step(x, u), dtype=float).reshape(sys.d_x)
            states.append(x.copy())
            # squared-norm test: overflow to inf and NaN both fail `<=`
            if not float((x * x).sum()) <= blow2:
                diverged = True
                truncated = True
                break
            if total > cap:
                truncated = True
                break
    return Rollout(
        states=np.array(states),
        inputs=np.array(inputs).reshape(len(inputs), sys.d_u),
        stage_costs=np.array(costs),
        truncated=truncated,
        diverged=diverged,
    )


def decay_end_step(rollouts: list[Rollout], horizon: int) -> int:
    """The step at which ``lockstep`` ends a batch of these full-horizon
    rollouts: the first t at which every row still live (one that has not
    ended at or before t) has ``||x_t|| <= DECAY_FRACTION ||x_0||``, else
    ``horizon``."""
    for t in range(1, horizon + 1):
        if all(
            float((r.states[t] * r.states[t]).sum())
            <= (DECAY_FRACTION * float(np.linalg.norm(r.states[0]))) ** 2
            for r in rollouts
            if r.horizon > t
        ):
            return t
    return horizon


@dataclass
class TwoPointResult:
    gradient: np.ndarray
    stderr: np.ndarray
    value: float  # mean of the paired midpoint evaluations
    used: int
    dropped: int


def two_point_gradient(
    evaluate: Callable[[np.ndarray, np.random.Generator], float],
    K: np.ndarray,
    smoothing_radius: float,
    n_directions: int,
    seed: int,
    query_index: int = 0,
) -> TwoPointResult:
    """Two-point zeroth-order gradient of an arbitrary scalar objective.

    For each direction U uniform on the unit Frobenius sphere the estimate is
    ``(d_K / (2 r_s)) * (f(K + r_s U) - f(K - r_s U)) * U`` with
    ``d_K = K.size``.  Directions and evaluations draw in turn from the
    query's one stream, and both evaluations of a direction see the same
    draws so paired noise cancels.  ``evaluate`` may return NaN to drop a
    direction.  The pair midpoints ``(f_plus + f_minus) / 2`` double as a
    smoothed cost estimate.
    """
    K = np.asarray(K, dtype=float)
    d_k = K.size
    rng = _query_generator(seed, query_index)
    estimates = []
    midpoints = []
    dropped = 0
    for _ in range(n_directions):
        u = rng.standard_normal(K.shape)
        u /= np.linalg.norm(u)
        state = rng.bit_generator.state
        f_plus = evaluate(K + smoothing_radius * u, rng)
        rng.bit_generator.state = state  # same draw stream for the paired rollout
        f_minus = evaluate(K - smoothing_radius * u, rng)
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            dropped += 1
            continue
        estimates.append(d_k / (2.0 * smoothing_radius) * (f_plus - f_minus) * u)
        midpoints.append(0.5 * (f_plus + f_minus))
    if not estimates:
        raise DivergedAllError("all two-point direction pairs were dropped")
    stack = np.array(estimates)
    grad = stack.mean(axis=0)
    stderr = (
        stack.std(axis=0, ddof=1) / np.sqrt(len(estimates))
        if len(estimates) > 1
        else np.zeros_like(grad)
    )
    return TwoPointResult(
        gradient=grad,
        stderr=stderr,
        value=float(np.mean(midpoints)),
        used=len(estimates),
        dropped=dropped,
    )


def sensitivity_gradient_closed_loop(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    cfg: OracleConfig,
    cost: CostSpec,
    query_index: int = 0,
) -> tuple[float, np.ndarray, int]:
    """``(value, gradient, dropped)`` of ``eps_grad_sensitivity``, stepping
    ``S`` through the closed-loop Jacobian ``G_x + G_u K``.

    The stage cost is pulled back to the state through ``u = K x``, and the
    explicit dependence of ``u`` on ``K`` enters as the outer products
    ``(R u) x'`` and ``G_u x'``:

        grad += 2 (Q x + K'R u)' S + 2 (R u) x'
        S' = sqrt(gamma) ((G_x + G_u K) S + G_u (I (x) x'))
    """
    K = np.asarray(K, dtype=float)
    d_x, d_u = sys.d_x, sys.d_u
    p = d_u * d_x
    sq = np.sqrt(gamma)
    Q, R = cost.Q, cost.R

    def advance(X, S, G, costs):
        u = X @ K.T
        qx = X @ Q
        ru = u @ R
        costs += (X * qx).sum(axis=1) + (u * ru).sum(axis=1)
        w = 2.0 * (qx + ru @ K)
        G += (w[:, None, :] @ S)[:, 0, :]
        G += 2.0 * (ru[:, :, None] * X[:, None, :]).reshape(-1, p)
        xn, gx, gu = sys.step_jac(X, u)
        t_cl = gx + gu @ K
        direct = (gu[:, :, :, None] * X[:, None, None, :]).reshape(-1, d_x, p)
        return sq * xn, (sq * (t_cl @ S + direct), G, costs), None

    n = cfg.n_rollouts
    carry = (np.zeros((n, d_x, p)), np.zeros((n, p)), np.zeros(n))
    run = lockstep(initial_states(cfg, d_x, query_index), cfg.horizon, advance, carry)
    kept = ~run.diverged
    scale = d_x / cfg.radius**2
    G, costs = run.carry[1][kept], run.carry[2][kept]
    grad = scale * G.mean(axis=0).reshape(d_u, d_x)
    return float(scale * costs.mean()), grad, int(n - kept.sum())


def binary_search_gamma_loop(
    evaluator: Callable[[float], float], gamma_t: float, bracket: SearchBracket
) -> float:
    """``anneal.binary_search_gamma`` as its own loop: a counted query closure
    that refuses the query after ``bracket.budget``, then bisection."""
    check_gamma(gamma_t)
    queries = 0

    def query(g: float) -> float:
        nonlocal queries
        if queries >= bracket.budget:
            raise BudgetExceededError(
                f"binary search exceeded its budget of {bracket.budget} queries"
            )
        queries += 1
        return float(evaluator(g))

    if query(1.0) <= bracket.f2_bar + bracket.eps:
        return 1.0
    lo, hi = gamma_t, 1.0
    while True:
        x = 0.5 * (lo + hi)
        a = query(x)
        if a > bracket.f2_bar + bracket.eps:
            hi = x
        elif a < bracket.f1_bar + bracket.eps:
            lo = x
        else:
            return x


def random_search_gamma_loop(
    evaluator: Callable[[float], float],
    gamma_t: float,
    bracket: SearchBracket,
    rng: np.random.Generator,
    max_iters: int,
) -> float:
    """``anneal.random_search_gamma`` as its own loop: the gamma = 1 branch,
    then up to ``max_iters`` uniform samples tested against the exact window."""
    check_gamma(gamma_t)
    if float(evaluator(1.0)) <= bracket.f2_bar + bracket.eps:
        return 1.0
    for _ in range(max_iters):
        x = float(rng.uniform(gamma_t, 1.0))
        a = float(evaluator(x))
        if bracket.f1_bar <= a <= bracket.f2_bar:
            return x
    raise BudgetExceededError(
        f"random search found no acceptable discount in {max_iters} samples"
    )


def solve_dare_value_iteration(
    sys: LinearSystem, cost: CostSpec, gamma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``matops.solve_dare`` by one Riccati step at a time: value iteration
    ``P <- Q + Ad'PAd - Ad'PBd (R + Bd'PBd)^-1 Bd'PAd`` from ``P = Q`` on the
    damped matrices, with the same divergence and convergence tests, then
    three rounds of Hewer's policy iteration (greedy gain, then its value)
    and a last evaluation of the final gain, where ``solve_dare`` polishes
    with a single evaluation; each Lyapunov solve is by ``dlyap_doubling``.
    Its step count grows like ``1 / (1 - rho^2)`` for the slowest damped
    closed-loop mode ``rho``."""
    check_gamma(gamma)
    A, B, Q, R = sys.A, sys.B, cost.Q, cost.R
    sq = np.sqrt(gamma)
    Ad, Bd = sq * A, sq * B
    P = Q.copy()
    for _ in range(1_000_000):
        BtP = Bd.T @ P
        new_p = Q + Ad.T @ P @ Ad - (BtP @ Ad).T @ np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
        new_p = (new_p + new_p.T) / 2.0
        if not np.all(np.isfinite(new_p)) or np.trace(new_p) > DARE_DIVERGENCE_BOUND:
            raise NotStabilizableError(f"value iteration diverged at gamma={gamma:g}")
        delta = np.linalg.norm(new_p - P, "fro")
        P = new_p
        if delta <= DARE_REL_TOL * max(np.linalg.norm(P, "fro"), 1.0):
            break
    else:
        raise NotStabilizableError(
            f"value iteration did not converge within 1,000,000 steps at gamma={gamma:g}"
        )
    K = -np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
    try:
        for _ in range(3):
            P = dlyap_doubling(sq * (A + B @ K), Q + K.T @ R @ K)
            K = -np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
    except UnstableError as exc:
        raise NotStabilizableError(
            f"greedy gain after value iteration is not stable at gamma={gamma:g}"
        ) from exc
    P = dlyap_doubling(sq * (A + B @ K), Q + K.T @ R @ K)
    return P, K


def dlyap_doubling(a_cl: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``matops.dlyap`` by iterated doubling, for one equation or a stack.

    With ``X_k = sum_{j < 2^k} (A')^j Sigma A^j`` and ``M_k = A^(2^k)``, one
    pass performs ``X <- X + M' X M`` and ``M <- M M`` on every slice, so the
    partial sum length doubles per pass.  Passes stop once every slice's
    ``M_k`` has Frobenius norm at most 1e-14, which leaves a truncation error
    of order ``||M_k||^2``; a slice that converged earlier takes the
    remaining passes.  The arithmetic runs in the inputs' dtype, so
    ``np.longdouble`` inputs give an extended-precision reference; the
    stability test (spectral radius below ``1 - 1e-9``) runs in double.
    """
    rho = np.abs(np.linalg.eigvals(a_cl.astype(np.float64))).max()
    if rho >= 1.0 - 1e-9:
        raise UnstableError(
            f"spectral radius {rho:.6g} is not below 1 - 1e-9; "
            "the Lyapunov series diverges"
        )
    d = a_cl.shape[-1]
    # n slices have squared norms summing to at most n times the largest: above
    # 4n (1e-14)^2, a margin over rounding, one dot product settles the test
    stack_bound = 4e-28 * (a_cl.size // d**2)
    x = (sigma + sigma.mT) / 2.0
    m = a_cl
    for _ in range(200):
        flat = m.ravel(order="K")
        if flat.dot(flat) <= stack_bound and all(
            np.linalg.norm(s, "fro") <= 1e-14 for s in m.reshape(-1, d, d)
        ):
            break
        x = x + m.mT @ x @ m
        m = m @ m
    if not np.isfinite(x).all():
        raise UnstableError("Lyapunov doubling overflowed; matrix too close to instability")
    return (x + x.mT) / 2.0


def dlyap_residual(a_cl, sigma, x) -> float:
    """Relative residual ||X - Sigma - A'XA||_F / ||X||_F of a candidate solution."""
    a_cl = np.asarray(a_cl, dtype=float)
    res = x - sigma - a_cl.T @ x @ a_cl
    return float(np.linalg.norm(res, "fro") / max(np.linalg.norm(x, "fro"), 1e-300))


def damp(sys: LinearSystem, gamma: float) -> LinearSystem:
    """The damped system (sqrt(gamma) A, sqrt(gamma) B), whose undiscounted
    quantities the package's gamma-discounted ones must equal."""
    check_gamma(gamma)
    sq = np.sqrt(gamma)
    return LinearSystem(sq * sys.A, sq * sys.B)


def lqr_grad_two_solves(
    sys: LinearSystem, cost: CostSpec, K: np.ndarray, gamma: float = 1.0
) -> np.ndarray:
    """``lqr.lqr_grad`` with P_K and Sigma_K from two 2-D ``dlyap`` calls, the
    second on the transposed damped closed loop, in place of one stacked call."""
    check_gamma(gamma)
    K = np.asarray(K, dtype=float)
    a_cl = sys.closed_loop(K)
    damped = np.sqrt(gamma) * a_cl
    P = dlyap(damped, cost.Q + K.T @ cost.R @ K)
    sigma = dlyap(damped.T, np.eye(sys.d_x))
    return 2.0 * (cost.R @ K + gamma * sys.B.T @ P @ a_cl) @ sigma


def policy_iteration_loop(
    sys: LinearSystem,
    cost: CostSpec,
    K0: np.ndarray,
    gamma: float,
    stop_cost: float,
) -> tuple[list[np.ndarray], list[float]]:
    """The exact inner loop, Hewer's policy iteration, with each gain's value
    matrix from ``scipy.linalg.solve_discrete_lyapunov``: evaluate the gain,
    stop once its cost ``tr P`` is at most ``stop_cost``, else move to the
    greedy gain ``-(R + gamma B'PB)^-1 gamma B'PA``.  Returns the gains and
    costs of every iterate, the start's first.  Raises ``RuntimeError`` after
    100 evaluations."""
    from scipy.linalg import solve_discrete_lyapunov

    A, B, Q, R = sys.A, sys.B, cost.Q, cost.R
    K = np.asarray(K0, dtype=float)
    gains, costs = [], []
    for _ in range(100):
        damped = np.sqrt(gamma) * (A + B @ K)
        # scipy solves X = A X A' + Q, so it is handed A' for X = Q + A' X A
        P = solve_discrete_lyapunov(damped.T, Q + K.T @ R @ K)
        gains.append(K)
        costs.append(float(np.trace(P)))
        if costs[-1] <= stop_cost:
            return gains, costs
        K = -np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
    raise RuntimeError("policy iteration did not stop within 99 steps")
