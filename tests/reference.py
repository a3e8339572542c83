"""Reference implementations that the tests check the package against.

Each one is a plain, unbatched version of something the package computes in
batched or closed form: the seeded draws of an oracle query made one spawned
substream at a time, a single damped rollout stepped one state at a time, a
generic two-point gradient estimator driven by an arbitrary objective, and
the residual of a discrete Lyapunov solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from pgstab.dynamics import BLOWUP_FACTOR, NonlinearSystem
from pgstab.model import CostSpec
from pgstab.oracles import DivergedAllError, OracleConfig


def sphere_sample(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    """One point uniform on the sphere of the given radius in R^d."""
    z = rng.standard_normal(d)
    return radius * z / np.linalg.norm(z)


def _spawned_generators(cfg: OracleConfig, query_index: int):
    root = np.random.SeedSequence(cfg.seed, spawn_key=(query_index,))
    return [np.random.default_rng(child) for child in root.spawn(cfg.n_rollouts)]


def initial_states_loop(cfg: OracleConfig, d_x: int, query_index: int) -> np.ndarray:
    """``oracles.initial_states`` one rollout at a time: spawn the query's
    children, build a generator from each, draw one sphere point."""
    return np.array(
        [sphere_sample(g, d_x, cfg.radius) for g in _spawned_generators(cfg, query_index)]
    )


def zeroth_order_draws_loop(
    cfg: OracleConfig, k_shape: tuple, d_x: int, query_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """The unit directions and sphere starts of ``oracles.eps_grad_zeroth_order``
    one direction at a time: each child draws its direction, then its start."""
    dirs, starts = [], []
    for rng in _spawned_generators(cfg, query_index):
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
    ``d_K = K.size``; both evaluations see the same per-direction stream so
    paired noise cancels.  ``evaluate`` may return NaN to drop a direction.
    The pair midpoints ``(f_plus + f_minus) / 2`` double as a smoothed cost
    estimate.
    """
    K = np.asarray(K, dtype=float)
    d_k = K.size
    root = np.random.SeedSequence(seed, spawn_key=(query_index,))
    estimates = []
    midpoints = []
    dropped = 0
    for child in root.spawn(n_directions):
        rng = np.random.default_rng(child)
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



def dlyap_residual(a_cl, sigma, x) -> float:
    """Relative residual ||X - Sigma - A'XA||_F / ||X||_F of a candidate solution."""
    a_cl = np.asarray(a_cl, dtype=float)
    res = x - sigma - a_cl.T @ x @ a_cl
    return float(np.linalg.norm(res, "fro") / max(np.linalg.norm(x, "fro"), 1e-300))
