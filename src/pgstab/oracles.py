"""Simulator-only cost and gradient queries for damped closed loops.

A query draws N initial states uniformly from the sphere of radius r,
rolls the damped closed loop for H steps, and averages the undiscounted
stage costs scaled by ``d_x / r**2`` (so on linear systems the expectation
is the discounted cost ``tr(P)`` truncated at horizon H, independent of r).

Seeding contract: every query is pure given ``(cfg.seed, query_index)``.
A query draws all its normals, in one call, from one ``Generator`` seeded
by ``SeedSequence(cfg.seed, spawn_key=(query_index,))``; rollout i's draws
are row i of that stream.  Draws are sequential, so adding rollouts leaves
the existing ones unchanged, and distinct query indices give independent
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import NonlinearSystem, lockstep, rollout_cost_batch
from .model import CostSpec, check_count, check_gamma, check_real


SMOOTHING_RADIUS = 1e-2  # perturbation size of the two-point zeroth-order estimator


class DivergedAllError(RuntimeError):
    """Every rollout in a gradient query diverged; no estimate is available."""


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration for cost/gradient queries.

    ``n_rollouts`` and ``horizon`` must be integers of at least 1, ``radius``
    positive and finite, ``seed`` a non-negative integer.
    The zeroth-order perturbation size is the constant ``SMOOTHING_RADIUS``,
    and the cap of an evaluation is an argument of ``eps_eval``, the one query
    it bounds.
    """

    n_rollouts: int = 100
    horizon: int = 200
    radius: float = 1.0
    seed: int = 0
    estimator: str = "sensitivity"  # "sensitivity" | "zeroth"

    def __post_init__(self):
        check_count(self.n_rollouts, "n_rollouts", 1)
        check_count(self.horizon, "horizon", 1)
        check_real(self.radius, "radius")
        if self.estimator not in ("sensitivity", "zeroth"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        check_count(self.seed, "seed", 0)


@dataclass
class QueryResult:
    """Outcome of a single oracle query.

    ``value`` is always a float: the (possibly capped) cost estimate of an
    evaluation, or the mean cost over the rollouts a gradient query kept.
    ``stderr`` is a scalar for evaluations and an elementwise array for
    gradients.  ``capped`` means the cap bound or a divergence was hit, so
    ``value`` is only a lower witness of the true cost.
    """

    value: float
    gradient: np.ndarray | None
    stderr: float | np.ndarray
    capped: bool
    rollouts_used: int
    dropped: int = 0


def _query_normals(cfg: OracleConfig, query_index: int, d: int) -> np.ndarray:
    """Row i: rollout i's ``d`` standard normals, drawn in order from the
    query's one seeded stream."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(query_index,))
    return np.random.default_rng(root).standard_normal((cfg.n_rollouts, d))


def _row_norms(z: np.ndarray) -> np.ndarray:
    # np.vecdot sums each row as np.linalg.norm on that row does, bit for bit
    return np.sqrt(np.vecdot(z, z))[:, None]


def _mean_stderr(samples: np.ndarray) -> tuple:
    """Mean over the first axis and its standard error (``ddof=1``); the
    error is 0 for a single sample."""
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, samples.std(axis=0, ddof=1) / np.sqrt(n)


def initial_states(cfg: OracleConfig, d_x: int, query_index: int) -> np.ndarray:
    """The N seeded initial states of a query, one per row of its stream:
    uniform on the sphere of radius ``cfg.radius``."""
    z = _query_normals(cfg, query_index, d_x)
    return cfg.radius * z / _row_norms(z)


def eps_eval(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    cfg: OracleConfig,
    cost: CostSpec,
    query_index: int = 0,
    cap: float = np.inf,
) -> QueryResult:
    """Capped Monte-Carlo estimate of the damped closed-loop cost.

    Returns ``min(estimate, cap)`` with ``capped`` set when any rollout
    diverged or the estimate reached the cap.  Individual rollouts stop
    accumulating once they alone force the capped outcome
    (raw cost above ``cap * N * r^2 / d_x``), which bounds the work spent on
    destabilizing gains.  ``cap`` must be positive; ``inf`` caps nothing.
    """
    if not cap > 0:
        raise ValueError("cap must be positive")
    scale = sys.d_x / cfg.radius**2
    x0s = initial_states(cfg, sys.d_x, query_index)
    rollout_cap = cap * cfg.n_rollouts / scale
    batch = rollout_cost_batch(
        sys, K, gamma, x0s, cfg.horizon, cost, rollout_cap=rollout_cap
    )
    estimate, stderr = _mean_stderr(scale * batch.costs)
    capped = bool(batch.diverged.any() or batch.capped.any() or estimate >= cap)
    return QueryResult(
        value=float(min(estimate, cap)),
        gradient=None,
        stderr=float(stderr),
        capped=capped,
        rollouts_used=cfg.n_rollouts,
    )


def eps_grad_sensitivity(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    cfg: OracleConfig,
    cost: CostSpec,
    query_index: int = 0,
) -> QueryResult:
    """Gradient of the sampled finite-horizon objective by forward sensitivity.

    Propagates ``S_t = d x_t / d K`` alongside each rollout, which yields the
    exact (machine-precision) gradient of the Monte-Carlo objective for the
    drawn initial states; no smoothing bias, no cost capping.  Rollouts that
    diverge are dropped and counted; if all diverge, raises ``DivergedAllError``.

    Each step is the chain rule of ``x'Qx + u'Ru`` with ``u = K x`` and
    ``x' = sqrt(gamma) G(x, u)``.  From ``S_0 = 0``, with
    ``U_t = d u_t / d K = K S_t + I (x) x_t'`` (``I (x) x_t'`` holds ``x_t'``
    in block ``a`` of row ``a``: input ``a`` reads row ``a`` of ``K``):

        grad += 2 (Q x_t)' S_t + 2 (R u_t)' U_t
        S_{t+1} = sqrt(gamma) (G_x S_t + G_u U_t)
    """
    check_gamma(gamma)
    K = np.asarray(K, dtype=float)
    d_x, d_u = sys.d_x, sys.d_u
    p = d_u * d_x
    scale = d_x / cfg.radius**2
    sq = np.sqrt(gamma)
    Q, R = cost.Q, cost.R
    Kt = K.T.copy()

    def advance(X, S, G, costs):
        # S[n, i, a * d_x + b] = d x_i / d K[a, b]; G accumulates d cost / d K
        u = X @ Kt
        qx = X @ Q
        ru = u @ R
        costs += np.vecdot(X, qx) + np.vecdot(u, ru)
        U = np.einsum("aj,njp->nap", K, S)  # U = d u / d K, laid out as S
        for a in range(d_u):
            U[:, a, a * d_x : (a + 1) * d_x] += X
        G += 2.0 * (np.einsum("ni,nip->np", qx, S) + np.einsum("na,nap->np", ru, U))
        xn, gx, gu = sys.step_jac(X, u)
        S = gx @ S
        S += gu @ U
        S *= sq
        return sq * xn, (S, G, costs), None

    n = cfg.n_rollouts
    carry = (np.zeros((n, d_x, p)), np.zeros((n, p)), np.zeros(n))
    run = lockstep(initial_states(cfg, d_x, query_index), cfg.horizon, advance, carry)
    kept = ~run.diverged
    G, costs = run.carry[1][kept], run.carry[2][kept]
    n_used = G.shape[0]
    dropped = n - n_used
    if n_used == 0:
        raise DivergedAllError(
            f"all {n} sensitivity rollouts diverged at gamma={gamma:g}"
        )
    mean, stderr = _mean_stderr(G)
    return QueryResult(
        value=float(scale * costs.mean()),
        gradient=scale * mean.reshape(d_u, d_x),
        stderr=scale * stderr.reshape(d_u, d_x),
        capped=dropped > 0,
        rollouts_used=n_used,
        dropped=dropped,
    )


def eps_grad_zeroth_order(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    cfg: OracleConfig,
    cost: CostSpec,
    query_index: int = 0,
) -> QueryResult:
    """Two-point zeroth-order gradient from single-rollout cost differences.

    Each of the ``cfg.n_rollouts`` directions perturbs K by
    ``SMOOTHING_RADIUS`` along a random unit direction and differences two
    rollout costs started from the same sphere point.  Direction i and its
    start are row i of the query's seeded stream, ``K.size + d_x`` normals in
    that order, and all ``2 N`` rollouts are stepped as one batch, uncapped.
    Direction pairs with a diverged member are dropped and counted.
    """
    K = np.asarray(K, dtype=float)
    d_k = K.size
    r_s = SMOOTHING_RADIUS
    n = cfg.n_rollouts
    scale = sys.d_x / cfg.radius**2

    z = _query_normals(cfg, query_index, d_k + sys.d_x)
    u, x = z[:, :d_k], z[:, d_k:]
    dirs = (u / _row_norms(u)).reshape((n,) + K.shape)
    x0s = cfg.radius * x / _row_norms(x)
    gains = np.concatenate([K + r_s * dirs, K - r_s * dirs])
    batch = rollout_cost_batch(
        sys, gains, gamma, np.vstack([x0s, x0s]), cfg.horizon, cost
    )
    f = np.where(batch.diverged, np.nan, scale * batch.costs)
    f_plus, f_minus = f[:n], f[n:]
    valid = np.isfinite(f_plus) & np.isfinite(f_minus)
    used = int(valid.sum())
    if used == 0:
        raise DivergedAllError("all two-point direction pairs were dropped")
    coeff = (d_k / (2.0 * r_s)) * (f_plus[valid] - f_minus[valid])
    grad, stderr = _mean_stderr(coeff[:, None, None] * dirs[valid])
    return QueryResult(
        value=float(0.5 * (f_plus[valid] + f_minus[valid]).mean()),
        gradient=grad,
        stderr=stderr,
        capped=used < n,
        rollouts_used=used,
        dropped=n - used,
    )
