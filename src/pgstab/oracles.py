"""Simulator-only cost and gradient queries for damped closed loops.

A query draws N initial states uniformly from the sphere of radius r,
rolls the damped closed loop for H steps, and averages the undiscounted
stage costs scaled by ``d_x / r**2`` (so on linear systems the expectation
is the discounted cost ``tr(P)`` truncated at horizon H, independent of r).

Seeding contract: every query is pure given ``(cfg.seed, query_index)``.
Rollout i inside a query draws from the i-th child of
``SeedSequence(cfg.seed, spawn_key=(query_index,))``, so rollouts can be
evaluated in any order (or in parallel) without changing the result, and
distinct query indices give independent streams.  The seed words of all
children are computed at once, by numpy's SeedSequence hash run as uint32
array arithmetic, and equal those of numpy's spawned children bit for bit;
numpy still builds each rollout's ``Generator(PCG64)`` from them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import NonlinearSystem, lockstep, rollout_cost_batch
from .model import CostSpec


class DivergedAllError(RuntimeError):
    """Every rollout in a gradient query diverged; no estimate is available."""


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration for cost/gradient queries.

    ``cap`` bounds evaluation queries (values are reported as
    ``min(estimate, cap)``); ``smoothing_radius`` is the perturbation size of
    the two-point zeroth-order estimator.
    """

    n_rollouts: int = 100
    horizon: int = 200
    radius: float = 1.0
    seed: int = 0
    cap: float = np.inf
    smoothing_radius: float = 1e-2
    estimator: str = "sensitivity"  # "sensitivity" | "zeroth"

    def __post_init__(self):
        if self.n_rollouts < 1:
            raise ValueError("n_rollouts must be at least 1")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.radius <= 0 or self.smoothing_radius <= 0:
            raise ValueError("radius and smoothing_radius must be positive")
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        if self.estimator not in ("sensitivity", "zeroth"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


@dataclass
class QueryResult:
    """Outcome of a single oracle query.

    ``value`` is the (possibly capped) cost estimate; gradient queries also
    report the mean cost over the rollouts they kept.  ``stderr`` is a scalar
    for evaluations and an elementwise array for gradients.  ``capped`` means
    the cap bound or a divergence was hit, so ``value`` is only a lower
    witness of the true cost.
    """

    value: float | None
    gradient: np.ndarray | None
    stderr: float | np.ndarray
    capped: bool
    rollouts_used: int
    dropped: int = 0


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(x) -> list[int]:
    """SeedSequence's coercion of a nonnegative int, or a sequence of them,
    to uint32 words, least significant first."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & _MASK]
        while x := x >> 32:
            words.append(x & _MASK)
        return words
    return [w for v in x for w in _uint32_words(v)]


def _spawned_words(root: np.random.SeedSequence, n: int) -> np.ndarray:
    """``root.spawn(n)[i].generate_state(4, np.uint64)`` for every i, as (n, 4).

    The children's entropy differs only in its last word, the child index, so
    the hash runs on Python ints up to that word and on uint32 arrays across
    the n children from there; ``& _MASK`` keeps both in 32 bits.
    """
    run = _uint32_words(root.entropy)
    run += [0] * (root.pool_size - len(run))  # spawned children pad the seed
    entropy = run + _uint32_words(root.spawn_key) + [np.arange(n, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK
        value = value * hash_const & _MASK
        return value ^ value >> 16

    def mix(x, y):
        r = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
        return r ^ r >> 16

    size = root.pool_size
    pool = [hashmix(e) for e in entropy[:size]]
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[size:]:
        for dst in range(size):
            pool[dst] = mix(pool[dst], hashmix(e))

    state = np.empty((n, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % size] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK
        value = value * hash_const & _MASK
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed_type() -> type:
    """A numpy ``ISeedSequence`` that hands PCG64 seed words computed ahead
    of time.  Built on first use: subclassing it imports numpy.random, and
    importing that along with pgstab, before anything needs it, raised the
    peak RSS of benchmark runs by about 0.5 MiB (1%)."""

    class Words(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def _substream_normals(cfg: OracleConfig, query_index: int, d: int) -> np.ndarray:
    """Row i: ``d`` standard normals from rollout i's substream of the query."""
    root = np.random.SeedSequence(cfg.seed, spawn_key=(query_index,))
    words_seed = _words_seed_type()
    gens = (
        np.random.Generator(np.random.PCG64(words_seed(w)))
        for w in _spawned_words(root, cfg.n_rollouts)
    )
    z = np.empty((cfg.n_rollouts, d))
    for g, row in zip(gens, z):
        g.standard_normal(out=row)
    return z


def _row_norms(z: np.ndarray) -> np.ndarray:
    # np.vecdot sums each row as np.linalg.norm on that row does, bit for bit
    return np.sqrt(np.vecdot(z, z))[:, None]


def initial_states(cfg: OracleConfig, d_x: int, query_index: int) -> np.ndarray:
    """The N seeded initial states of a query, one per rollout substream:
    uniform on the sphere of radius ``cfg.radius``."""
    z = _substream_normals(cfg, query_index, d_x)
    return cfg.radius * z / _row_norms(z)


def eps_eval(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    cfg: OracleConfig,
    cost: CostSpec,
    query_index: int = 0,
) -> QueryResult:
    """Capped Monte-Carlo estimate of the damped closed-loop cost.

    Returns ``min(estimate, cfg.cap)`` with ``capped`` set when any rollout
    diverged or the estimate reached the cap.  Individual rollouts stop
    accumulating once they alone force the capped outcome
    (raw cost above ``cap * N * r^2 / d_x``), which bounds the work spent on
    destabilizing gains.
    """
    scale = sys.d_x / cfg.radius**2
    x0s = initial_states(cfg, sys.d_x, query_index)
    rollout_cap = (
        cfg.cap * cfg.n_rollouts / scale if np.isfinite(cfg.cap) else np.inf
    )
    batch = rollout_cost_batch(
        sys, K, gamma, x0s, cfg.horizon, cost, rollout_cap=rollout_cap
    )
    per_rollout = scale * batch.costs
    estimate = float(per_rollout.mean())
    stderr = (
        float(per_rollout.std(ddof=1) / np.sqrt(cfg.n_rollouts))
        if cfg.n_rollouts > 1
        else 0.0
    )
    capped = bool(batch.diverged.any() or batch.capped.any() or estimate >= cfg.cap)
    return QueryResult(
        value=float(min(estimate, cfg.cap)),
        gradient=None,
        stderr=stderr,
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
    """
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
        costs += (X * qx).sum(axis=1) + (u * ru).sum(axis=1)
        w = 2.0 * (qx + ru @ K)  # d(stage)/dx pulled back through u = Kx
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
    G, costs = run.carry[1][kept], run.carry[2][kept]
    n_used = G.shape[0]
    dropped = n - n_used
    if n_used == 0:
        raise DivergedAllError(
            f"all {n} sensitivity rollouts diverged at gamma={gamma:g}"
        )
    grad = scale * G.mean(axis=0).reshape(d_u, d_x)
    stderr = (
        scale * G.std(axis=0, ddof=1).reshape(d_u, d_x) / np.sqrt(n_used)
        if n_used > 1
        else np.zeros_like(grad)
    )
    return QueryResult(
        value=float(scale * costs.mean()),
        gradient=grad,
        stderr=stderr,
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
    """Two-point zeroth-order gradient from capped single-rollout evaluations.

    Each of the ``cfg.n_rollouts`` directions perturbs K by
    ``cfg.smoothing_radius`` along a random unit direction and differences two
    rollout costs started from the same sphere point.  The direction and the
    start come from one draw of ``K.size + d_x`` normals on the direction's
    own seeded substream, in that order, and all ``2 N`` rollouts are stepped
    as one batch.  Direction pairs with a diverged member are dropped and
    counted.
    """
    K = np.asarray(K, dtype=float)
    d_k = K.size
    r_s = cfg.smoothing_radius
    n = cfg.n_rollouts
    scale = sys.d_x / cfg.radius**2
    rollout_cap = cfg.cap / scale if np.isfinite(cfg.cap) else np.inf

    z = _substream_normals(cfg, query_index, d_k + sys.d_x)
    u, x = z[:, :d_k], z[:, d_k:]
    dirs = (u / _row_norms(u)).reshape((n,) + K.shape)
    x0s = cfg.radius * x / _row_norms(x)
    gains = np.concatenate([K + r_s * dirs, K - r_s * dirs])
    batch = rollout_cost_batch(
        sys,
        gains,
        gamma,
        np.vstack([x0s, x0s]),
        cfg.horizon,
        cost,
        rollout_cap=rollout_cap,
    )
    f = np.where(batch.diverged, np.nan, np.minimum(scale * batch.costs, cfg.cap))
    f_plus, f_minus = f[:n], f[n:]
    valid = np.isfinite(f_plus) & np.isfinite(f_minus)
    used = int(valid.sum())
    if used == 0:
        raise DivergedAllError("all two-point direction pairs were dropped")
    coeff = (d_k / (2.0 * r_s)) * (f_plus[valid] - f_minus[valid])
    estimates = coeff[:, None, None] * dirs[valid]
    grad = estimates.mean(axis=0)
    stderr = (
        estimates.std(axis=0, ddof=1) / np.sqrt(used)
        if used > 1
        else np.zeros_like(grad)
    )
    return QueryResult(
        value=float(0.5 * (f_plus[valid] + f_minus[valid]).mean()),
        gradient=grad,
        stderr=stderr,
        capped=used < n,
        rollouts_used=used,
        dropped=n - used,
    )
