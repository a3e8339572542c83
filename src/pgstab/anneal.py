"""Discount annealing: stabilize an unknown system by a sequence of damped
policy-gradient solves.

The loop starts from a discount gamma_0 small enough that the zero gain is
stable on the damped dynamics, solves the discounted problem to a fixed gap
by policy gradients, then searches for the next discount at which the cost
of the current gain grows by a constant factor (between ``C1`` and ``C2``).
Repeating until gamma reaches 1 yields a stabilizing gain for the original
system using only cost and gradient queries (only cost queries in exact
mode, whose inner loop is policy iteration).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import files, oracles
from .dynamics import NonlinearSystem, jacobian_linearization
from .lqr import lqr_cost, value_matrix
from .matops import UnstableError, solve_dare, spectral_radius
from .model import CostSpec, LinearSystem, check_count


class AnnealError(RuntimeError):
    """A failed annealing run; ``discount_anneal`` sets ``anneal_iteration`` to
    the outer iteration where it failed (``None`` when raised outside a run)."""

    anneal_iteration: int | None = None


class InnerDivergedError(AnnealError):
    """The policy-gradient inner loop lost stability and could not recover."""


class BudgetExceededError(AnnealError):
    """A search or the outer loop exhausted its query budget."""


class AdamOptimizer:
    """Adam with bias correction; ``update`` returns the step to subtract."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, rate: float):
        self.rate = rate
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def update(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad**2
        m_hat = self.m / (1.0 - self.BETA1**self.t)
        v_hat = self.v / (1.0 - self.BETA2**self.t)
        return self.rate * m_hat / (np.sqrt(v_hat) + self.EPS)


# The paper's growth window: the next discount is searched for where the cost
# of the new gain has grown by a factor between C1 and C2.
C1 = 2.5
C2 = 8.0

RANDOM_SEARCH_QUERIES = 501  # random search's budget: gamma = 1, then 500 samples


@dataclass
class PgResult:
    """One inner solve: the returned gain, the steps taken, the cost measured
    at each step (the start's first), the value and cap flag of the last cost
    query, of the returned gain, and the optimal cost when the oracle knows it."""

    gain: np.ndarray
    steps: int
    costs: list[float]
    cost: float
    optimal_cost: float | None = None
    capped: bool = False


def policy_gradient(oracle, K0: np.ndarray, gamma: float) -> PgResult:
    """Solve the problem damped by ``gamma`` from K0 by the oracle's own inner
    loop (``_ExactOracle.solve`` or ``_SampledOracle.solve``).  It stays a
    module function because perfbench wraps it to count inner steps."""
    return oracle.solve(K0, gamma)


@dataclass
class SearchBracket:
    """Accept window for the discount search.

    ``f1_bar`` and ``f2_bar`` are the estimated lower/upper cost targets
    (about ``C1`` and ``C2`` times the cost at the current discount),
    ``eps`` the evaluation tolerance used in the accept rule and ``budget``
    the most queries a search may make, the gamma = 1 query included.  A
    plain record, built by ``discount_anneal`` from a checked cost and not
    re-checked: a window nothing lands in ends in ``BudgetExceededError``.
    """

    f1_bar: float
    f2_bar: float
    eps: float
    budget: int


def _search(
    evaluator: Callable[[float], float],
    gamma_t: float,
    bracket: SearchBracket,
    propose: Callable[[float, float], float],
    tol: float,
) -> float:
    """The loop both discount searches share.

    Queries gamma = 1 first and returns 1 when even there the cost does not
    exceed ``f2_bar + eps`` (termination branch).  Then evaluates up to
    ``bracket.budget - 1`` proposals ``x = propose(lo, hi)``: a value above
    ``f2_bar + tol`` (or NaN) moves ``hi`` down to x, one below
    ``f1_bar + tol`` moves ``lo`` up to x, and any other is accepted.
    """
    if float(evaluator(1.0)) <= bracket.f2_bar + bracket.eps:
        return 1.0
    lo, hi = gamma_t, 1.0
    for _ in range(bracket.budget - 1):
        x = propose(lo, hi)
        a = float(evaluator(x))
        if not a <= bracket.f2_bar + tol:
            hi = x
        elif a < bracket.f1_bar + tol:
            lo = x
        else:
            return x
    raise BudgetExceededError(f"no acceptable discount in {bracket.budget} queries")


def binary_search_gamma(
    evaluator: Callable[[float], float], gamma_t: float, bracket: SearchBracket
) -> float:
    """Find gamma' in [gamma_t, 1] whose capped cost lands in the bracket.

    Relies on the cost being nondecreasing in gamma (linear systems).  Bisects
    ``[gamma_t, 1]`` after the gamma = 1 termination branch, with the accept
    window ``[f1_bar + eps, f2_bar + eps]``, in at most ``bracket.budget``
    queries, the first one included.
    """
    def mid(lo: float, hi: float) -> float:
        return 0.5 * (lo + hi)

    return _search(evaluator, gamma_t, bracket, mid, bracket.eps)


def random_search_gamma(
    evaluator: Callable[[float], float],
    gamma_t: float,
    bracket: SearchBracket,
    rng: np.random.Generator,
) -> float:
    """Monotonicity-free discount search: sample gamma uniform on [gamma_t, 1]
    and accept when the capped cost lands inside [f1_bar, f2_bar].

    Uses the same gamma = 1 termination branch as the binary search and at
    most ``bracket.budget`` queries, that one included.
    """
    def uniform(lo: float, hi: float) -> float:
        return float(rng.uniform(gamma_t, 1.0))

    return _search(evaluator, gamma_t, bracket, uniform, 0.0)


@dataclass
class AnnealConfig:
    """Outer-loop settings for ``discount_anneal``.

    ``oracle_mode="exact"`` solves the inner problems against the Riccati /
    Lyapunov solvers on the (declared or linearized) system matrices;
    ``"sampled"`` uses Monte-Carlo queries through the simulator, needs
    ``oracle`` set and at least one step in ``pg_steps``.  The growth window
    ``C1``/``C2``, the inner step sizes, the starting discount, the search
    method, its tolerance and its query budget are constants or derived, not
    configured (see ``discount_anneal``).  ``pg_optimizer`` admits only
    ``"adam"``; it stays a field because perfbench's workloads set it.
    """

    oracle_mode: str = "exact"  # "exact" | "sampled"
    seed: int = 0
    pg_steps: int = 200
    pg_optimizer: str = "adam"
    exact_max_steps: int = 100_000
    oracle: oracles.OracleConfig | None = None
    max_outer: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        if self.oracle_mode not in ("exact", "sampled"):
            raise ValueError(f"unknown oracle_mode {self.oracle_mode!r}")
        if self.pg_optimizer != "adam":
            raise ValueError(f"unknown pg_optimizer {self.pg_optimizer!r}")
        for name in ("seed", "pg_steps", "exact_max_steps", "max_outer"):
            check_count(getattr(self, name), name, 0)
        if self.oracle_mode == "sampled" and (self.oracle is None or self.pg_steps < 1):
            raise ValueError("sampled mode needs an OracleConfig and pg_steps >= 1")


@dataclass
class IterationRecord:
    """One outer iteration; ``gamma_next`` is None on the final, undamped one."""

    gamma: float
    gamma_next: float | None
    inner_steps: int
    cost_start: float
    cost_end: float
    optimal_cost: float | None
    search_transcript: list[dict]
    gain: list

    @property
    def search_queries(self) -> int:
        return len(self.search_transcript)


def _from_manifest(cls, d: dict):
    names = {f.name for f in fields(cls)}
    if set(d) != names:
        raise ValueError(
            f"manifest {cls.__name__} holds unknown keys {sorted(set(d) - names)} "
            f"and lacks {sorted(names - set(d))}; refusing to resume"
        )
    return cls(**d)


@dataclass
class AnnealState:
    """Progress of an annealing run, held as its history and the counts of
    all its oracle queries; serializes to the run manifest.  The current
    discount is ``gammas[-1]`` and the current gain ``history[-1].gain``."""

    gamma0: float
    history: list[IterationRecord] = field(default_factory=list)
    eval_queries: int = 0
    grad_queries: int = 0
    final_spectral_radius: float | None = None

    @property
    def outer_iterations(self) -> int:
        return len(self.history)

    @property
    def gammas(self) -> list[float]:
        return [self.gamma0] + [
            r.gamma_next for r in self.history if r.gamma_next is not None
        ]

    @property
    def done(self) -> bool:
        return bool(self.history) and self.history[-1].gamma_next is None

    @staticmethod
    def from_dict(d: dict) -> "AnnealState":
        """The state a manifest holds; keys the fields do not match are refused."""
        state = _from_manifest(AnnealState, d)
        state.history = [_from_manifest(IterationRecord, r) for r in state.history]
        return state


_UNHASHED = {
    "exact": ("max_outer", "out_dir", "pg_steps", "pg_optimizer", "oracle"),
    "sampled": ("max_outer", "out_dir", "exact_max_steps"),
}


def config_hash(cfg: AnnealConfig) -> str:
    """Hash of the fields that determine the run's trajectory in its mode.

    Operational fields (iteration cap, output directory) are excluded so an
    interrupted run can be resumed with a larger budget or a new location.
    So are the fields the mode never reads: ``pg_steps``, ``pg_optimizer``
    and ``oracle`` in exact mode, ``exact_max_steps`` in sampled mode.
    """
    return files.digest(cfg, *_UNHASHED[cfg.oracle_mode])


@dataclass
class _ExactOracle:
    """Cost queries answered by the exact solvers on (A, B), counted in the
    run's ``state``; the inner loop makes no gradient query."""

    sys: LinearSystem
    cost: CostSpec
    cfg: AnnealConfig
    state: AnnealState

    def evaluate(self, K, gamma: float, cap: float = np.inf) -> tuple[float, bool]:
        self.state.eval_queries += 1
        try:
            j = lqr_cost(self.sys, self.cost, K, gamma)
        except UnstableError:
            j = np.inf
        return min(j, cap), j >= cap

    def solve(self, K0, gamma: float) -> PgResult:
        """Policy iteration (Hewer 1971) from K0 until the cost is within d_x
        of tr P*(gamma), the ``solve_dare`` optimum, in at most
        ``exact_max_steps`` steps.  Each step moves to the greedy gain
        ``-(R + gamma B'PB)^-1 gamma B'PA`` of the iterate's value matrix P,
        the Gauss-Newton policy-gradient step at step size 1/2 (Fazel et al.
        2018).  The start and each step are evaluated by one counted
        ``value_matrix`` call; the evaluation that stops the loop is returned.
        From a stable start every iterate stays stable and its cost falls; an
        iterate that ``dlyap`` refuses, or whose cost does not strictly fall,
        raises ``InnerDivergedError``."""
        sys, cost = self.sys, self.cost
        p_star, _ = solve_dare(sys, cost, gamma)
        optimal_cost = float(np.trace(p_star))
        K = np.array(K0, dtype=float)
        costs: list[float] = []
        while True:
            self.state.eval_queries += 1
            try:
                P = value_matrix(sys, cost, K, gamma)
            except UnstableError as exc:
                if not costs:
                    raise ValueError("the cost at the initial gain is not finite") from None
                raise InnerDivergedError(
                    f"policy-iteration step {len(costs)} left the stable gains: {exc}"
                ) from exc
            j = float(np.trace(P))
            if costs and not j < costs[-1]:
                raise InnerDivergedError(
                    f"policy-iteration step {len(costs)} did not lower the cost "
                    f"({costs[-1]:.6g} -> {j:.6g})"
                )
            costs.append(j)
            if not j - optimal_cost > sys.d_x:
                return PgResult(K, len(costs) - 1, costs, j, optimal_cost)
            if len(costs) > self.cfg.exact_max_steps:
                raise BudgetExceededError(
                    f"gap {j - optimal_cost:.3g} not reached "
                    f"within {self.cfg.exact_max_steps} policy-iteration steps"
                )
            gbp = gamma * sys.B.T @ P
            K = -np.linalg.solve(cost.R + gbp @ sys.B, gbp @ sys.A)


@dataclass
class _SampledOracle:
    """Cost/gradient queries answered by seeded Monte-Carlo rollouts, counted
    in the run's ``state``; each draws the substream numbered by those before it."""

    sys: NonlinearSystem
    cost: CostSpec
    cfg: AnnealConfig
    state: AnnealState

    def evaluate(self, K, gamma: float, cap: float = np.inf) -> tuple[float, bool]:
        idx = self.state.eval_queries + self.state.grad_queries
        self.state.eval_queries += 1
        res = oracles.eps_eval(
            self.sys, K, gamma, self.cfg.oracle, self.cost, query_index=idx, cap=cap
        )
        return res.value, res.capped

    def gradient(self, K, gamma: float) -> tuple[np.ndarray, float, bool]:
        idx = self.state.eval_queries + self.state.grad_queries
        self.state.grad_queries += 1
        estimator = (
            oracles.eps_grad_zeroth_order
            if self.cfg.oracle.estimator == "zeroth"
            else oracles.eps_grad_sensitivity
        )
        try:
            res = estimator(self.sys, K, gamma, self.cfg.oracle, self.cost, query_index=idx)
        except oracles.DivergedAllError as exc:
            raise InnerDivergedError(str(exc)) from exc
        return res.gradient, res.value, res.capped

    def solve(self, K0, gamma: float) -> PgResult:
        """``pg_steps`` Adam steps from K0 at the rate ``0.01 / radius``;
        returns the iterate with the lowest usable estimate (finite and
        uncapped) from its own gradient query, with one fresh cost query of
        it (that lowest one is biased low).  ``InnerDivergedError`` is raised
        when no estimate was usable, or a gradient query lost every rollout."""
        opt = AdamOptimizer(0.01 / self.cfg.oracle.radius)
        K = np.array(K0, dtype=float)
        best_k, best_j = None, np.inf
        costs: list[float] = []
        for _ in range(self.cfg.pg_steps):
            grad, value, capped = self.gradient(K, gamma)
            if not costs and not np.isfinite(value):
                raise ValueError("the cost at the initial gain is not finite")
            costs.append(value)
            if not capped and value < best_j:
                best_k, best_j = K, value
            K = K - opt.update(grad)
        if best_k is None:
            raise InnerDivergedError(
                f"none of the {self.cfg.pg_steps} cost estimates was finite and uncapped"
            )
        j, capped = self.evaluate(best_k, gamma)
        return PgResult(best_k, self.cfg.pg_steps, costs, j, capped=capped)


def _snap(gamma: float) -> float:
    return 1.0 if gamma >= 1.0 - 1e-12 else gamma


def _write_manifest(cfg: AnnealConfig, state: AnnealState) -> None:
    out_dir = Path(cfg.out_dir)
    files.write_json(
        out_dir / "manifest.json",
        {"config": asdict(cfg), "config_hash": config_hash(cfg), "state": asdict(state)},
    )
    d_u, d_x = np.shape(state.history[-1].gain)
    files.write_csv(
        out_dir / "gains.csv",
        ["iteration", "gamma"] + [f"k{a}{b}" for a in range(d_u) for b in range(d_x)],
        [[t, rec.gamma, *np.ravel(rec.gain)] for t, rec in enumerate(state.history)],
    )


def discount_anneal(
    sys: NonlinearSystem,
    cost: CostSpec | None = None,
    cfg: AnnealConfig | None = None,
    *,
    resume_from=None,
) -> tuple[np.ndarray, AnnealState]:
    """Stabilize the system by annealing the discount from gamma_0 up to 1.

    Each outer iteration solves the damped problem at the current discount by
    policy gradients, then searches [gamma_t, 1] for a discount at which the
    measured cost of the new gain has grown into the configured bracket.
    Once gamma reaches 1 a final policy-gradient solve runs undamped and the
    resulting gain is returned together with the run state.  Each solve is
    one ``policy_gradient`` call, which runs the oracle's own inner loop:
    ``_ExactOracle.solve`` runs policy iteration, the Gauss-Newton policy
    gradient step, to within d_x of the Riccati optimum and makes no
    gradient query; ``_SampledOracle.solve`` runs ``pg_steps`` Adam steps.
    The solve's last cost query, of its gain, is the J the search and
    ``cost_end`` read; below gamma = 1 it must be finite and uncapped.

    gamma_0 is ``min(1, 0.9 / ||A||^2)`` on the declared or linearized ``A``;
    it or a searched discount within 1e-12 of 1 is taken as 1.
    Declared-linear systems are searched by bisection with evaluation
    tolerance ``0.1 d_x`` and ``3 (ceil(4 ln max(e, C2 J)) + 10)`` queries for
    a gain of cost J, others by seeded random search with ``0.01 d_x`` and
    ``RANDOM_SEARCH_QUERIES`` queries.

    The returned gain is certified on the declared or linearized system:
    ``spectral_radius(A + B K) < 1`` or ``UnstableError`` is raised.  For a
    simulator-only system that is the local guarantee of the Jacobian
    linearization at the origin.

    A failed inner solve or search raises an ``AnnealError``
    (``InnerDivergedError`` or ``BudgetExceededError``); a sampled solve
    fails when none of its estimates is finite and uncapped.  One clause tags
    every exception raised in an outer iteration with that iteration as
    ``anneal_iteration``, and a failed closing check carries the last one.

    ``resume_from`` continues the run a manifest holds, under the same
    ``config_hash``, which covers only the fields the oracle mode reads, and
    counts its queries on from the manifest's.  A finished run resumes to its
    stored gain with no oracle query, and goes through the same closing check.
    """
    cfg = cfg or AnnealConfig()
    d_x, d_u = sys.d_x, sys.d_u
    if cost is None:
        cost = CostSpec.identity(d_x, d_u)
    if (cost.d_x, cost.d_u) != (d_x, d_u):
        raise ValueError(
            f"cost has (d_x, d_u) = {(cost.d_x, cost.d_u)}, the system {(d_x, d_u)}"
        )
    if cost.min_eig() < 1.0 - 1e-12:
        raise ValueError(
            "annealing requires Q and R with smallest eigenvalue at least 1"
        )

    declared_linear = sys.linear is not None
    lin = sys.linear if declared_linear else jacobian_linearization(sys)
    eps = (0.1 if declared_linear else 0.01) * d_x

    if resume_from is not None:
        manifest = json.loads(Path(resume_from).read_text())
        if manifest["config_hash"] != config_hash(cfg):
            raise ValueError(
                "manifest was produced under a different configuration; refusing to resume"
            )
        state = AnnealState.from_dict(manifest["state"])
    else:
        state = AnnealState(gamma0=_snap(min(1.0, 0.9 / np.linalg.norm(lin.A, 2) ** 2)))

    if cfg.oracle_mode == "exact":
        oracle = _ExactOracle(lin, cost, cfg, state)
    else:
        oracle = _SampledOracle(sys, cost, cfg, state)

    K = np.array(state.history[-1].gain) if state.history else np.zeros((d_u, d_x))
    while not state.done:
        t = state.outer_iterations
        gamma = state.gammas[-1]
        gamma_next = None
        transcript: list[dict] = []
        try:
            if t >= cfg.max_outer:
                raise BudgetExceededError(f"annealing exceeded {cfg.max_outer} outer iterations")
            pg = policy_gradient(oracle, K, gamma)
            K = pg.gain
            if gamma < 1.0:
                if pg.capped or not np.isfinite(pg.cost):
                    raise InnerDivergedError(
                        f"cost estimate at gamma={gamma:g} is not finite "
                        "after the inner solve"
                    )
                depth = math.ceil(4.0 * math.log(max(math.e, C2 * pg.cost)))
                bracket = SearchBracket(
                    f1_bar=(C1 + 0.25) * pg.cost,
                    f2_bar=(C2 - 0.75) * pg.cost,
                    eps=eps,
                    budget=3 * (depth + 10) if declared_linear else RANDOM_SEARCH_QUERIES,
                )
                cap = C2 * pg.cost + 2.0 * eps

                def evaluator(g: float) -> float:
                    value, capped = oracle.evaluate(K, g, cap=cap)
                    transcript.append(
                        {"gamma": g, "value": value, "capped": bool(capped)}
                    )
                    return value

                if declared_linear:
                    gamma_next = binary_search_gamma(evaluator, gamma, bracket)
                else:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(cfg.seed, spawn_key=(0x5EA2C, t))
                    )
                    gamma_next = random_search_gamma(evaluator, gamma, bracket, rng)
                gamma_next = _snap(gamma_next)
        except Exception as exc:
            exc.anneal_iteration = t
            raise
        state.history.append(
            IterationRecord(
                gamma=gamma,
                gamma_next=gamma_next,
                inner_steps=pg.steps,
                cost_start=pg.costs[0],
                cost_end=pg.cost,
                optimal_cost=pg.optimal_cost,
                search_transcript=transcript,
                gain=K.tolist(),
            )
        )
        if cfg.out_dir is not None and not state.done:
            _write_manifest(cfg, state)

    rho = spectral_radius(lin.closed_loop(K))
    state.final_spectral_radius = rho
    if rho >= 1.0:
        err = UnstableError(f"annealing finished with an unstable closed loop (rho={rho:.6g})")
        err.anneal_iteration = state.outer_iterations - 1
        raise err
    if cfg.out_dir is not None:
        _write_manifest(cfg, state)
    return K, state
