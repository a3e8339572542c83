"""Discount annealing: stabilize an unknown system by a sequence of damped
policy-gradient solves.

The loop starts from a discount gamma_0 small enough that the zero gain is
stable on the damped dynamics, solves the discounted problem to a fixed gap
by policy gradients, then searches for the next discount at which the cost
of the current gain grows by a constant factor (between ``c1`` and ``c2``).
Repeating until gamma reaches 1 yields a stabilizing gain for the original
system using only cost and gradient queries.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import oracles
from .dynamics import NonlinearSystem, jacobian_linearization
from .lqr import lqr_cost, lqr_grad
from .matops import UnstableError, solve_dare, spectral_radius
from .model import CostSpec, LinearSystem, check_gamma


class InnerDivergedError(RuntimeError):
    """The policy-gradient inner loop lost stability and could not recover."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.anneal_iteration = iteration


class BudgetExceededError(RuntimeError):
    """A search or the outer loop exhausted its query budget."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.anneal_iteration = iteration


class AdamOptimizer:
    """Adam with bias correction; ``update`` returns the step to subtract."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def update(self, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.BETA1 * self.m + (1.0 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1.0 - self.BETA2) * grad**2
        m_hat = self.m / (1.0 - self.BETA1**self.t)
        v_hat = self.v / (1.0 - self.BETA2**self.t)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + self.EPS)


# Fixed-step mode gives up after GUARD_WINDOW consecutive cost estimates that
# are capped, not finite, or above GUARD_FACTOR times the first estimate.
GUARD_WINDOW = 5
GUARD_FACTOR = 10.0


@dataclass
class PgConfig:
    """Inner-loop settings.

    ``target_gap`` set means gap mode: iterate until the measured cost is
    within ``target_gap`` of ``optimal_cost`` (requires an objective that
    knows its optimum).  ``target_gap=None`` means fixed-step mode: run
    exactly ``max_steps`` gradient steps and keep the best measured iterate.
    """

    optimizer: str = "adam"  # "adam" | "gd"
    learning_rate: float | None = None
    max_steps: int = 200
    target_gap: float | None = None


@dataclass
class PgObjective:
    """What the inner loop sees: gradient and capped-cost queries.

    ``grad_fn(K) -> (gradient, cost estimate, capped)`` and
    ``eval_fn(K) -> (cost estimate, capped)``; estimates are finite floats
    (infinite exact costs arrive as ``inf`` with ``capped=True``).  Gap mode
    reads only the gradient from ``grad_fn`` and measures costs with
    ``eval_fn``, so an exact objective returns ``nan`` as its cost estimate
    there rather than solving for a value nobody reads.
    """

    grad_fn: Callable[[np.ndarray], tuple[np.ndarray, float, bool]]
    eval_fn: Callable[[np.ndarray], tuple[float, bool]]
    optimal_cost: float | None = None


@dataclass
class PgResult:
    gain: np.ndarray
    steps: int
    costs: list[float]


def policy_gradient(
    objective: PgObjective, K0: np.ndarray, cfg: PgConfig
) -> PgResult:
    """Minimize the objective from K0 by first-order queries.

    Gap mode runs backtracking gradient descent on exact queries until the
    certified gap to ``objective.optimal_cost`` is at most ``target_gap``.
    Fixed-step mode runs ``max_steps`` optimizer updates on (noisy) gradient
    queries and returns the best iterate by measured cost; five consecutive
    capped or guard-breaking cost estimates raise ``InnerDivergedError``.
    """
    K0 = np.asarray(K0, dtype=float)
    if cfg.target_gap is not None:
        if objective.optimal_cost is None:
            raise ValueError("gap mode needs an objective with a known optimum")
        return _pg_gap_mode(objective, K0, cfg)
    return _pg_fixed_steps(objective, K0, cfg)


def _pg_gap_mode(objective: PgObjective, K0, cfg: PgConfig) -> PgResult:
    j0, capped = objective.eval_fn(K0)
    if capped or not np.isfinite(j0):
        raise ValueError("objective is not finite at the initial gain")
    best_k, best_j = K0.copy(), j0
    eta = cfg.learning_rate or 1e-2
    costs = [j0]
    steps = 0
    while steps < cfg.max_steps:
        if best_j - objective.optimal_cost <= cfg.target_gap:
            break
        grad, _, _ = objective.grad_fn(best_k)
        accepted = False
        for _ in range(80):
            trial = best_k - eta * grad
            jt, capped_t = objective.eval_fn(trial)
            if np.isfinite(jt) and not capped_t and jt < best_j:
                best_k, best_j = trial, jt
                eta *= 1.5
                accepted = True
                break
            eta *= 0.5
        steps += 1
        costs.append(best_j)
        if not accepted:
            raise InnerDivergedError(
                f"line search stalled at cost {best_j:.6g} "
                f"(gap {best_j - objective.optimal_cost:.3g} > {cfg.target_gap:.3g})"
            )
    else:
        raise BudgetExceededError(
            f"gap {best_j - objective.optimal_cost:.3g} not reached "
            f"within {cfg.max_steps} gradient steps"
        )
    return PgResult(gain=best_k, steps=steps, costs=costs)


def _pg_fixed_steps(objective: PgObjective, K0, cfg: PgConfig) -> PgResult:
    if cfg.learning_rate is None:
        raise ValueError("fixed-step mode needs an explicit learning rate")
    opt = AdamOptimizer(cfg.learning_rate) if cfg.optimizer == "adam" else None
    K = K0.copy()
    best_k, best_j = None, np.inf
    j_ref = None
    costs: list[float] = []
    bad_streak = 0
    for _ in range(cfg.max_steps):
        grad, value, capped = objective.grad_fn(K)
        if j_ref is None:
            if not np.isfinite(value):
                raise ValueError("objective is not finite at the initial gain")
            j_ref = value
        costs.append(value)
        bad = capped or not np.isfinite(value) or value > GUARD_FACTOR * j_ref
        if bad:
            bad_streak += 1
            if bad_streak >= GUARD_WINDOW:
                raise InnerDivergedError(
                    f"cost estimate stayed capped or above "
                    f"{GUARD_FACTOR:g}x the initial cost for "
                    f"{GUARD_WINDOW} consecutive steps"
                )
        else:
            bad_streak = 0
            if value < best_j:
                best_k, best_j = K.copy(), value
        step = opt.update(grad) if opt is not None else cfg.learning_rate * grad
        K = K - step
    if best_k is None:
        raise InnerDivergedError("no finite cost estimate observed")
    return PgResult(gain=best_k, steps=cfg.max_steps, costs=costs)


@dataclass
class SearchBracket:
    """Accept window for the discount search.

    ``f1_bar`` and ``f2_bar`` are the estimated lower/upper cost targets
    (about ``c1`` and ``c2`` times the cost at the current discount) and
    ``eps`` the evaluation tolerance used in the accept rule.
    """

    f1_bar: float
    f2_bar: float
    eps: float
    budget: int = 200

    def __post_init__(self):
        if not (0.0 < self.f1_bar < self.f2_bar):
            raise ValueError("need 0 < f1_bar < f2_bar")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.budget < 2:
            raise ValueError("budget must allow at least two queries")


def binary_search_gamma(
    evaluator: Callable[[float], float], gamma_t: float, bracket: SearchBracket
) -> float:
    """Find gamma' in [gamma_t, 1] whose capped cost lands in the bracket.

    Relies on the cost being nondecreasing in gamma (linear systems).  First
    queries gamma = 1: if even there the cost does not exceed the bracket,
    returns 1 (termination branch).  Otherwise bisects, moving the upper end
    down when the value overshoots ``f2_bar + eps`` and the lower end up when
    it undershoots ``f1_bar + eps``.
    """
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


def random_search_gamma(
    evaluator: Callable[[float], float],
    gamma_t: float,
    bracket: SearchBracket,
    rng: np.random.Generator,
    max_iters: int = 500,
) -> float:
    """Monotonicity-free discount search: sample gamma uniform on [gamma_t, 1]
    and accept when the capped cost lands inside [f1_bar, f2_bar].

    Uses the same gamma = 1 termination branch as the binary search.
    """
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


@dataclass
class AnnealConfig:
    """Outer-loop settings for ``discount_anneal``.

    ``oracle_mode="exact"`` solves the inner problems against the Riccati /
    Lyapunov solvers on the (declared or linearized) system matrices;
    ``"sampled"`` uses Monte-Carlo queries through the simulator and needs
    ``oracle`` set.  The starting discount, the search method, its tolerance
    and its query budget are derived, not configured (see ``discount_anneal``).
    """

    oracle_mode: str = "exact"  # "exact" | "sampled"
    seed: int = 0
    c1: float = 2.5
    c2: float = 8.0
    pg_steps: int = 200
    pg_optimizer: str = "adam"
    learning_rate: float | None = None
    exact_max_steps: int = 100_000
    oracle: oracles.OracleConfig | None = None
    max_outer: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        if self.oracle_mode not in ("exact", "sampled"):
            raise ValueError(f"unknown oracle_mode {self.oracle_mode!r}")
        if not (1.0 < self.c1 < self.c2):
            raise ValueError("need 1 < c1 < c2")
        if self.pg_optimizer not in ("adam", "gd"):
            raise ValueError(f"unknown pg_optimizer {self.pg_optimizer!r}")
        if self.pg_steps < 0 or self.exact_max_steps < 0:
            raise ValueError("pg_steps and exact_max_steps must be nonnegative")
        if self.learning_rate is not None and not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.oracle_mode == "sampled" and self.oracle is None:
            raise ValueError("sampled mode needs an OracleConfig")


@dataclass
class IterationRecord:
    iteration: int
    gamma: float
    gamma_next: float | None
    inner_steps: int
    cost_start: float
    cost_end: float
    cost_next_gamma: float | None
    optimal_cost: float | None
    search_queries: int
    search_transcript: list[dict]
    gain: list


@dataclass
class AnnealState:
    """Progress of an annealing run; serializes to the run manifest."""

    gamma0: float
    gamma: float
    iteration: int
    gain: np.ndarray
    history: list[IterationRecord] = field(default_factory=list)
    query_counter: int = 0  # eval_queries + grad_queries
    eval_queries: int = 0
    grad_queries: int = 0
    done: bool = False
    final_spectral_radius: float | None = None

    @property
    def outer_iterations(self) -> int:
        return len(self.history)

    @property
    def gammas(self) -> list[float]:
        return [self.gamma0] + [
            r.gamma_next for r in self.history if r.gamma_next is not None
        ]

    def to_dict(self) -> dict:
        return {**asdict(self), "gain": np.asarray(self.gain).tolist()}

    @staticmethod
    def from_dict(d: dict) -> "AnnealState":
        history = [IterationRecord(**r) for r in d["history"]]
        gain = np.array(d["gain"], dtype=float)
        return AnnealState(**{**d, "gain": gain, "history": history})


def config_hash(cfg: AnnealConfig) -> str:
    """Hash of the fields that determine the run's trajectory.

    Operational fields (iteration cap, output directory) are excluded so an
    interrupted run can be resumed with a larger budget or a new location.
    """
    fields = asdict(cfg)
    fields.pop("max_outer")
    fields.pop("out_dir")
    payload = json.dumps(fields, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class _ExactOracle:
    """Cost/gradient queries answered by the exact solvers on (A, B)."""

    def __init__(
        self, sys: LinearSystem, cost: CostSpec, eval_queries=0, grad_queries=0
    ):
        self.sys = sys
        self.cost = cost
        self.eval_queries = eval_queries
        self.grad_queries = grad_queries

    def optimum(self, gamma: float) -> float:
        p_star, _ = solve_dare(self.sys, self.cost, gamma)
        return float(np.trace(p_star))

    def evaluate(self, K, gamma: float, cap: float = np.inf) -> tuple[float, bool]:
        self.eval_queries += 1
        try:
            j = lqr_cost(self.sys, self.cost, K, gamma)
        except UnstableError:
            return (cap if np.isfinite(cap) else np.inf), True
        return (min(j, cap), j >= cap) if np.isfinite(cap) else (j, False)

    def gradient(self, K, gamma: float) -> tuple[np.ndarray, float, bool]:
        self.grad_queries += 1
        return lqr_grad(self.sys, self.cost, K, gamma), np.nan, False


class _SampledOracle:
    """Cost/gradient queries answered by seeded Monte-Carlo rollouts; each
    draws the noise substream numbered by the count of queries before it."""

    def __init__(
        self,
        sys: NonlinearSystem,
        cost: CostSpec,
        base: oracles.OracleConfig,
        eval_queries: int = 0,
        grad_queries: int = 0,
    ):
        self.sys = sys
        self.cost = cost
        self.base = base
        self.eval_queries = eval_queries
        self.grad_queries = grad_queries

    def evaluate(self, K, gamma: float, cap: float = np.inf) -> tuple[float, bool]:
        idx = self.eval_queries + self.grad_queries
        self.eval_queries += 1
        cfg = replace(self.base, cap=cap)
        res = oracles.eps_eval(self.sys, K, gamma, cfg, self.cost, query_index=idx)
        return res.value, res.capped

    def gradient(self, K, gamma: float) -> tuple[np.ndarray, float, bool]:
        idx = self.eval_queries + self.grad_queries
        self.grad_queries += 1
        if self.base.estimator == "zeroth":
            res = oracles.eps_grad_zeroth_order(
                self.sys, K, gamma, self.base, self.cost, query_index=idx
            )
        else:
            res = oracles.eps_grad_sensitivity(
                self.sys, K, gamma, self.base, self.cost, query_index=idx
            )
        value = res.value if res.value is not None else np.inf
        return res.gradient, value, res.capped


# Manifests are strict JSON: a non-finite float (``OracleConfig.cap`` is
# inf by default) is written as the string "inf", "-inf" or "nan".
_TOKENS = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


def _write_manifest(cfg: AnnealConfig, state: AnnealState, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": asdict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "state": state.to_dict(),
    }
    tmp = out_dir / "manifest.json.tmp"
    manifest = json.loads(json.dumps(manifest, default=str), parse_constant=_TOKENS.get)
    tmp.write_text(json.dumps(manifest, indent=2, allow_nan=False))
    tmp.replace(out_dir / "manifest.json")
    with open(out_dir / "gains.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        d_u, d_x = np.asarray(state.gain).shape
        writer.writerow(
            ["iteration", "gamma"]
            + [f"k{a}{b}" for a in range(d_u) for b in range(d_x)]
        )
        for rec in state.history:
            flat = np.array(rec.gain, dtype=float).reshape(-1)
            writer.writerow(
                [rec.iteration, repr(float(rec.gamma))]
                + [repr(float(v)) for v in flat]
            )


def load_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
    resulting gain is returned together with the run state.

    gamma_0 is ``min(1, 0.9 / ||A||^2)`` on the declared or linearized ``A``.
    Declared-linear systems are searched by bisection with evaluation
    tolerance ``0.1 d_x`` and ``3 (ceil(4 ln max(e, c2 J)) + 10)`` queries for
    a gain of cost J, others by seeded random search with ``0.01 d_x``.

    The returned gain is certified on the declared or linearized system:
    ``spectral_radius(A + B K) < 1`` or ``UnstableError`` is raised.  For a
    simulator-only system that is the local guarantee of the Jacobian
    linearization at the origin.
    """
    cfg = cfg or AnnealConfig()
    d_x, d_u = sys.d_x, sys.d_u
    if cost is None:
        cost = CostSpec.identity(d_x, d_u)
    if cost.min_eig() < 1.0 - 1e-12:
        raise ValueError(
            "annealing requires Q and R with smallest eigenvalue at least 1"
        )

    declared_linear = sys.linear is not None
    lin = sys.linear if declared_linear else jacobian_linearization(sys)
    eps = (0.1 if declared_linear else 0.01) * d_x

    if resume_from is not None:
        manifest = load_manifest(resume_from)
        if manifest["config_hash"] != config_hash(cfg):
            raise ValueError(
                "manifest was produced under a different configuration; refusing to resume"
            )
        state = AnnealState.from_dict(manifest["state"])
    else:
        gamma0 = min(1.0, 0.9 / np.linalg.norm(lin.A, 2) ** 2)
        state = AnnealState(
            gamma0=gamma0, gamma=gamma0, iteration=0, gain=np.zeros((d_u, d_x))
        )

    exact = cfg.oracle_mode == "exact"
    counts = (state.eval_queries, state.grad_queries)
    if exact:
        oracle = _ExactOracle(lin, cost, *counts)
        pg_cfg = PgConfig(
            optimizer="gd",
            learning_rate=cfg.learning_rate,
            max_steps=cfg.exact_max_steps,
            target_gap=float(d_x),
        )
    else:
        oracle = _SampledOracle(sys, cost, cfg.oracle, *counts)
        pg_cfg = PgConfig(
            optimizer=cfg.pg_optimizer,
            learning_rate=cfg.learning_rate or 0.01 / cfg.oracle.radius,
            max_steps=cfg.pg_steps,
        )

    out_dir = Path(cfg.out_dir) if cfg.out_dir is not None else None
    K = np.asarray(state.gain, dtype=float)
    while True:
        t = state.iteration
        if t >= cfg.max_outer:
            raise BudgetExceededError(
                f"annealing exceeded {cfg.max_outer} outer iterations", iteration=t
            )
        gamma = state.gamma
        final = gamma >= 1.0 - 1e-12
        gamma_next = None
        transcript: list[dict] = []
        try:
            objective = PgObjective(
                grad_fn=lambda K: oracle.gradient(K, gamma),
                eval_fn=lambda K: oracle.evaluate(K, gamma),
                optimal_cost=oracle.optimum(gamma) if exact else None,
            )
            pg = policy_gradient(objective, K, pg_cfg)
            K = pg.gain
            j_hat = pg.costs[-1]
            if not final:
                j_hat, j_capped = oracle.evaluate(K, gamma)
                if j_capped or not np.isfinite(j_hat):
                    raise InnerDivergedError(
                        f"cost estimate at gamma={gamma:g} is not finite after the inner solve"
                    )
                depth = math.ceil(4.0 * math.log(max(math.e, cfg.c2 * j_hat)))
                bracket = SearchBracket(
                    f1_bar=(cfg.c1 + 0.25) * j_hat,
                    f2_bar=(cfg.c2 - 0.75) * j_hat,
                    eps=eps,
                    budget=3 * (depth + 10),
                )
                cap = cfg.c2 * j_hat + 2.0 * eps

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
                if gamma_next > 1.0 - 1e-12:
                    gamma_next = 1.0
        except (InnerDivergedError, BudgetExceededError) as exc:
            exc.anneal_iteration = t
            raise
        except oracles.DivergedAllError as exc:
            raise InnerDivergedError(str(exc), iteration=t) from exc
        state.history.append(
            IterationRecord(
                iteration=t,
                gamma=1.0 if final else gamma,
                gamma_next=gamma_next,
                inner_steps=pg.steps,
                cost_start=pg.costs[0],
                cost_end=j_hat,
                cost_next_gamma=transcript[-1]["value"] if transcript else None,
                optimal_cost=objective.optimal_cost,
                search_queries=len(transcript),
                search_transcript=transcript,
                gain=K.tolist(),
            )
        )
        state.gain = K
        state.iteration = t + 1
        state.eval_queries = oracle.eval_queries
        state.grad_queries = oracle.grad_queries
        state.query_counter = oracle.eval_queries + oracle.grad_queries
        if final:
            state.done = True
            break
        state.gamma = gamma_next
        if out_dir is not None:
            _write_manifest(cfg, state, out_dir)

    rho = spectral_radius(lin.closed_loop(K))
    state.final_spectral_radius = rho
    if rho >= 1.0:
        raise UnstableError(
            f"annealing finished with an unstable closed loop (rho={rho:.6g})"
        )
    if out_dir is not None:
        _write_manifest(cfg, state, out_dir)
    return K, state
