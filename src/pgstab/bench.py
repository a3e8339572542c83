"""Benchmarks and report generation: region-of-attraction estimates, the
random linear suite, the cart-pole experiment, and the discounting
counterexample.  All outputs are plain CSV/JSON files with the
configuration hash and master seed alongside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import files, oracles
from .anneal import AnnealConfig, discount_anneal
from .dynamics import (
    CartPoleParams,
    NonlinearSystem,
    cartpole,
    jacobian_linearization,
    linear_as_nonlinear,
    lockstep,
)
from .lqr import lqr_cost, reward_shaping_counterexample
from .matops import NotStabilizableError, solve_dare, spectral_radius
from .model import CostSpec, LinearSystem, as_gain

# Reference value for an H-infinity controller synthesized with external
# tooling; reported for comparison only, never computed here.
HINF_REFERENCE_ROA = 0.506


@dataclass(frozen=True)
class RoaConfig:
    """Settings for the sampled region-of-attraction estimate."""

    directions: int = 64
    horizon: int = 2000
    delta_conv: float = 1e-3
    tol: float = 1e-3
    ceiling: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.directions < 1 or self.horizon < 1:
            raise ValueError("RoaConfig directions and horizon must be at least 1")
        if not 0.0 < self.delta_conv < 1.0:
            raise ValueError(f"delta_conv must lie in (0, 1), got {self.delta_conv}")
        if not (self.tol > 0.0 and 0.0 < self.ceiling < math.inf):
            raise ValueError("RoaConfig needs tol > 0 and a finite ceiling > 0")


@dataclass
class RoaReport:
    rho_roa: float
    radii: np.ndarray
    directions: np.ndarray
    config: RoaConfig

    def to_dict(self) -> dict:
        return {
            "rho_roa": self.rho_roa,
            "radii": self.radii.tolist(),
            "config": asdict(self.config),
        }


def _converged_mask(
    sys: NonlinearSystem,
    K: np.ndarray,
    x0s: np.ndarray,
    horizon: int,
    targets: np.ndarray,
) -> np.ndarray:
    """True per rollout if the undamped closed loop reaches ||x|| <= target
    within ``horizon`` steps.  The start itself is not tested: ``estimate_roa``
    starts every row outside its target, since ``delta_conv < 1``."""
    Kt = np.asarray(K, dtype=float).T.copy()
    tgt2 = np.asarray(targets, dtype=float) ** 2

    def advance(X, tgt2):
        X = np.asarray(sys.step(X, X @ Kt), dtype=float)
        return X, (tgt2,), np.vecdot(X, X) <= tgt2  # NaN and inf fail `<=`

    return lockstep(x0s, horizon, advance, (tgt2,)).stopped


def estimate_roa(
    sys: NonlinearSystem, K: np.ndarray, cfg: RoaConfig | None = None
) -> RoaReport:
    """Largest sphere of initial states from which the closed loop converges.

    Draws seeded random unit directions, bisects the critical radius along
    each (convergence means reaching ``||x|| <= delta_conv * radius`` within
    the horizon), and reports the minimum over directions.  Directions that
    still converge at the search ceiling report the ceiling.  A gain that
    is not finite or not ``(d_u, d_x)`` is refused with a ``ValueError``.
    """
    K = as_gain(K, sys.d_u, sys.d_x)
    cfg = cfg or RoaConfig()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0xD18,)))
    dirs = rng.standard_normal((cfg.directions, sys.d_x))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    lo = np.zeros(cfg.directions)
    hi = np.full(cfg.directions, cfg.ceiling)
    open_dirs = np.arange(cfg.directions)
    rounds = max(1, math.ceil(math.log2(cfg.ceiling / cfg.tol)))
    for r in range(rounds + 1):
        if open_dirs.size == 0:
            break
        # round 0 probes the ceiling itself; the rounds after it bisect
        mid = 0.5 * (lo[open_dirs] + hi[open_dirs]) if r else hi[open_dirs]
        conv = _converged_mask(
            sys,
            K,
            mid[:, None] * dirs[open_dirs],
            cfg.horizon,
            cfg.delta_conv * mid,
        )
        lo[open_dirs[conv]] = mid[conv]
        hi[open_dirs[~conv]] = mid[~conv]
        open_dirs = open_dirs[(hi[open_dirs] - lo[open_dirs]) > cfg.tol]
    return RoaReport(
        rho_roa=float(lo.min()), radii=lo, directions=dirs, config=cfg
    )


def _write_meta(out_dir: Path, name: str, config_obj) -> None:
    # hash everything except where the report lands, so reruns of the same
    # experiment into different directories carry the same identifier
    meta = {
        "report": name,
        "config": asdict(config_obj),
        "config_hash": files.digest(config_obj, "out_dir"),
        "seed": config_obj.seed,
    }
    files.write_json(out_dir / f"{name}.meta.json", meta)


def sample_stabilizable_system(rng: np.random.Generator, d_x: int) -> LinearSystem:
    """Random stabilizable (A, B) with open-loop spectral radius in (1, 2]."""
    while True:
        target = rng.uniform(1.0 + 1e-9, 2.0)
        A = rng.standard_normal((d_x, d_x))
        A *= target / spectral_radius(A)
        d_u = int(rng.integers(1, d_x + 1))
        B = rng.standard_normal((d_x, d_u))
        sys = LinearSystem(A, B)
        try:
            solve_dare(sys, CostSpec.identity(d_x, d_u), 1.0)
        except NotStabilizableError:
            continue
        return sys


@dataclass
class LinearSuiteConfig:
    instances: int = 10
    dims: tuple = (2, 3, 4)
    seed: int = 0
    modes: tuple = ("exact",)
    n_rollouts: int = 400
    horizon: int = 250
    pg_steps: int = 80
    estimator: str = "sensitivity"
    max_outer: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        self.dims, self.modes = tuple(self.dims), tuple(self.modes)
        if self.instances < 1 or not self.dims or min(self.dims) < 1:
            raise ValueError("LinearSuiteConfig needs instances >= 1 and dims >= 1")
        if not self.modes or not set(self.modes) <= {"exact", "sampled"}:
            raise ValueError(f"modes must be 'exact' or 'sampled', got {self.modes}")
        _oracle(self, 1.0, 0)  # OracleConfig's checks run here, before any instance


def _oracle(cfg, radius: float, seed: int) -> oracles.OracleConfig:
    """The sampled oracle of a suite config (``LinearSuiteConfig`` or
    ``CartpoleBenchConfig``) at start radius ``radius``."""
    return oracles.OracleConfig(
        n_rollouts=cfg.n_rollouts, horizon=cfg.horizon, radius=radius,
        seed=seed, estimator=cfg.estimator,
    )


def run_linear_suite(cfg: LinearSuiteConfig) -> list[dict]:
    """Anneal a batch of random unstable linear systems and tabulate the outcome.

    Each instance is cross-checked against the Riccati solution: the row
    records the optimal undiscounted cost, the achieved gap, iteration and
    query counts, and the closed-loop spectral radius of the returned gain.
    Failures are recorded per instance and do not stop the suite.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0x11E,)))
    rows = []
    for i in range(cfg.instances):
        d_x = int(cfg.dims[i % len(cfg.dims)])
        lin = sample_stabilizable_system(rng, d_x)
        cost = CostSpec.identity(lin.d_x, lin.d_u)
        p_star, _ = solve_dare(lin, cost, 1.0)
        tr_p_star = float(np.trace(p_star))
        sys = linear_as_nonlinear(lin, name=f"linear-{i}")
        for mode in cfg.modes:
            seed_i = int(
                np.random.SeedSequence(cfg.seed, spawn_key=(i, 7)).generate_state(1)[0]
            )
            anneal_cfg = AnnealConfig(
                oracle_mode=mode,
                seed=seed_i,
                max_outer=cfg.max_outer,
                oracle=(
                    _oracle(cfg, math.sqrt(d_x), seed_i) if mode == "sampled" else None
                ),
                pg_steps=cfg.pg_steps,
            )
            row = {
                "instance": i,
                "d_x": lin.d_x,
                "d_u": lin.d_u,
                "mode": mode,
                "tr_p_star": tr_p_star,
                "rho_open_loop": spectral_radius(lin.A),
            }
            try:
                K_hat, state = discount_anneal(sys, cost, anneal_cfg)
                final_cost = lqr_cost(lin, cost, K_hat, 1.0)
                row.update(
                    {
                        "status": "ok",
                        "final_cost": final_cost,
                        "gap": final_cost - tr_p_star,
                        "outer_iters": state.outer_iterations,
                        "eval_queries": state.eval_queries,
                        "grad_queries": state.grad_queries,
                        "max_search_queries": max(
                            (r.search_queries for r in state.history), default=0
                        ),
                        "rho_closed_loop": state.final_spectral_radius,
                    }
                )
            except Exception as exc:  # noqa: BLE001 - suite must keep going
                row.update({"status": f"error:{type(exc).__name__}", "final_cost": np.nan,
                            "gap": np.nan, "outer_iters": -1, "eval_queries": -1,
                            "grad_queries": -1, "max_search_queries": -1,
                            "rho_closed_loop": np.nan})
            rows.append(row)
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        header = list(rows[0].keys())
        files.write_csv(
            out / "linear_suite.csv", header, [[r[h] for h in header] for r in rows]
        )
        _write_meta(out, "linear_suite", cfg)
    return rows


@dataclass
class CartpoleBenchConfig:
    radii: tuple = (0.1,)
    trials: int = 3
    seed: int = 0
    n_rollouts: int = 1000
    horizon: int = 400
    pg_steps: int = 120  # Adam steps per solve, at the rate 0.01 / radius
    estimator: str = "sensitivity"
    max_outer: int = 30
    roa: RoaConfig = field(default_factory=RoaConfig)
    params: CartPoleParams = field(default_factory=CartPoleParams)
    out_dir: str | None = None

    def __post_init__(self):
        self.radii = tuple(self.radii)
        if not self.radii or self.trials < 1:
            raise ValueError("CartpoleBenchConfig needs radii and trials >= 1")
        _oracle(self, 1.0, 0)  # OracleConfig's checks run here, before any trial


def run_cartpole(cfg: CartpoleBenchConfig) -> dict:
    """Anneal cart-pole from scratch at each start radius and measure the ROA.

    Emits a summary table with [min, max] over trials per radius, per-trial
    iteration traces that include the gap to the discounted Riccati gain on
    the linearization, and a baselines table (``run_lqr_baseline`` on the
    same parameters, plus an externally synthesized reference value).
    """
    sys = cartpole(cfg.params)
    cost = CostSpec.identity(sys.d_x, sys.d_u)
    lin = jacobian_linearization(sys)

    table_rows = []
    traces = {}
    for i, radius in enumerate(cfg.radii):
        roas, iters, final_costs = [], [], []
        for j in range(cfg.trials):
            seed_ij = int(
                np.random.SeedSequence(cfg.seed, spawn_key=(i, j)).generate_state(1)[0]
            )
            oracle_cfg = _oracle(cfg, radius, seed_ij)
            anneal_cfg = AnnealConfig(
                oracle_mode="sampled",
                seed=seed_ij,
                oracle=oracle_cfg,
                pg_steps=cfg.pg_steps,
                max_outer=cfg.max_outer,
            )
            K_hat, state = discount_anneal(sys, cost, anneal_cfg)
            roa = estimate_roa(sys, K_hat, cfg.roa)
            sampled = oracles.eps_eval(
                sys,
                K_hat,
                1.0,
                oracle_cfg,
                cost,
                query_index=state.eval_queries + state.grad_queries + 1,
            )
            roas.append(roa.rho_roa)
            iters.append(state.outer_iterations)
            final_costs.append(sampled.value)
            trace_rows = []
            for t, rec in enumerate(state.history):
                _, k_lin = solve_dare(lin, cost, rec.gamma)
                gain_gap = float(
                    np.linalg.norm(np.array(rec.gain) - k_lin, "fro")
                )
                trace_rows.append(
                    [
                        t,
                        rec.gamma,
                        rec.gamma_next if rec.gamma_next is not None else "",
                        rec.cost_end,
                        rec.inner_steps,
                        rec.search_queries,
                        gain_gap,
                    ]
                )
            traces[f"r{radius}_trial{j}"] = trace_rows
        table_rows.append(
            [
                radius,
                min(roas),
                max(roas),
                cfg.trials,
                max(iters),
                min(final_costs),
                max(final_costs),
            ]
        )

    baseline = run_lqr_baseline(cfg.params, cfg.roa)
    baselines = [
        ["lqr_linearization", baseline["rho_roa"], "computed"],
        ["hinf", HINF_REFERENCE_ROA, "external"],
    ]

    result = {
        "table": table_rows,
        "baselines": baselines,
        "lqr_gain": baseline["gain"],
        "traces": traces,
    }
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        files.write_csv(
            out / "cartpole_table.csv",
            ["r", "roa_min", "roa_max", "trials", "iters_max",
             "final_cost_min", "final_cost_max"],
            table_rows,
        )
        files.write_csv(out / "baselines.csv", ["label", "rho_roa", "source"], baselines)
        for key, rows in traces.items():
            files.write_csv(
                out / f"trace_{key}.csv",
                ["iteration", "gamma", "gamma_next", "cost", "inner_steps",
                 "search_queries", "gain_gap_fro"],
                rows,
            )
        _write_meta(out, "cartpole", cfg)
    return result


def run_counterexample(gamma: float = 0.9 / 4.0, out_dir: str | None = None) -> dict:
    """Produce the discounting-fails-to-stabilize witness and its certificates."""
    witness = reward_shaping_counterexample(gamma)
    a_cl = witness.system.closed_loop(witness.gain)
    record = {
        "gamma": gamma,
        "beta": witness.beta,
        "gain": witness.gain.tolist(),
        "rho_damped": spectral_radius(np.sqrt(gamma) * a_cl),
        "rho_undamped": witness.rho_undamped,
    }
    if out_dir is not None:
        files.write_json(Path(out_dir) / "counterexample.json", record)
    return record


def run_lqr_baseline(
    params: CartPoleParams | None = None,
    roa: RoaConfig | None = None,
    out_dir: str | None = None,
) -> dict:
    """Exact LQR gain on the cart-pole linearization and its measured ROA."""
    sys = cartpole(params)
    lin = jacobian_linearization(sys)
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    _, k_lqr = solve_dare(lin, cost, 1.0)
    report = estimate_roa(sys, k_lqr, roa)
    record = {
        "gain": k_lqr.tolist(),
        "rho_roa": report.rho_roa,
        "rho_closed_loop_linearization": spectral_radius(lin.closed_loop(k_lqr)),
    }
    if out_dir is not None:
        files.write_json(Path(out_dir) / "lqr_baseline.json", record)
    return record
