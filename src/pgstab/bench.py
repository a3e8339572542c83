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
from .model import CostSpec, LinearSystem, as_gain, check_count

# Reference value for an H-infinity controller synthesized with external
# tooling; reported for comparison only, never computed here.
HINF_REFERENCE_ROA = 0.506

# The one region-of-attraction estimate criteria 6 and 7 bound (see estimate_roa)
ROA_DIRECTIONS = 64
ROA_HORIZON = 2000
ROA_DELTA_CONV = 1e-3
ROA_TOL = 1e-3
ROA_CEILING = 3.0


@dataclass
class RoaReport:
    rho_roa: float
    radii: np.ndarray
    directions: np.ndarray
    seed: int

    def to_dict(self) -> dict:
        return {
            "rho_roa": self.rho_roa,
            "radii": self.radii.tolist(),
            "seed": self.seed,
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
    starts every row outside its target, since ``ROA_DELTA_CONV < 1``."""
    Kt = np.asarray(K, dtype=float).T.copy()
    tgt2 = np.asarray(targets, dtype=float) ** 2

    def advance(X, tgt2):
        X = np.asarray(sys.step(X, X @ Kt), dtype=float)
        return X, (tgt2,), np.vecdot(X, X) <= tgt2  # NaN and inf fail `<=`

    return lockstep(x0s, horizon, advance, (tgt2,)).stopped


def estimate_roa(sys: NonlinearSystem, K: np.ndarray, seed: int = 0) -> RoaReport:
    """Largest sphere of initial states from which the closed loop converges.

    Draws ``ROA_DIRECTIONS`` random unit directions seeded by ``seed``, bisects
    the critical radius along each to ``ROA_TOL`` (convergence means reaching
    ``||x|| <= ROA_DELTA_CONV * radius`` within ``ROA_HORIZON`` steps), and
    reports the minimum over directions.  Directions that still converge at
    ``ROA_CEILING`` report the ceiling.  A gain that is not finite or not
    ``(d_u, d_x)``, or a seed that is not a non-negative integer, is refused
    with a ``ValueError``.
    """
    check_count(seed, "seed", 0)
    K = as_gain(K, sys.d_u, sys.d_x)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xD18,)))
    dirs = rng.standard_normal((ROA_DIRECTIONS, sys.d_x))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    lo = np.zeros(ROA_DIRECTIONS)
    hi = np.full(ROA_DIRECTIONS, ROA_CEILING)
    open_dirs = np.arange(ROA_DIRECTIONS)
    rounds = max(1, math.ceil(math.log2(ROA_CEILING / ROA_TOL)))
    for r in range(rounds + 1):
        if open_dirs.size == 0:
            break
        # round 0 probes the ceiling itself; the rounds after it bisect
        mid = 0.5 * (lo[open_dirs] + hi[open_dirs]) if r else hi[open_dirs]
        conv = _converged_mask(
            sys,
            K,
            mid[:, None] * dirs[open_dirs],
            ROA_HORIZON,
            ROA_DELTA_CONV * mid,
        )
        lo[open_dirs[conv]] = mid[conv]
        hi[open_dirs[~conv]] = mid[~conv]
        open_dirs = open_dirs[(hi[open_dirs] - lo[open_dirs]) > ROA_TOL]
    return RoaReport(rho_roa=float(lo.min()), radii=lo, directions=dirs, seed=seed)


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
    """One suite run solves every draw in one ``oracle_mode`` (``AnnealConfig``'s
    name and values); the draws depend only on ``seed`` and the instance
    index, so two runs at one seed compare the modes draw by draw."""

    instances: int = 10
    dims: tuple = (2, 3, 4)
    seed: int = 0
    oracle_mode: str = "exact"
    n_rollouts: int = 400
    horizon: int = 250
    pg_steps: int = 80
    estimator: str = "sensitivity"
    max_outer: int = 200
    out_dir: str | None = None

    def __post_init__(self):
        self.dims = _entries(self.dims, "dims")
        check_count(self.instances, "instances", 1)
        for d in self.dims:
            check_count(d, "dims", 1)
        check_count(self.seed, "seed", 0)
        _anneal_cfg(self, self.oracle_mode, 1.0, 0)  # the solves' checks, before any instance


def _entries(value, name: str) -> tuple:
    """A non-empty list or tuple of settings, as a tuple."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r}")
    return tuple(value)


def _anneal_cfg(cfg, mode: str, radius: float, seed: int) -> AnnealConfig:
    """One solve's config under a suite config (``LinearSuiteConfig`` or
    ``CartpoleBenchConfig``); its sampled oracle starts at radius ``radius``,
    and its ``OracleConfig`` is built, and so checked, in exact mode too."""
    oracle = oracles.OracleConfig(
        n_rollouts=cfg.n_rollouts, horizon=cfg.horizon, radius=radius,
        seed=seed, estimator=cfg.estimator,
    )
    return AnnealConfig(
        oracle_mode=mode, seed=seed, pg_steps=cfg.pg_steps, max_outer=cfg.max_outer,
        oracle=oracle if mode == "sampled" else None,
    )


def run_linear_suite(cfg: LinearSuiteConfig) -> list[dict]:
    """Anneal a batch of random unstable linear systems and tabulate the outcome.

    Each instance is cross-checked against the Riccati solution: the row
    records the optimal undiscounted cost, the achieved gap, iteration and
    query counts, and the closed-loop spectral radius of the returned gain.
    Failures are recorded per instance and do not stop the suite; a failed
    row's ``anneal_iteration`` is the outer iteration that raised (``None``,
    an empty CSV cell, on rows that are ``ok``).
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
        seed_i = int(
            np.random.SeedSequence(cfg.seed, spawn_key=(i, 7)).generate_state(1)[0]
        )
        anneal_cfg = _anneal_cfg(cfg, cfg.oracle_mode, math.sqrt(d_x), seed_i)
        row = {
            "instance": i,
            "d_x": lin.d_x,
            "d_u": lin.d_u,
            "mode": cfg.oracle_mode,
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
                    "anneal_iteration": None,
                }
            )
        except Exception as exc:  # noqa: BLE001 - suite must keep going
            row.update({"status": f"error:{type(exc).__name__}", "final_cost": np.nan,
                        "gap": np.nan, "outer_iters": -1, "eval_queries": -1,
                        "grad_queries": -1, "max_search_queries": -1,
                        "rho_closed_loop": np.nan,
                        "anneal_iteration": getattr(exc, "anneal_iteration", None)})
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
    params: CartPoleParams = field(default_factory=CartPoleParams)
    out_dir: str | None = None

    def __post_init__(self):
        self.radii = _entries(self.radii, "radii")
        check_count(self.trials, "trials", 1)
        check_count(self.seed, "seed", 0)
        for r in self.radii:  # the trials' config checks run here, before any trial
            _anneal_cfg(self, "sampled", r, 0)


def run_cartpole(cfg: CartpoleBenchConfig) -> dict:
    """Anneal cart-pole from scratch at each start radius and measure the ROA.

    Emits a summary table with [min, max] over trials per radius, ending with
    ``rho_lin_max``, the largest spectral radius of a trial's closed loop on
    the Jacobian linearization (the certificate ``discount_anneal`` checks),
    per-trial iteration traces that include the gap to the discounted
    Riccati gain on the linearization, and a baselines table
    (``run_lqr_baseline`` on the same parameters, plus an externally
    synthesized reference value).
    """
    sys = cartpole(cfg.params)
    cost = CostSpec.identity(sys.d_x, sys.d_u)
    lin = jacobian_linearization(sys)

    table_rows = []
    traces = {}
    for i, radius in enumerate(cfg.radii):
        roas, iters, final_costs, rhos = [], [], [], []
        for j in range(cfg.trials):
            seed_ij = int(
                np.random.SeedSequence(cfg.seed, spawn_key=(i, j)).generate_state(1)[0]
            )
            anneal_cfg = _anneal_cfg(cfg, "sampled", radius, seed_ij)
            K_hat, state = discount_anneal(sys, cost, anneal_cfg)
            roa = estimate_roa(sys, K_hat)
            roas.append(roa.rho_roa)
            iters.append(state.outer_iterations)
            final_costs.append(state.history[-1].cost_end)
            rhos.append(state.final_spectral_radius)
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
                max(rhos),
            ]
        )

    baseline = run_lqr_baseline(cfg.params)
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
             "final_cost_min", "final_cost_max", "rho_lin_max"],
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
    seed: int = 0,
    out_dir: str | None = None,
) -> dict:
    """Exact LQR gain on the cart-pole linearization and its measured ROA."""
    sys = cartpole(params)
    lin = jacobian_linearization(sys)
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    _, k_lqr = solve_dare(lin, cost, 1.0)
    report = estimate_roa(sys, k_lqr, seed)
    record = {
        "gain": k_lqr.tolist(),
        "rho_roa": report.rho_roa,
        "rho_closed_loop_linearization": spectral_radius(lin.closed_loop(k_lqr)),
    }
    if out_dir is not None:
        files.write_json(Path(out_dir) / "lqr_baseline.json", record)
    return record
