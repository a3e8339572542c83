"""The benchmark's three workloads: how each draws its instances from the
seed, solves them through the public API, and certifies the result.

Every library function is looked up on its module at call time
(``anneal.discount_anneal``, not a name bound at import), so the traced run
sees the wrappers ``tracer.Tracer`` installs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pgstab import anneal, bench, dynamics, lqr, matops, oracles
from pgstab.model import CostSpec, LinearSystem

# Same stream as ``bench.run_linear_suite``: instance i of a linear workload
# is instance i of ``pgstab anneal-linear --seed 0``.
LINEAR_SUITE_KEY = 0x11E
DIMS = (2, 3, 4)

# Both linear workloads solve the same systems in every run: the linear-suite
# draw at this generator seed.  The draws are heavy tailed, and with systems
# drawn per seed, which draws a seed got moved the run's solve time by half
# (exact-linear) or a third (zeroth-linear) from seed to seed.  --seed drives
# what is stochastic in the solve.
SYSTEMS_SEED = 0

EXACT_INSTANCES = 60
# The default ``exact_max_steps`` (100,000 gap-mode steps per inner solve)
# lets one heavy-tailed draw run for minutes before it raises
# ``BudgetExceededError``; 2,000 bounds such a draw to seconds while every
# other ``AnnealConfig`` field keeps its default.  The draw stays in the
# workload and counts as a failure.
EXACT_MAX_STEPS = 2_000

ZEROTH_INSTANCES = 2
ZEROTH_ORACLE = dict(n_rollouts=150, horizon=150, estimator="zeroth")
ZEROTH_PG_STEPS = 120

CARTPOLE_ORACLE = dict(n_rollouts=1000, horizon=400, radius=0.1, estimator="sensitivity")
CARTPOLE_PG_STEPS = 15
CARTPOLE_MAX_OUTER = 30

GAP_SLACK = 1e-9  # same slack as the criterion-3 test


@dataclass
class Instance:
    """One annealing problem and the references its outcome is checked against."""

    index: int
    system: dynamics.NonlinearSystem
    cost: CostSpec
    cfg: anneal.AnnealConfig
    lin: LinearSystem  # true (A, B), or the Jacobian linearization on cart-pole
    declared_linear: bool
    tr_p_star: float | None = None  # optimal undiscounted cost, linear only
    k_lqr: np.ndarray | None = None  # LQR gain on the linearization, cart-pole only


@dataclass
class Outcome:
    """What one solve returned, how long it took, and whether it certified."""

    index: int
    seconds: float
    status: str  # "ok", an exception type name, or "uncertified:<check>"
    gain: np.ndarray | None = None
    outer_iters: int = 0
    grad_queries: int = 0
    eval_queries: int = 0
    anneal_iteration: int | None = None
    checks: dict = field(default_factory=dict)
    broken_guarantee: str | None = None  # a promise of the library that failed

    @property
    def certified(self) -> bool:
        return self.status == "ok"

    def fingerprint(self) -> tuple:
        """Everything that must repeat bit for bit across passes and tracing."""
        return (
            self.index,
            self.status,
            None if self.gain is None else self.gain.tobytes(),
            self.outer_iters,
            self.grad_queries,
            self.eval_queries,
            self.anneal_iteration,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list[Instance]]
    linear: bool
    passes: int  # solves of the whole instance set per untraced run
    # Layers (span-name prefixes) the workload must never call: a call there
    # means it no longer isolates the layers it exists to measure.
    zero_calls: tuple[str, ...]


def _instance_seed(seed: int, index: int) -> int:
    return int(
        np.random.SeedSequence(seed, spawn_key=(index, 7)).generate_state(1)[0]
    )


def _draw_linear(seed: int, count: int, make_cfg) -> list[Instance]:
    """The first ``count`` systems of the linear-suite stream at
    ``SYSTEMS_SEED``; ``make_cfg(seed, i, lin)`` sets each solve."""
    rng = np.random.default_rng(
        np.random.SeedSequence(SYSTEMS_SEED, spawn_key=(LINEAR_SUITE_KEY,))
    )
    instances = []
    for i in range(count):
        lin = bench.sample_stabilizable_system(rng, DIMS[i % len(DIMS)])
        cost = CostSpec.identity(lin.d_x, lin.d_u)
        p_star, _ = matops.solve_dare(lin, cost, 1.0)
        instances.append(
            Instance(
                index=i,
                system=dynamics.linear_as_nonlinear(lin, name=f"linear-{i}"),
                cost=cost,
                cfg=make_cfg(seed, i, lin),
                lin=lin,
                declared_linear=True,
                tr_p_star=float(np.trace(p_star)),
            )
        )
    return instances


def _exact_cfg(seed: int, index: int, lin: LinearSystem) -> anneal.AnnealConfig:
    # Exact oracles and the bisection of a declared-linear system read no
    # random stream, so every seed solves the same problems the same way.
    return anneal.AnnealConfig(
        seed=_instance_seed(seed, index), exact_max_steps=EXACT_MAX_STEPS
    )


def _zeroth_cfg(seed: int, index: int, lin: LinearSystem) -> anneal.AnnealConfig:
    seed_i = _instance_seed(seed, index)
    return anneal.AnnealConfig(
        oracle_mode="sampled",
        seed=seed_i,
        oracle=oracles.OracleConfig(
            radius=math.sqrt(lin.d_x), seed=seed_i, **ZEROTH_ORACLE
        ),
        pg_steps=ZEROTH_PG_STEPS,
    )


def setup_exact_linear(seed: int) -> list[Instance]:
    return _draw_linear(seed, EXACT_INSTANCES, _exact_cfg)


def setup_zeroth_linear(seed: int) -> list[Instance]:
    return _draw_linear(seed, ZEROTH_INSTANCES, _zeroth_cfg)


def setup_cartpole(seed: int) -> list[Instance]:
    """One trial seeded as trial 0 of ``bench.run_cartpole`` at this seed."""
    sys = dynamics.cartpole()
    cost = CostSpec.identity(sys.d_x, sys.d_u)
    lin = dynamics.jacobian_linearization(sys)
    _, k_lqr = matops.solve_dare(lin, cost, 1.0)
    trial_seed = int(
        np.random.SeedSequence(seed, spawn_key=(0, 0)).generate_state(1)[0]
    )
    cfg = anneal.AnnealConfig(
        oracle_mode="sampled",
        seed=trial_seed,
        oracle=oracles.OracleConfig(seed=trial_seed, **CARTPOLE_ORACLE),
        pg_steps=CARTPOLE_PG_STEPS,
        pg_optimizer="adam",
        max_outer=CARTPOLE_MAX_OUTER,
    )
    return [
        Instance(
            index=0,
            system=sys,
            cost=cost,
            cfg=cfg,
            lin=lin,
            declared_linear=False,
            k_lqr=k_lqr,
        )
    ]


# Why each workload exists, and what it isolates, is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-linear",
            setup_exact_linear,
            linear=True,
            passes=3,
            zero_calls=("oracles.", "dynamics.", "bench.estimate_roa"),
        ),
        Workload(
            "zeroth-linear",
            setup_zeroth_linear,
            linear=True,
            passes=2,
            zero_calls=(
                "oracles.eps_grad_sensitivity",
                "dynamics.step_jac",
                "bench.estimate_roa",
            ),
        ),
        Workload(
            "cartpole",
            setup_cartpole,
            linear=False,
            passes=1,
            zero_calls=("lqr.lqr_grad", "oracles.eps_grad_zeroth_order"),
        ),
    )
}


def solve(inst: Instance, system: dynamics.NonlinearSystem) -> Outcome:
    """Anneal one instance and certify the gain; the time covers both.

    ``system`` is ``inst.system`` or a copy whose simulator callables are
    timed.  Any exception from the solve is a failure recorded by its type;
    the checks then mirror the acceptance tests: spectral radius below 1 on
    the true or linearized matrices, the gap to the Riccati optimum at most
    d_x in exact mode, and the region of attraction on cart-pole.
    """
    t0 = time.perf_counter()
    try:
        gain, state = anneal.discount_anneal(system, inst.cost, inst.cfg)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, by type
        return Outcome(
            index=inst.index,
            seconds=time.perf_counter() - t0,
            status=type(exc).__name__,
            anneal_iteration=getattr(exc, "anneal_iteration", None),
        )
    out = Outcome(
        index=inst.index,
        seconds=0.0,
        status="ok",
        gain=np.array(gain, dtype=float),
        outer_iters=state.outer_iterations,
        grad_queries=state.grad_queries,
        eval_queries=state.eval_queries,
    )
    rho = matops.spectral_radius(inst.lin.closed_loop(gain))
    out.checks["rho_cl"] = rho
    if rho >= 1.0:
        out.status = "uncertified:rho"
        if inst.declared_linear:
            out.broken_guarantee = "discount_anneal returned an unstable gain"
    elif inst.tr_p_star is not None:
        gap = lqr.lqr_cost(inst.lin, inst.cost, gain, 1.0) - inst.tr_p_star
        out.checks["gap_over_dx"] = gap / inst.lin.d_x
        if inst.cfg.oracle_mode == "exact" and gap > inst.lin.d_x + GAP_SLACK:
            out.status = "uncertified:gap"
            out.broken_guarantee = "exact gap mode returned gap > d_x"
    if not inst.declared_linear:
        out.checks["roa"] = bench.estimate_roa(system, gain).rho_roa
    out.seconds = time.perf_counter() - t0
    return out


def baseline_roa(inst: Instance, system: dynamics.NonlinearSystem) -> float | None:
    """Region of attraction of the exact LQR gain, the cart-pole baseline."""
    if inst.k_lqr is None:
        return None
    return bench.estimate_roa(system, inst.k_lqr).rho_roa
