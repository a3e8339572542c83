"""Stabilization of unknown discrete-time systems by discount-annealed
policy gradients, with exact Riccati/Lyapunov oracles for verification."""

from .anneal import (
    AnnealConfig,
    AnnealState,
    BudgetExceededError,
    InnerDivergedError,
    discount_anneal,
)
from .bench import (
    CartpoleBenchConfig,
    LinearSuiteConfig,
    RoaReport,
    estimate_roa,
    run_cartpole,
    run_counterexample,
    run_linear_suite,
    run_lqr_baseline,
)
from .dynamics import (
    CartPoleParams,
    NonlinearSystem,
    cartpole,
    jacobian_linearization,
    linear_as_nonlinear,
)
from .lqr import (
    lqr_cost,
    lqr_grad,
    reward_shaping_counterexample,
    state_covariance,
    value_matrix,
)
from .matops import (
    NotStabilizableError,
    UnstableError,
    solve_dare,
    spectral_radius,
)
from .model import CostSpec, LinearSystem
from .oracles import (
    DivergedAllError,
    OracleConfig,
    QueryResult,
    eps_eval,
    eps_grad_sensitivity,
    eps_grad_zeroth_order,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig",
    "AnnealState",
    "BudgetExceededError",
    "CartPoleParams",
    "CartpoleBenchConfig",
    "CostSpec",
    "DivergedAllError",
    "InnerDivergedError",
    "LinearSuiteConfig",
    "LinearSystem",
    "NonlinearSystem",
    "NotStabilizableError",
    "OracleConfig",
    "QueryResult",
    "RoaReport",
    "UnstableError",
    "cartpole",
    "discount_anneal",
    "eps_eval",
    "eps_grad_sensitivity",
    "eps_grad_zeroth_order",
    "estimate_roa",
    "jacobian_linearization",
    "linear_as_nonlinear",
    "lqr_cost",
    "lqr_grad",
    "reward_shaping_counterexample",
    "run_cartpole",
    "run_counterexample",
    "run_linear_suite",
    "run_lqr_baseline",
    "solve_dare",
    "spectral_radius",
    "state_covariance",
    "value_matrix",
]
