"""Discounted LQR quantities for a fixed state-feedback gain, and the fixed
witness that a discounted-optimal gain need not stabilize.

With initial states drawn isotropically with identity covariance, the
gamma-discounted cost of a gain K is

    J(K | gamma) = tr(P)  where  P = Q + K'RK + gamma (A+BK)' P (A+BK),

finite exactly when ``sqrt(gamma) (A+BK)`` is Schur-stable.  Discounting is
equivalent to damping: J(K | gamma, A, B) = J(K | 1, sqrt(gamma) A, sqrt(gamma) B).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .matops import dlyap, solve_dare, spectral_radius
from .model import CostSpec, LinearSystem, check_gamma, check_real


def _closed_loop(
    sys: LinearSystem, K: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """The entry checks of gamma and the gain; returns the gain and A + B K."""
    check_gamma(gamma)
    K = np.asarray(K, dtype=float)
    return K, sys.closed_loop(K)


def value_matrix(
    sys: LinearSystem, cost: CostSpec, K: np.ndarray, gamma: float = 1.0
) -> np.ndarray:
    """Value matrix P of the gain K: solves P = Q + K'RK + gamma A_cl' P A_cl.

    Raises ``UnstableError`` when ``sqrt(gamma) (A+BK)`` is not Schur-stable.
    """
    K, a_cl = _closed_loop(sys, K, gamma)
    return dlyap(np.sqrt(gamma) * a_cl, cost.Q + K.T @ cost.R @ K)


def lqr_cost(
    sys: LinearSystem, cost: CostSpec, K: np.ndarray, gamma: float = 1.0
) -> float:
    """Discounted cost tr(P) of the gain K from identity-covariance starts."""
    return float(np.trace(value_matrix(sys, cost, K, gamma)))


def lqr_grad(
    sys: LinearSystem, cost: CostSpec, K: np.ndarray, gamma: float = 1.0
) -> np.ndarray:
    """Exact policy gradient of the discounted cost at K.

    grad = 2 (R K + gamma B' P_K (A + B K)) Sigma_K, with P_K the value
    matrix and Sigma_K the discounted state covariance.  Vanishes at the
    optimal gain.  P_K and Sigma_K come from one stacked ``dlyap`` call: one
    eigenvalue check and one batched solve over the damped closed loop and
    its transpose.
    """
    K, a_cl = _closed_loop(sys, K, gamma)
    damped = np.sqrt(gamma) * a_cl
    q_k = cost.Q + K.T @ cost.R @ K
    P, sigma = dlyap(np.stack([damped, damped.T]), np.stack([q_k, np.eye(sys.d_x)]))
    return 2.0 * (cost.R @ K + gamma * sys.B.T @ P @ a_cl) @ sigma


class ShapingWitness(NamedTuple):
    """A discount for which the discounted-optimal gain fails to stabilize:
    ``system`` is A = diag(0, 2), B = (1, beta)' with beta = 1/2."""

    system: LinearSystem
    beta: float
    gain: np.ndarray
    rho_undamped: float


def reward_shaping_counterexample(gamma: float) -> ShapingWitness:
    """Witness that solving the discounted problem can fail to stabilize.

    For A = diag(0, 2), B = (1, beta)' and the identity cost, the discounted
    value matrix is diag(1, p) and the optimal gain (0, k), with
    k = -2 gamma p beta / (1 + gamma + gamma p beta^2); the undamped loop's
    eigenvalues are 0 and 2 (1 + gamma) / (1 + gamma + gamma p beta^2).  p
    rises with gamma to 5 at gamma = 1/4 (the root of p^2 - p - 20 = 0), so
    at beta = 1/2 that eigenvalue lies in (1.6, 2) and |k| < 0.8 < 1/(2 beta)
    for every admitted gamma: beta = 1/2 needs no search.  ``gamma < 1/4``
    already damps the open loop (2 sqrt(gamma) < 1), so the solve cannot fail.
    """
    check_real(gamma, "gamma", 0.0, 0.25)
    sys = LinearSystem(np.diag([0.0, 2.0]), np.array([[1.0], [0.5]]))
    _, K = solve_dare(sys, CostSpec.identity(2, 1), gamma)
    rho = spectral_radius(sys.closed_loop(K))
    return ShapingWitness(system=sys, beta=0.5, gain=K, rho_undamped=rho)
