"""Exact solvers used as ground truth: spectral radius, discrete Lyapunov,
and the discounted discrete algebraic Riccati equation.

These are the oracles everything else is checked against, so they are kept
dependency-free (numpy only) and conservative about convergence.
"""

from __future__ import annotations

import numpy as np

from .model import CostSpec, LinearSystem, as_matrix


class UnstableError(RuntimeError):
    """A closed loop is spectrally unstable, so the requested quantity is infinite."""


class NotStabilizableError(RuntimeError):
    """Riccati value iteration diverged: no finite-cost stabilizing gain exists."""


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"spectral radius needs a square matrix, got {m.shape}")
    return float(np.abs(np.linalg.eigvals(m)).max())


def dlyap(
    a_cl,
    sigma,
    *,
    margin: float = 1e-9,
    max_doublings: int = 200,
) -> np.ndarray:
    """Solve X = Sigma + A' X A for a Schur-stable A.

    Uses iterated doubling: with ``X_k = sum_{j < 2^k} (A')^j Sigma A^j`` and
    ``M_k = A^(2^k)``, one pass performs ``X <- X + M' X M`` and ``M <- M M``,
    so the partial sum length doubles per iteration.  Requires
    ``spectral_radius(a_cl) < 1 - margin``.

    Parameters
    ----------
    a_cl : array, shape (d, d)
        Transition matrix of the series (typically a damped closed loop).
    sigma : array, shape (d, d)
        Symmetric PSD driving term.
    margin : float
        Stability margin; closed loops within ``margin`` of the unit circle
        are rejected as unstable.

    Returns
    -------
    X : array, shape (d, d)
        Symmetric PSD solution.
    """
    a_cl = as_matrix(a_cl, "a_cl")
    sigma = as_matrix(sigma, "sigma")
    if a_cl.shape != sigma.shape or a_cl.shape[0] != a_cl.shape[1]:
        raise ValueError(f"shape mismatch: a_cl {a_cl.shape}, sigma {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    rho = spectral_radius(a_cl)
    if rho >= 1.0 - margin:
        raise UnstableError(
            f"spectral radius {rho:.6g} is not below 1 - {margin:g}; "
            "the Lyapunov series diverges"
        )

    x = (sigma + sigma.T) / 2.0
    m = a_cl.copy()
    for _ in range(max_doublings):
        if np.linalg.norm(m, "fro") <= 1e-14:
            break
        x = x + m.T @ x @ m
        m = m @ m
        if not np.all(np.isfinite(x)):
            raise UnstableError("Lyapunov doubling overflowed; matrix too close to instability")
    return (x + x.T) / 2.0


def _riccati_update(
    P: np.ndarray, Ad: np.ndarray, Bd: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> np.ndarray:
    """One step of value iteration on the (damped) Riccati recursion."""
    BtP = Bd.T @ P
    gain_term = np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
    new_p = Q + Ad.T @ P @ Ad - (BtP @ Ad).T @ gain_term
    return (new_p + new_p.T) / 2.0


def solve_dare(
    sys: LinearSystem,
    cost: CostSpec,
    gamma: float = 1.0,
    *,
    max_iter: int = 1_000_000,
    rel_tol: float = 1e-12,
    divergence_bound: float = 1e12,
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal value matrix and gain of the gamma-discounted LQR problem.

    Runs value iteration ``P <- Q + Ad'PAd - Ad'PBd (R + Bd'PBd)^-1 Bd'PAd``
    on the damped matrices ``Ad = sqrt(gamma) A``, ``Bd = sqrt(gamma) B``
    until the relative change drops below ``rel_tol``, then polishes the
    fixed point with a few policy-evaluation steps so the returned pair is
    self-consistent to machine precision.

    Returns
    -------
    (P, K) : value matrix ``(d_x, d_x)`` and optimal gain
        ``K = -(R + gamma B'PB)^-1 gamma B'PA`` of shape ``(d_u, d_x)``.

    Raises
    ------
    NotStabilizableError
        If the iteration diverges past ``divergence_bound`` or fails to
        converge within ``max_iter`` steps.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    A, B, Q, R = sys.A, sys.B, cost.Q, cost.R
    if cost.d_x != sys.d_x or cost.d_u != sys.d_u:
        raise ValueError("cost dimensions do not match the system")
    sq = np.sqrt(gamma)
    Ad, Bd = sq * A, sq * B

    P = Q.copy()
    converged = False
    for _ in range(max_iter):
        new_p = _riccati_update(P, Ad, Bd, Q, R)
        if not np.all(np.isfinite(new_p)) or np.trace(new_p) > divergence_bound:
            raise NotStabilizableError(
                f"value iteration diverged at gamma={gamma:g}; "
                "no stabilizing gain with finite discounted cost"
            )
        delta = np.linalg.norm(new_p - P, "fro")
        P = new_p
        if delta <= rel_tol * max(np.linalg.norm(P, "fro"), 1.0):
            converged = True
            break
    if not converged:
        raise NotStabilizableError(
            f"value iteration did not converge within {max_iter} steps at gamma={gamma:g}"
        )

    # Policy-evaluation polish: alternate the greedy gain with an exact
    # Lyapunov solve for its value.  Quadratic convergence wipes out the
    # residual linear-rate error of plain value iteration in a couple of rounds.
    K = -np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
    try:
        for _ in range(3):
            P = dlyap(sq * (A + B @ K), Q + K.T @ R @ K)
            K = -np.linalg.solve(R + gamma * B.T @ P @ B, gamma * B.T @ P @ A)
    except UnstableError as exc:
        raise NotStabilizableError(
            f"greedy gain after value iteration is not stable at gamma={gamma:g}"
        ) from exc
    P = dlyap(sq * (A + B @ K), Q + K.T @ R @ K)
    return P, K
