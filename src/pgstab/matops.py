"""Exact solvers used as ground truth: spectral radius, discrete Lyapunov,
and the discounted discrete algebraic Riccati equation.

These are the oracles everything else is checked against, so they are kept
dependency-free (numpy only) and conservative about convergence.  The
Lyapunov equation is solved directly, as one ``(d^2, d^2)`` linear system
per equation with one step of iterative refinement, and refused when that
step shows the solve has not converged.  The Riccati equation is summed by
doubling: after ``k`` passes its iterate ``H_k`` equals ``2^k`` steps of
value iteration, so a slow mode costs passes logarithmic, not linear, in
its time constant; one policy-evaluation step then polishes its limit.
"""

from __future__ import annotations

import numpy as np

from .model import CostSpec, LinearSystem, as_matrix, check_gamma


class UnstableError(RuntimeError):
    """A closed loop is spectrally unstable, so the requested quantity is infinite."""


class NotStabilizableError(RuntimeError):
    """No stabilizing gain has finite discounted cost.

    Raised by ``solve_dare`` when the doubled Riccati iterate ``H_k`` (the
    optimal cost over ``2^k`` steps) overflows or passes
    ``DARE_DIVERGENCE_BOUND``, when it has not converged after
    ``DARE_MAX_DOUBLINGS`` passes, or when the greedy gain of its limit
    leaves the damped closed loop unstable.
    """


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    # eigvals refuses a matrix that is not square (LinAlgError is a ValueError)
    return float(np.abs(np.linalg.eigvals(as_matrix(m, "m"))).max())


def dlyap(a_cl: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Solve X = Sigma + A' X A for a Schur-stable A, or a stack of such equations.

    Each slice is one ``(d^2, d^2)`` linear system: with ``X`` flattened row
    by row, ``(I - A' (x) A') vec X = vec Sigma``, built per slice by
    broadcasting and solved by one batched LU solve.  One step of iterative
    refinement follows: the residual ``Sigma + A' X A - X`` is solved with
    the same operator and the correction added, which recovers the accuracy
    the plain solve loses on slow, far-from-normal loops.  If that correction
    exceeds ``1e-4 ||X||_F`` on any slice, the operator is too ill-conditioned
    for the solve to have converged, and the call refuses rather than return
    an inaccurate X.  Slices are solved independently, so a stack equals its
    separate 2-D calls.

    The inner kernel of the exact solvers: callers pass float arrays of one
    shape with ``sigma`` symmetric.  It checks only, with one eigenvalue call
    on the whole stack, that every slice's spectral radius is below
    ``1 - 1e-9`` (``numpy.linalg.LinAlgError``, a ``ValueError``, refuses a
    stack that is not square or not finite), that the solve stays finite,
    and that its refinement step is small.

    Parameters
    ----------
    a_cl : array, shape (..., d, d)
        Transition matrices of the series (typically damped closed loops).
    sigma : array, shape (..., d, d)
        Symmetric PSD driving terms.

    Returns
    -------
    X : array, shape (..., d, d)
        Symmetric PSD solutions.

    Raises
    ------
    UnstableError
        If any slice of ``a_cl`` has spectral radius ``>= 1 - 1e-9``, if the
        solve overflows, or if the operator is ill-conditioned: singular to
        working precision, or with a refinement step above ``1e-4 ||X||_F``
        on a slice.
    """
    rho = np.abs(np.linalg.eigvals(a_cl)).max()
    if rho >= 1.0 - 1e-9:
        raise UnstableError(
            f"spectral radius {rho:.6g} is not below 1 - 1e-9; "
            "the Lyapunov series diverges"
        )

    shape = a_cl.shape
    n = shape[-1] ** 2
    vec = shape[:-2] + (n, 1)
    at = a_cl.mT
    # row-major vec(A' X A) = (A' (x) A') vec X
    kron = at[..., :, None, :, None] * at[..., None, :, None, :]
    op = np.eye(n) - kron.reshape(shape[:-2] + (n, n))
    overflowed = "Lyapunov solve overflowed; matrix too close to instability"
    s = (sigma + sigma.mT) / 2.0
    try:
        x = np.linalg.solve(op, s.reshape(vec)).reshape(shape)
        step = np.linalg.solve(op, (s + at @ x @ a_cl - x).reshape(vec)).reshape(shape)
    except np.linalg.LinAlgError as exc:
        # an exactly zero pivot: the operator overflowed, or is singular to
        # working precision
        if not np.isfinite(op).all():
            raise UnstableError(overflowed) from exc
        raise UnstableError(
            "Lyapunov operator is ill-conditioned: singular to working precision"
        ) from exc
    x = x + step
    if not np.isfinite(x).all():
        raise UnstableError(overflowed)
    # squared Frobenius norms: ||step|| > 1e-4 ||x||
    if ((step * step).sum(axis=(-2, -1)) > 1e-8 * (x * x).sum(axis=(-2, -1))).any():
        raise UnstableError(
            "Lyapunov solve is ill-conditioned: its refinement step exceeds "
            "1e-4 of the solution"
        )
    return (x + x.mT) / 2.0


# solve_dare's doubling limits (see its docstring)
DARE_MAX_DOUBLINGS = 64
DARE_REL_TOL = 1e-12
DARE_DIVERGENCE_BOUND = 1e12


def solve_dare(
    sys: LinearSystem, cost: CostSpec, gamma: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal value matrix and gain of the gamma-discounted LQR problem.

    Sums the Riccati recursion ``P <- Q + Ad'PAd - Ad'PBd (R + Bd'PBd)^-1 Bd'PAd``
    on the damped matrices ``Ad = sqrt(gamma) A``, ``Bd = sqrt(gamma) B`` by
    structure-preserving doubling (Chu, Fan & Lin 2005).  From ``H = Q``,
    ``G = Bd R^-1 Bd'`` and ``M = Ad``, one pass with ``W = I + G H`` performs
    ``H <- H + M' H W^-1 M``, ``G <- G + M W^-1 G M'`` and ``M <- M W^-1 M``.
    After ``k`` passes ``H_k`` is the value-iteration iterate after ``2^k``
    steps from ``P = 0``: the optimal cost of the horizon-``2^k`` problem.
    Passes stop once the relative change of ``H`` drops below
    ``DARE_REL_TOL``; one policy-evaluation step then polishes the fixed
    point: ``P`` is the exact Lyapunov value of ``K``, the greedy gain of ``H``.

    Returns
    -------
    (P, K) : value matrix ``(d_x, d_x)`` and optimal gain
        ``K = -(R + gamma B'HB)^-1 gamma B'HA`` of shape ``(d_u, d_x)``.

    Raises
    ------
    NotStabilizableError
        If ``H`` is not finite or its trace exceeds ``DARE_DIVERGENCE_BOUND``,
        if it does not converge within ``DARE_MAX_DOUBLINGS`` passes (``2^64``
        value-iteration steps), or if the greedy gain of the limit is not
        stable.
    """
    check_gamma(gamma)
    A, B, Q, R = sys.A, sys.B, cost.Q, cost.R
    if cost.d_x != sys.d_x or cost.d_u != sys.d_u:
        raise ValueError("cost dimensions do not match the system")
    sq = np.sqrt(gamma)
    Ad, Bd = sq * A, sq * B

    d = sys.d_x
    H, M = Q, Ad
    G = Bd @ np.linalg.solve(R, Bd.T)
    G = (G + G.T) / 2.0
    for _ in range(DARE_MAX_DOUBLINGS):
        # one LU of W = I + G H serves both W^-1 M and W^-1 G
        w_inv_mg = np.linalg.solve(np.eye(d) + G @ H, np.hstack([M, G]))
        w_inv_m, w_inv_g = w_inv_mg[:, :d], w_inv_mg[:, d:]
        new_h = H + M.T @ H @ w_inv_m
        new_h = (new_h + new_h.T) / 2.0
        if not np.all(np.isfinite(new_h)) or np.trace(new_h) > DARE_DIVERGENCE_BOUND:
            raise NotStabilizableError(
                f"Riccati doubling diverged at gamma={gamma:g}; "
                "no stabilizing gain with finite discounted cost"
            )
        G = G + M @ w_inv_g @ M.T
        G = (G + G.T) / 2.0
        M = M @ w_inv_m
        delta = np.linalg.norm(new_h - H, "fro")
        H = new_h
        if delta <= DARE_REL_TOL * max(np.linalg.norm(H, "fro"), 1.0):
            break
    else:
        raise NotStabilizableError(
            f"Riccati doubling did not converge within {DARE_MAX_DOUBLINGS} passes "
            f"at gamma={gamma:g}"
        )

    # Further Hewer rounds move P by under 1e-10 relative on suite draws, and
    # no closer to scipy's solution.
    K = -np.linalg.solve(R + gamma * B.T @ H @ B, gamma * B.T @ H @ A)
    try:
        P = dlyap(sq * (A + B @ K), Q + K.T @ R @ K)
    except UnstableError as exc:
        raise NotStabilizableError(
            f"greedy gain after Riccati doubling is not stable at gamma={gamma:g}"
        ) from exc
    return P, K
