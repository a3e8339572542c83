"""Shared descriptions of linear dynamics and quadratic costs.

Controllers are plain ``numpy`` arrays of shape ``(d_u, d_x)`` acting by
state feedback ``u = K x``; value matrices are symmetric ``(d_x, d_x)``
arrays.  Only the two container types below are wrapped in dataclasses,
everything else stays a bare array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def as_matrix(value, name: str) -> np.ndarray:
    """Coerce to a finite 2-D float array, copying the input."""
    m = np.array(value, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_gain(value, d_u: int, d_x: int) -> np.ndarray:
    """Coerce to a finite ``(d_u, d_x)`` float gain, copying the input."""
    K = as_matrix(value, "gain")
    if K.shape != (d_u, d_x):
        raise ValueError(f"gain must have shape {(d_u, d_x)}, got {K.shape}")
    return K


def check_gamma(gamma: float) -> None:
    """Refuse a discount outside (0, 1]."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


def check_count(value, name: str, minimum: int) -> None:
    """Refuse a count (or seed) that is not an integer of at least ``minimum``;
    a ``bool`` is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        least = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {least}, got {value!r}")


def check_real(value, name: str, low: float = 0.0, high: float = np.inf) -> None:
    """Refuse a value that is not a real number in the open interval
    ``(low, high)``; a ``bool`` is refused, and so is NaN."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not real or not low < value < high:
        raise ValueError(f"{name} must be a real number in ({low:g}, {high:g}), got {value!r}")


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time linear dynamics ``x' = A x + B u``."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(
                f"B must have {A.shape[0]} rows to match A, got shape {B.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]

    def closed_loop(self, K: np.ndarray) -> np.ndarray:
        """Closed-loop matrix ``A + B K`` for a finite gain ``K``."""
        return self.A + self.B @ as_gain(K, self.d_u, self.d_x)


@dataclass(frozen=True)
class CostSpec:
    """Quadratic stage cost ``x'Qx + u'Ru`` with Q, R symmetric positive definite."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q")
        R = as_matrix(self.R, "R")
        for name, m in (("Q", Q), ("R", R)):
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m).min() <= 0:
                raise ValueError(f"{name} must be positive definite")
        object.__setattr__(self, "Q", (Q + Q.T) / 2.0)
        object.__setattr__(self, "R", (R + R.T) / 2.0)

    @property
    def d_x(self) -> int:
        return self.Q.shape[0]

    @property
    def d_u(self) -> int:
        return self.R.shape[0]

    def min_eig(self) -> float:
        """Smallest eigenvalue over both Q and R."""
        return float(
            min(np.linalg.eigvalsh(self.Q).min(), np.linalg.eigvalsh(self.R).min())
        )

    @staticmethod
    def identity(d_x: int, d_u: int) -> "CostSpec":
        """The default cost Q = I, R = I."""
        return CostSpec(np.eye(d_x), np.eye(d_u))

    def stage(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stage cost, batched over any leading axes of x and u."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return np.vecdot(x, x @ self.Q) + np.vecdot(u, u @ self.R)
