"""Tests for spectral radius, Lyapunov and Riccati solvers.

Expected values are frozen from closed forms: geometric-series sums for the
Lyapunov solver and the scalar Riccati fixed point p = 2 + sqrt(5) (with gain
equal to minus the golden ratio) for the double-integrator-like system A=2,
B=1, Q=R=1.
"""

import numpy as np
import pytest
from reference import dlyap_residual

from pgstab.matops import (
    NotStabilizableError,
    UnstableError,
    dlyap,
    solve_dare,
    spectral_radius,
)
from pgstab.model import CostSpec, LinearSystem


def random_stable(rng, d, rho_max=0.95):
    a = rng.normal(size=(d, d))
    rho = spectral_radius(a)
    return a * (rho_max * rng.uniform(0.3, 1.0) / rho)


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.25])) == 0.5
    # rotation by 90 degrees scaled by 2: complex eigenvalues of magnitude 2
    rot = 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius(rot) == pytest.approx(2.0, rel=1e-12)
    # defective matrix: eigenvalues are both 0.9 despite the large off-diagonal
    assert spectral_radius(np.array([[0.9, 100.0], [0.0, 0.9]])) == pytest.approx(0.9)


def test_dlyap_scalar_geometric_series():
    # X = sum_k a^(2k) q = q / (1 - a^2); frozen: a=0.9, q=1 -> 1/0.19
    x = dlyap(np.array([[0.9]]), np.array([[1.0]]))
    assert x[0, 0] == pytest.approx(1.0 / 0.19, rel=1e-12)


def test_dlyap_diagonal_example():
    x = dlyap(0.5 * np.eye(2), np.eye(2))
    assert np.allclose(x, (4.0 / 3.0) * np.eye(2), rtol=1e-12)


def test_dlyap_random_residuals():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        a = random_stable(rng, d)
        w = rng.normal(size=(d, d))
        sigma = w @ w.T + np.eye(d)
        x = dlyap(a, sigma)
        assert np.allclose(x, x.T)
        assert dlyap_residual(a, sigma, x) <= 1e-9 * max(1.0, np.linalg.norm(x))


def test_dlyap_rejects_unstable():
    with pytest.raises(UnstableError):
        dlyap(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(UnstableError):
        dlyap(np.array([[1.5, 0.0], [0.0, 0.2]]), np.eye(2))


def scalar_dare_fixed_point():
    """Independent oracle: iterate p <- 1 + 4p - 4p^2/(1+p) to convergence."""
    p = 1.0
    for _ in range(200):
        p = 1.0 + 4.0 * p - 4.0 * p * p / (1.0 + p)
    return p


def test_dare_scalar_frozen_value():
    sys = LinearSystem(np.array([[2.0]]), np.array([[1.0]]))
    cost = CostSpec.identity(1, 1)
    p, k = solve_dare(sys, cost)
    assert p[0, 0] == pytest.approx(2.0 + np.sqrt(5.0), rel=1e-10)
    assert p[0, 0] == pytest.approx(scalar_dare_fixed_point(), rel=1e-10)
    # optimal gain is minus the golden ratio
    assert k[0, 0] == pytest.approx(-(1.0 + np.sqrt(5.0)) / 2.0, rel=1e-10)
    assert spectral_radius(sys.closed_loop(k)) < 1.0


def test_dare_discounted_scalar():
    # gamma-discounted scalar problem equals the undiscounted one on damped
    # dynamics sqrt(gamma) * (A, B)
    sys = LinearSystem(np.array([[2.0]]), np.array([[1.0]]))
    cost = CostSpec.identity(1, 1)
    gamma = 0.6
    p_disc, k_disc = solve_dare(sys, cost, gamma)
    damped = LinearSystem(np.sqrt(gamma) * sys.A, np.sqrt(gamma) * sys.B)
    p_damp, k_damp = solve_dare(damped, cost)
    assert p_disc[0, 0] == pytest.approx(p_damp[0, 0], rel=1e-10)
    assert np.sqrt(gamma) * k_disc[0, 0] == pytest.approx(
        k_damp[0, 0] * np.sqrt(gamma), rel=1e-10
    )


def test_dare_riccati_residual_and_optimality():
    rng = np.random.default_rng(7)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, d + 1))
        a = rng.normal(size=(d, d))
        b = rng.normal(size=(d, m))
        sys = LinearSystem(a, b)
        cost = CostSpec.identity(d, m)
        try:
            p, k = solve_dare(sys, cost)
        except NotStabilizableError:
            continue
        # fixed point of the Riccati operator
        gbp = b.T @ p
        update = (
            cost.Q
            + a.T @ p @ a
            - a.T @ p @ b @ np.linalg.solve(cost.R + gbp @ b, gbp @ a)
        )
        assert np.allclose(update, p, rtol=1e-8, atol=1e-8 * np.linalg.norm(p))
        assert spectral_radius(sys.closed_loop(k)) < 1.0
        # no sampled stabilizing gain does better
        j_star = np.trace(dlyap(sys.closed_loop(k), cost.Q + k.T @ cost.R @ k))
        for _ in range(20):
            k_alt = k + 0.5 * rng.normal(size=k.shape)
            if spectral_radius(sys.closed_loop(k_alt)) >= 1.0:
                continue
            j_alt = np.trace(
                dlyap(sys.closed_loop(k_alt), cost.Q + k_alt.T @ cost.R @ k_alt)
            )
            assert j_alt >= j_star - 1e-7 * abs(j_star)


def test_dare_not_stabilizable():
    # uncontrollable unstable mode: B only actuates the stable state
    sys = LinearSystem(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]))
    with pytest.raises(NotStabilizableError):
        solve_dare(sys, CostSpec.identity(2, 1))


def test_dlyap_decay_lemma():
    # P = dlyap(A, Q) with Q >= I satisfies
    # (A^T)^j A^j <= (A^T)^j P A^j <= P (1 - 1/||P||)^j
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = random_stable(rng, d)
        w = rng.normal(size=(d, d))
        q = np.eye(d) + w @ w.T
        p = dlyap(a, q)
        norm_p = np.linalg.norm(p, ord=2)
        aj = np.eye(d)
        for j in range(21):
            inner = aj.T @ p @ aj
            lower = np.linalg.eigvalsh(inner - aj.T @ aj)
            upper = np.linalg.eigvalsh(p * (1.0 - 1.0 / norm_p) ** j - inner)
            assert lower.min() >= -1e-8
            assert upper.min() >= -1e-8
            aj = a @ aj


def test_stability_margin_lemma():
    # perturbations with ||D|| <= 1/(6||P||^2) keep P a Lyapunov certificate
    # at the halved decay rate 1 - 1/(2||P||)
    rng = np.random.default_rng(13)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = random_stable(rng, d)
        w = rng.normal(size=(d, d))
        q = np.eye(d) + w @ w.T
        p = dlyap(a, q)
        norm_p = np.linalg.norm(p, ord=2)
        delta = rng.normal(size=(d, d))
        delta *= 1.0 / (6.0 * norm_p**2 * np.linalg.norm(delta, ord=2))
        m = a + delta
        mj = np.eye(d)
        for j in range(21):
            diff = p * (1.0 - 1.0 / (2.0 * norm_p)) ** j - mj.T @ p @ mj
            assert np.linalg.eigvalsh(diff).min() >= -1e-8
            mj = m @ mj
