"""Tests for spectral radius, Lyapunov and Riccati solvers.

Expected values are frozen from closed forms: geometric-series sums for the
Lyapunov solver and the scalar Riccati fixed point p = 2 + sqrt(5) (with gain
equal to minus the golden ratio) for the double-integrator-like system A=2,
B=1, Q=R=1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dlyap_doubling, dlyap_residual, solve_dare_value_iteration

from pgstab.bench import sample_stabilizable_system
from pgstab.matops import (
    NotStabilizableError,
    UnstableError,
    dlyap,
    solve_dare,
    spectral_radius,
)
from pgstab.model import CostSpec, LinearSystem

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def linear_suite_systems():
    """The 60 systems of `pgstab anneal-linear --seed 0`, in order."""
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0x11E,)))
    return [sample_stabilizable_system(rng, (2, 3, 4)[i % 3]) for i in range(60)]


def random_stable(rng, d, rho_max=0.95):
    a = rng.normal(size=(d, d))
    rho = spectral_radius(a)
    return a * (rho_max * rng.uniform(0.3, 1.0) / rho)


def non_normal_loop(rng, d, rho, log_cond):
    """A = T D T^-1 with spectral radius ``rho``: D is block diagonal, real
    eigenvalues and scaled 2x2 rotations for complex pairs, with one block of
    modulus ``rho``; T = U diag(1 .. 10^-log_cond) V' for random orthogonal U
    and V, so cond(T) = 10^log_cond."""
    radii = rng.uniform(0.0, rho, size=d)
    radii[0] = rho
    D = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and rng.random() < 0.5:
            t = rng.uniform(0.0, np.pi)
            D[i : i + 2, i : i + 2] = radii[i] * np.array(
                [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
            )
            i += 2
        else:
            D[i, i] = radii[i] * rng.choice([-1.0, 1.0])
            i += 1
    U, _ = np.linalg.qr(rng.normal(size=(d, d)))
    V, _ = np.linalg.qr(rng.normal(size=(d, d)))
    T = U @ np.diag(np.logspace(0.0, -log_cond, d)) @ V.T
    return T @ D @ np.linalg.inv(T)


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


def test_dlyap_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = random_stable(rng, d)
        w = rng.normal(size=(d, d))
        q = w @ w.T + np.eye(d)
        # scipy solves X = A X A' + Q, so it is handed A' for X = Q + A' X A
        expected = linalg.solve_discrete_lyapunov(a.T, q)
        x = dlyap(a, q)
        assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


def test_solve_dare_matches_scipy_at_several_discounts():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        sys = sample_stabilizable_system(rng, d)
        cost = CostSpec.identity(d, sys.d_u)
        for gamma in (0.2, 0.6, 0.9, 1.0):
            sq = np.sqrt(gamma)
            p_ref = linalg.solve_discrete_are(sq * sys.A, sq * sys.B, cost.Q, cost.R)
            k_ref = -np.linalg.solve(
                cost.R + gamma * sys.B.T @ p_ref @ sys.B,
                gamma * sys.B.T @ p_ref @ sys.A,
            )
            p, k = solve_dare(sys, cost, gamma)
            assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)
            assert np.linalg.norm(k - k_ref) <= 1e-7 * max(1.0, np.linalg.norm(k_ref))


def test_dlyap_rejects_unstable():
    with pytest.raises(UnstableError):
        dlyap(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(UnstableError):
        dlyap(np.array([[1.5, 0.0], [0.0, 0.2]]), np.eye(2))


def test_dlyap_refuses_what_its_one_test_covers():
    # the eigenvalue check (numpy's LinAlgError is a ValueError) refuses a
    # matrix that is not square or not finite
    with pytest.raises(ValueError):
        dlyap(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError):
        dlyap(np.array([[0.5, np.nan], [0.0, 0.5]]), np.eye(2))
    # stable, but so far from normal that the operator I - A' (x) A' overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(UnstableError, match="overflowed"):
            dlyap(np.array([[0.5, 1e200], [0.0, 0.5]]), np.eye(2))
    # stable (spectral radius 1 - 1e-8), but with cond(T) = 1e3 the operator
    # I - A' (x) A' is singular to working precision: an exactly zero pivot
    a = non_normal_loop(np.random.default_rng(1), 2, 1.0 - 1e-8, 3.0)
    with pytest.raises(UnstableError, match="ill-conditioned"):
        dlyap(a, np.eye(2))


def stable_stack(rng, shape, d):
    """Stable transition matrices of the given leading shape, spectral radii
    up to 0.999, and symmetric positive definite driving terms."""
    a = np.stack([random_stable(rng, d, rho_max=0.999) for _ in range(int(np.prod(shape)))])
    s = rng.normal(size=(a.shape[0], d, d))
    s = s @ s.transpose(0, 2, 1) + 0.1 * np.eye(d)
    return a.reshape(*shape, d, d), s.reshape(*shape, d, d)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5))
def test_dlyap_stack_of_a_and_its_transpose_is_the_two_separate_calls(seed, d):
    # lqr_grad's stack: each slice is solved on its own, so each half is its
    # 2-D call bit for bit
    rng = np.random.default_rng(seed)
    (a,), (s,) = stable_stack(rng, (1,), d)
    x = dlyap(np.stack([a, a.T]), np.stack([s, np.eye(d)]))
    assert np.array_equal(x[0], dlyap(a, s))
    assert np.array_equal(x[1], dlyap(a.T, np.eye(d)))


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    shape=st.sampled_from([(1,), (2,), (4,), (2, 3)]),
)
def test_dlyap_stack_matches_per_slice_calls(seed, d, shape):
    # each slice is its own LU solve
    rng = np.random.default_rng(seed)
    a, s = stable_stack(rng, shape, d)
    x = dlyap(a, s)
    assert x.shape == a.shape
    for i in np.ndindex(shape):
        ref = dlyap(a[i], s[i])
        assert np.linalg.norm(x[i] - ref) <= 1e-13 * np.linalg.norm(ref)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    n=st.integers(1, 4),
    bad=st.integers(0, 3),
)
def test_dlyap_stack_refuses_one_bad_slice(seed, d, n, bad):
    rng = np.random.default_rng(seed)
    a, s = stable_stack(rng, (n,), d)
    i = bad % n
    unstable = a.copy()
    unstable[i] *= rng.uniform(1.0, 2.0) / spectral_radius(a[i])
    with pytest.raises(UnstableError):
        dlyap(unstable, s)
    not_finite = a.copy()
    not_finite[i, rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf])
    with pytest.raises(ValueError):
        dlyap(not_finite, s)
    with pytest.raises(ValueError):
        dlyap(np.concatenate([a, a[:, :, :1]], axis=2), s)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is plain double here, so there is no extended-precision reference",
)
@settings(PROPERTY, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    shape=st.sampled_from([(), (2,), (3,)]),
)
def test_dlyap_is_accurate_or_refuses_on_non_normal_loops(seed, d, shape):
    # closed loops with spectral radius 1 - 10^-gap_exp, as 2-D calls and as
    # stacks, against the doubling sum run in extended precision.  gap_exp
    # and log10 cond(T) are drawn uniformly, so about one draw in thirteen is
    # ill-conditioned enough to be refused.  The error is measured in units
    # of u cond(T)^2 / (1 - rho^2), the first-order sensitivity of X to
    # rounding A: over 56,000 draws of this family the worst accepted error
    # was 18 units and 7.9e-5 relative, and the least such scale of a
    # refused draw 3.8e-9
    rng = np.random.default_rng(seed)
    gap_exp, log_cond = rng.uniform(0.3, 8.0), rng.uniform(0.0, 3.0)
    rho = 1.0 - 10.0**-gap_exp
    n = int(np.prod(shape))
    a = np.stack([non_normal_loop(rng, d, rho, log_cond) for _ in range(n)])
    a = a.reshape(*shape, d, d)
    w = rng.normal(size=(*shape, d, d))
    s = w @ w.mT + 0.1 * np.eye(d)
    scale = np.finfo(float).eps * 10.0 ** (2 * log_cond) / (1.0 - rho**2)
    try:
        x = dlyap(a, s)
    except UnstableError as exc:
        assert "ill-conditioned" in str(exc)
        assert scale >= 1e-10
        return
    ref = dlyap_doubling(a.astype(np.longdouble), s.astype(np.longdouble)).astype(float)
    for i in np.ndindex(shape):
        bound = min(100 * scale, 1e-3)
        assert np.linalg.norm(x[i] - ref[i]) <= bound * np.linalg.norm(ref[i])


def test_dlyap_on_the_worst_conditioned_exact_linear_loop():
    # instance 39 of `pgstab anneal-linear --seed 0` (the exact-linear
    # benchmark's draw): its optimal closed loop has spectral radius 0.68 but
    # cond(I - A' (x) A') = 2.1e10 at gamma = 1.  Measured: 1.1e-9 at gamma = 1
    # and 8e-11 at 0.95.  Of the 2,098 slices the cost and gradient queries
    # of a seed-0 exact-linear pass solve, the worst is 7.9e-10, also on
    # instance 39, at a gain the inner loop visits (spectral radius 0.960,
    # cond 6.8e9); against a long-double doubling sum there, dlyap is 1.9e-10
    # off and this reference 6e-10
    lin = linear_suite_systems()[39]
    cost = CostSpec.identity(lin.d_x, lin.d_u)
    for gamma in (1.0, 0.95):
        _, k = solve_dare(lin, cost, gamma)
        a = np.sqrt(gamma) * lin.closed_loop(k)
        s = cost.Q + k.T @ cost.R @ k
        ref = dlyap_doubling(a, s)
        assert np.linalg.norm(dlyap(a, s) - ref) <= 5e-9 * np.linalg.norm(ref)


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


@pytest.mark.parametrize("gamma", [0.0, 1.5, np.nan, "a", None, True])
def test_solve_dare_refuses_discount_that_is_not_in_unit_interval(gamma):
    sys = LinearSystem(np.array([[2.0]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="gamma must lie in"):
        solve_dare(sys, CostSpec.identity(1, 1), gamma)


def _with_hidden_mode(rng, d):
    """A random (A, B) whose last ``d - m`` states B cannot reach, with the
    spectral radius of that block drawn in (1.2, 3): stabilizable only at a
    discount that damps the block below 1."""
    m = int(rng.integers(1, d))
    a = rng.normal(size=(d, d))
    a[m:, :m] = 0.0
    a[m:, m:] *= rng.uniform(1.2, 3.0) / spectral_radius(a[m:, m:])
    b = np.zeros((d, m))
    b[:m] = rng.normal(size=(m, m))
    return LinearSystem(a, b)


def test_solve_dare_matches_value_iteration():
    # the first 60 systems of `pgstab anneal-linear --seed 0`, random
    # stabilizable systems, the uncontrollable-mode case above and systems
    # with an uncontrollable block that only some discounts damp
    systems = linear_suite_systems()
    rng = np.random.default_rng(19)
    systems += [sample_stabilizable_system(rng, int(rng.integers(1, 6))) for _ in range(40)]
    systems.append(LinearSystem(np.diag([2.0, 0.5]), np.array([[0.0], [1.0]])))
    systems += [_with_hidden_mode(rng, int(rng.integers(2, 6))) for _ in range(40)]
    refused = 0
    for sys in systems:
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        for gamma in (0.05, 0.3, 0.7, 0.95, 1.0):
            try:
                p_ref, k_ref = solve_dare_value_iteration(sys, cost, gamma)
            except NotStabilizableError:
                refused += 1
                with pytest.raises(NotStabilizableError):
                    solve_dare(sys, cost, gamma)
                continue
            p, k = solve_dare(sys, cost, gamma)
            # 1e-10, or the forward-error scale 16 u cond(P) where that is
            # larger: 1.5e-9 on the draw with cond(P) = 4.2e5 at gamma = 1
            # (suite draw 39), whose two answers are 3.1e-10 apart, and
            # 9.4e-11 and 2.2e-10 from scipy's
            tol = max(1e-10, 16 * np.finfo(float).eps * np.linalg.cond(p_ref))
            assert np.linalg.norm(p - p_ref) <= tol * np.linalg.norm(p_ref)
            assert np.linalg.norm(k - k_ref) <= tol * np.linalg.norm(k_ref)
    assert refused >= 100  # the non-stabilizable cases are really exercised


def test_solve_dare_value_is_its_gains_own_cost():
    # the polish is one policy evaluation: P is the Lyapunov value of the
    # returned K, bit for bit, so tr P is the exact cost of a gain the caller
    # holds
    rng = np.random.default_rng(23)
    systems = linear_suite_systems()
    systems += [sample_stabilizable_system(rng, int(rng.integers(1, 6))) for _ in range(20)]
    for sys in systems:
        cost = CostSpec.identity(sys.d_x, sys.d_u)
        for gamma in (0.3, 0.95, 1.0):
            p, k = solve_dare(sys, cost, gamma)
            a_cl = np.sqrt(gamma) * (sys.A + sys.B @ k)
            assert np.array_equal(p, dlyap(a_cl, cost.Q + k.T @ cost.R @ k))


def test_solve_dare_slow_stable_uncontrollable_mode():
    # the first state is untouched by B and decays at 0.99999, so its value is
    # the geometric sum 1 / (1 - 0.99999^2); value iteration needs 840,562
    # steps for this, doubling 22 passes
    sys = LinearSystem(np.diag([0.99999, 1.5]), np.array([[0.0], [1.0]]))
    cost = CostSpec.identity(2, 1)
    p, k = solve_dare(sys, cost)
    assert p[0, 0] == pytest.approx(1.0 / (1.0 - 0.99999**2), rel=1e-9)
    assert spectral_radius(sys.closed_loop(k)) < 1.0
    linalg = pytest.importorskip("scipy.linalg")
    p_ref = linalg.solve_discrete_are(sys.A, sys.B, cost.Q, cost.R)
    assert np.linalg.norm(p - p_ref) <= 1e-8 * np.linalg.norm(p_ref)


def test_solve_dare_refuses_marginal_uncontrollable_mode():
    # a mode at exactly 1 that B cannot reach: H_k grows like 2^k until it
    # passes the divergence bound
    sys = LinearSystem(np.diag([1.0, 1.5]), np.array([[0.0], [1.0]]))
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
