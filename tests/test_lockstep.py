"""Property tests of the lockstep rollout engine against per-row references.

Hypothesis draws the shape of each case (system, gain layout, cost cap,
horizon) and a seed; numpy draws the arrays from that seed.  Every batched
result must match the reference run one row at a time: costs to 1e-12
relative, step counts and flags exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import damped_rollout

from pgstab.bench import _converged_mask
from pgstab.dynamics import (
    BLOWUP_FACTOR,
    cartpole,
    linear_as_nonlinear,
    lockstep,
    rollout_cost_batch,
)
from pgstab.matops import spectral_radius
from pgstab.model import CostSpec, LinearSystem

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
CARTPOLE_GAIN = np.array([[0.9, -8.9, 3.7, -7.8]])


def draw_case(kind: str, seed: int, n: int):
    """A system, a base gain, a gain jitter and n start states.

    Linear cases span decaying, stalling and diverging rows.  Cart-pole
    cases stay near the upright pole under a stabilizing gain: once the pole
    spins, its motion is chaotic, and the one-ulp difference between the
    batched ``X @ K.T`` and the per-row ``K @ x`` outgrows any fixed
    tolerance within a hundred steps.
    """
    rng = np.random.default_rng(seed)
    if kind == "cartpole":
        k = CARTPOLE_GAIN + 0.05 * rng.normal(size=(1, 4))
        x0s = rng.uniform(0.02, 0.2, size=(n, 1)) * rng.normal(size=(n, 4))
        return cartpole(), k, 0.05, x0s
    d_x = int(rng.integers(1, 5))
    d_u = int(rng.integers(1, d_x + 1))
    a = rng.normal(size=(d_x, d_x))
    # open-loop radius up to 3: rows may decay, stall or blow up
    a *= rng.uniform(0.3, 3.0) / max(spectral_radius(a), 1e-12)
    sys = linear_as_nonlinear(LinearSystem(a, rng.normal(size=(d_x, d_u))))
    k = 0.3 * rng.normal(size=(d_u, d_x))
    x0s = rng.uniform(0.1, 10.0, size=(n, 1)) * rng.normal(size=(n, d_x))
    return sys, k, 0.2, x0s


@PROPERTY
@given(
    kind=st.sampled_from(["linear", "cartpole"]),
    seed=st.integers(0, 2**32 - 1),
    per_row_gains=st.booleans(),
    cap=st.sampled_from([np.inf, 5.0, 200.0, 1e12]),
    horizon=st.integers(0, 120),
    gamma=st.floats(0.3, 1.0),
)
def test_rollout_cost_batch_matches_reference(
    kind, seed, per_row_gains, cap, horizon, gamma
):
    n = 12
    sys, k, jitter, x0s = draw_case(kind, seed, n)
    cost = CostSpec.identity(sys.d_x, sys.d_u)
    if per_row_gains:
        k = k + jitter * np.random.default_rng(seed + 1).normal(size=(n,) + k.shape)
    batch = rollout_cost_batch(sys, k, gamma, x0s, horizon, cost, rollout_cap=cap)
    for i in range(n):
        gain = k[i] if per_row_gains else k
        ref = damped_rollout(sys, gain, gamma, x0s[i], horizon, cost, cap=cap)
        assert np.isclose(batch.costs[i], ref.cost, rtol=1e-12, atol=0.0)
        assert batch.steps[i] == ref.horizon
        assert batch.diverged[i] == ref.diverged
        assert batch.capped[i] == (ref.truncated and not ref.diverged)


def converged_reference(sys, k, x0, horizon, target):
    """One row of ``_converged_mask``, stepped one state at a time; the start
    itself is not tested."""
    x = np.array(x0, dtype=float)
    blow = BLOWUP_FACTOR * max(1.0, float(np.linalg.norm(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(horizon):
            x = sys.step(x, k @ x)
            norm = float(np.linalg.norm(x))
            if norm <= target:
                return True
            if not norm <= blow:
                return False
    return False


@PROPERTY
@given(
    kind=st.sampled_from(["linear", "cartpole"]),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(0, 300),
)
def test_converged_mask_matches_per_row_loop(kind, seed, horizon):
    n = 16
    sys, k, _, x0s = draw_case(kind, seed, n)
    targets = np.random.default_rng(seed + 2).uniform(1e-3, 0.5, size=n)
    mask = _converged_mask(sys, k, x0s, horizon, targets)
    for i in range(n):
        assert mask[i] == converged_reference(sys, k, x0s[i], horizon, targets[i])


def test_lockstep_returns_each_rows_carry_when_it_ends():
    # rows double each step and ask to stop after limit[i] steps; row 2 is
    # flagged on the step it leaves the blow-up bound, row 3 runs to the end
    X = np.array([[1.0], [1.0], [1.0], [1e-9]])
    limit = np.array([1, 3, 20, 50])

    def advance(X, count, lim):
        count = count + 1
        return 2.0 * X, (count, lim), count >= lim

    run = lockstep(X, 25, advance, (np.zeros(4, dtype=int), limit))
    assert run.steps.tolist() == [1, 3, 20, 25]
    assert run.carry[0].tolist() == [1, 3, 20, 25]
    assert run.carry[1].tolist() == limit.tolist()
    assert run.stopped.tolist() == [True, True, False, False]
    assert run.diverged.tolist() == [False, False, True, False]
