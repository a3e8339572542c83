"""Property tests of the lockstep rollout engine against per-row references.

Hypothesis draws the shape of each case (system, gain layout, cost cap,
horizon) and a seed; numpy draws the arrays from that seed.  Every batched
result must match the reference run one row at a time, up to the step at
which the whole batch has decayed: costs to 1e-12 relative, step counts and
flags exactly.  On stable linear loops the cost the decay stop omits stays
within its stated bound.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import damped_rollout, decay_end_step

from pgstab.bench import _converged_mask
from pgstab.dynamics import (
    BLOWUP_FACTOR,
    DECAY_FRACTION,
    cartpole,
    linear_as_nonlinear,
    lockstep,
    rollout_cost_batch,
)
from pgstab.lqr import value_matrix
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
    refs = [
        damped_rollout(sys, k[i] if per_row_gains else k, gamma, x0s[i], horizon,
                       cost, cap=cap)
        for i in range(n)
    ]
    end = decay_end_step(refs, horizon)
    for i, ref in enumerate(refs):
        # a row still live when the batch decays ends there, with no flag
        steps = min(ref.horizon, end)
        ended_first = ref.horizon <= end
        assert np.isclose(
            batch.costs[i], ref.stage_costs[:steps].sum(), rtol=1e-12, atol=0.0
        )
        assert batch.steps[i] == steps
        assert batch.diverged[i] == (ended_first and ref.diverged)
        assert batch.capped[i] == (ended_first and ref.truncated and not ref.diverged)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 400),
    gamma=st.floats(0.3, 1.0),
    cap=st.sampled_from([np.inf, 30.0]),
)
def test_decay_stop_omits_at_most_the_tail_bound(seed, horizon, gamma, cap):
    # a stable damped linear loop, damped radius in [0.2, 0.95]: a row the
    # batch ends at step t has ||x_t|| <= tau ||x_0||, and the cost it omits
    # is at most x_t' P_K x_t <= tau^2 ||P_K|| ||x_0||^2
    rng = np.random.default_rng(seed)
    d_x = int(rng.integers(1, 5))
    d_u = int(rng.integers(1, d_x + 1))
    a, b = rng.normal(size=(d_x, d_x)), rng.normal(size=(d_x, d_u))
    k = 0.3 * rng.normal(size=(d_u, d_x))
    # scaling A and B together scales A + B K
    c = rng.uniform(0.2, 0.95) / (np.sqrt(gamma) * max(spectral_radius(a + b @ k), 1e-12))
    lin = LinearSystem(c * a, c * b)
    cost = CostSpec.identity(d_x, d_u)
    p_norm = np.linalg.norm(value_matrix(lin, cost, k, gamma), 2)
    n = 12
    x0s = rng.uniform(0.1, 10.0, size=(n, 1)) * rng.normal(size=(n, d_x))
    sys = linear_as_nonlinear(lin)
    batch = rollout_cost_batch(sys, k, gamma, x0s, horizon, cost, rollout_cap=cap)
    for i in range(n):
        full = damped_rollout(sys, k, gamma, x0s[i], horizon, cost, cap=cap)
        bound = DECAY_FRACTION**2 * p_norm * float(x0s[i] @ x0s[i])
        assert abs(full.cost - batch.costs[i]) <= bound + 1e-12 * full.cost
        if batch.steps[i] < full.horizon:  # ended by decay, not by its own end
            assert not batch.capped[i] and not batch.diverged[i]


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
