"""Simulator-side view of a system: black-box steps, lockstep rollouts, cart-pole.

A ``NonlinearSystem`` exposes exactly what a simulator gives you: a one-step
transition ``G(x, u)`` and, for linearization and sensitivity propagation, a
batched step that also returns its Jacobians.

Discounting is realized by damping the dynamics, never the costs: a damped
rollout steps ``x_{t+1} = sqrt(gamma) G(x_t, K x_t)`` and accumulates
*undiscounted* quadratic stage costs.  On linear systems this reproduces the
discounted cost exactly.

Every batched rollout in the package runs through ``lockstep``, the one
engine that steps rows together, applies the blow-up bound, compacts the
rows that end, and ends the whole batch once every live row has decayed to
``DECAY_FRACTION`` of its start norm: on a stabilizing damped loop the rest of
the horizon would add only round-off to the costs (see ``lockstep`` for the
bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CostSpec, LinearSystem, check_gamma, check_real

BLOWUP_FACTOR = 1e6  # ||x_t|| > BLOWUP_FACTOR * max(1, ||x0||) counts as divergence
DECAY_FRACTION = 1e-6  # a batch ends once every live row has ||x_t|| <= this * ||x0||


@dataclass(frozen=True)
class NonlinearSystem:
    """Black-box dynamics x' = G(x, u).

    Attributes
    ----------
    d_x, d_u : state and input dimensions.
    step : callable ``(x, u) -> x'`` mapping states to next states; takes a
        single state ``(d_x,)`` or a batch ``(N, d_x)`` with inputs to match.
    step_jac : callable ``(X, U) -> (X', G_x, G_u)`` on batches only, shapes
        ``(N, d_x)``, ``(N, d_x, d_x)`` and ``(N, d_x, d_u)``; ``X'`` must
        equal ``step(X, U)`` exactly.  Callers read the Jacobians and never
        write to them, so read-only views are allowed.
    name : a label for the caller; the library does not read it.
    linear : the exact ``LinearSystem`` when the dynamics are declared
        linear, else ``None``.  Declared-linear systems get the cheaper
        search strategy during annealing.
    """

    d_x: int
    d_u: int
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    step_jac: Callable[
        [np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
    ]
    name: str = ""
    linear: LinearSystem | None = None


def linear_as_nonlinear(sys: LinearSystem, name: str = "linear") -> NonlinearSystem:
    """Wrap exact linear dynamics in the simulator interface."""
    A, B = sys.A, sys.B
    At, Bt = A.T.copy(), B.T.copy()

    def step(x, u):
        return np.asarray(x, dtype=float) @ At + np.asarray(u, dtype=float) @ Bt

    def step_jac(x, u):
        n = x.shape[0]
        gx = np.broadcast_to(A, (n,) + A.shape)
        gu = np.broadcast_to(B, (n,) + B.shape)
        return x @ At + u @ Bt, gx, gu

    return NonlinearSystem(
        d_x=sys.d_x, d_u=sys.d_u, step=step, step_jac=step_jac, name=name, linear=sys
    )


@dataclass(frozen=True)
class CartPoleParams:
    """Cart-pole constants; defaults are the unity benchmark configuration."""

    m_p: float = 1.0  # pole mass
    m_c: float = 1.0  # cart mass
    l: float = 1.0  # pole length
    g: float = 1.0  # gravity
    ts: float = 0.05  # Euler integration step

    def __post_init__(self):
        for name in ("m_p", "m_c", "l", "g", "ts"):
            check_real(getattr(self, name), name)


def cartpole(params: CartPoleParams | None = None) -> NonlinearSystem:
    """Cart-pole with the pole upright at the origin, forward-Euler discretized.

    State is ``(x, theta, xdot, thetadot)`` with ``theta = 0`` the unstable
    upright equilibrium; the input is a horizontal force on the cart.  The
    continuous dynamics solve

        [m_p + m_c,        -m_p l cos(theta)] [xddot    ]   [u - m_p l sin(theta) thetadot^2]
        [-m_p l cos(theta), m_p l^2         ] [thetaddot] = [m_p g l sin(theta)             ]

    and the 2x2 mass matrix is inverted in closed form.  ``step_jac`` returns
    the hand-differentiated Jacobian of the Euler step.
    """
    p = params or CartPoleParams()
    mp, mc, l, g, ts = p.m_p, p.m_c, p.l, p.g, p.ts

    mpl = mp * l
    mpll = mp * l * l
    mtot = mp + mc
    # the state-independent entries of the Euler step's state Jacobian
    gx_const = np.eye(4)
    gx_const[0, 2] = gx_const[1, 3] = ts

    def _core(th, om, f):
        s, c = np.sin(th), np.cos(th)
        invdet = 1.0 / (mpll * mtot - (mpl * c) ** 2)
        b1 = f - mpl * s * om**2
        b2 = mp * g * l * s
        xacc = (mpll * b1 + mpl * c * b2) * invdet
        thacc = (mpl * c * b1 + mtot * b2) * invdet
        return s, c, invdet, b1, b2, xacc, thacc

    def _euler(x, th, v, om, xacc, thacc):
        xn = np.empty_like(x)
        xn[..., 0] = x[..., 0] + ts * v
        xn[..., 1] = th + ts * om
        xn[..., 2] = v + ts * xacc
        xn[..., 3] = om + ts * thacc
        return xn

    def step(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        th, v, om = x[..., 1], x[..., 2], x[..., 3]
        xacc, thacc = _core(th, om, u[..., 0])[5:]
        return _euler(x, th, v, om, xacc, thacc)

    def step_jac(x, u):
        th, v, om = x[:, 1], x[:, 2], x[:, 3]
        s, c, invdet, b1, b2, xacc, thacc = _core(th, om, u[:, 0])
        ddet_scaled = 2.0 * mpl * mpl * c * s * invdet
        db1_dth = -mpl * c * om**2
        db1_dom = -2.0 * mpl * s * om
        db2_dth = mp * g * l * c
        dxacc_dth = (
            mpll * db1_dth - mpl * s * b2 + mpl * c * db2_dth
        ) * invdet - xacc * ddet_scaled
        dthacc_dth = (
            -mpl * s * b1 + mpl * c * db1_dth + mtot * db2_dth
        ) * invdet - thacc * ddet_scaled

        n = x.shape[0]
        gx = np.empty((n, 4, 4))  # fresh per call: callers may keep a Jacobian
        gx[:] = gx_const
        gx[:, 2, 1] = ts * dxacc_dth
        gx[:, 2, 3] = ts * (mpll * db1_dom * invdet)
        gx[:, 3, 1] = ts * dthacc_dth
        gx[:, 3, 3] = 1.0 + ts * (mpl * c * db1_dom * invdet)
        gu = np.zeros((n, 4, 1))
        gu[:, 2, 0] = ts * (mpll * invdet)
        gu[:, 3, 0] = ts * (mpl * c * invdet)
        return _euler(x, th, v, om, xacc, thacc), gx, gu

    return NonlinearSystem(d_x=4, d_u=1, step=step, step_jac=step_jac, name="cartpole")


def jacobian_linearization(sys: NonlinearSystem) -> LinearSystem:
    """Linearization (A, B) of the dynamics at the origin equilibrium."""
    _, gx, gu = sys.step_jac(np.zeros((1, sys.d_x)), np.zeros((1, sys.d_u)))
    return LinearSystem(gx[0], gu[0])


@dataclass
class Lockstep:
    """Per-row outcome of ``lockstep``; every array has one entry per row."""

    steps: np.ndarray  # (N,) steps taken before the row ended (or the batch did)
    diverged: np.ndarray  # (N,) bool, the state left the blow-up bound
    stopped: np.ndarray  # (N,) bool, flagged by ``advance`` and not diverged
    carry: tuple  # the carried arrays as each row ended, rows in input order


def lockstep(X, horizon: int, advance, carry: tuple = ()) -> Lockstep:
    """Step a batch of rollouts together until each ends.

    ``advance(X, *carry) -> (X', carry', stop)`` takes one step of every
    live row: ``carry`` holds per-row arrays (leading axis N) that ride along,
    and ``stop`` is a per-row bool array that ends rows, or ``None``.  A row
    ends after ``horizon`` steps, when ``stop`` flags it, or when its state
    leaves ``||x_t|| <= BLOWUP_FACTOR * max(1, ||x_0||)`` or goes non-finite
    (it is then ``diverged``, and not ``stopped`` even if flagged).  Ended
    rows are compacted out, so the common all-alive case runs without
    per-step fancy indexing.

    The whole batch ends at the first step t where every row still live has
    ``||x_t|| <= DECAY_FRACTION * ||x_0||``.  Those rows are neither
    ``diverged`` nor ``stopped``, and their ``steps`` is t.  A start at
    ``x_0 = 0`` ends at step 1; a NaN state never counts as decayed.  Cost of
    the rule, with tau = ``DECAY_FRACTION``:

    - on a stable damped linear loop, a row's omitted tail is
      ``x_t' P_K x_t <= tau^2 ||P_K|| ||x_0||^2``, at most
      ``tau^2 ||P_K|| / lambda_min(Q)`` of the row's cost;
    - on an unstable loop, a row reaches the floor only from a start within
      about tau * cond of the stable subspace;
    - near the equilibrium the linearization governs.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    norm0 = np.linalg.norm(X, axis=1)
    blow2 = (BLOWUP_FACTOR * np.maximum(1.0, norm0)) ** 2
    tiny2 = (DECAY_FRACTION * norm0) ** 2
    steps = np.zeros(n, dtype=int)
    diverged = np.zeros(n, dtype=bool)
    stopped = np.zeros(n, dtype=bool)
    final = tuple(np.empty_like(c) for c in carry)
    act = np.arange(n)
    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < horizon and act.size:
            X, carry, flag = advance(X, *carry)
            t += 1
            # squared-norm tests: overflow to inf and NaN both fail `<=`
            n2 = np.vecdot(X, X)
            bad = ~(n2 <= blow2)
            stop = bad if flag is None else bad | flag
            if stop.any():
                ended = act[stop]
                steps[ended] = t
                diverged[act[bad]] = True
                stopped[act[stop & ~bad]] = True
                for out, c in zip(final, carry):
                    out[ended] = c[stop]
                keep = ~stop
                act = act[keep]
                X = X[keep]
                n2, blow2, tiny2 = n2[keep], blow2[keep], tiny2[keep]
                carry = tuple(c[keep] for c in carry)
            if (n2 <= tiny2).all():
                break
    steps[act] = t
    for out, c in zip(final, carry):
        out[act] = c
    return Lockstep(steps=steps, diverged=diverged, stopped=stopped, carry=final)


@dataclass
class BatchCosts:
    """Per-rollout outcome of a batched damped rollout."""

    costs: np.ndarray  # (N,) accumulated undiscounted stage costs
    steps: np.ndarray  # (N,) stages accumulated before the row or batch ended
    diverged: np.ndarray  # (N,) bool
    capped: np.ndarray  # (N,) bool, rollout stopped at its cost cap


def rollout_cost_batch(
    sys: NonlinearSystem,
    K: np.ndarray,
    gamma: float,
    x0s: np.ndarray,
    horizon: int,
    cost: CostSpec,
    *,
    rollout_cap: float = np.inf,
) -> BatchCosts:
    """Accumulate undiscounted stage costs of damped closed-loop rollouts.

    Each row of ``x0s`` steps ``x' = sqrt(gamma) G(x, K x)`` for ``horizon``
    steps, or until it diverges or its cost exceeds ``rollout_cap``, or until
    the batch ends because every live row has decayed (``lockstep``); a row
    that ends by decay is neither ``diverged`` nor ``capped``.  ``K`` may also
    carry one gain per rollout (shape ``(N, d_u, d_x)``).
    """
    check_gamma(gamma)
    K = np.asarray(K, dtype=float)
    X = np.array(x0s, dtype=float)
    if X.ndim != 2 or X.shape[1] != sys.d_x:
        raise ValueError(f"x0s must have shape (N, {sys.d_x}), got {X.shape}")
    n = X.shape[0]
    per_row_gains = K.ndim == 3
    if per_row_gains and K.shape != (n, sys.d_u, sys.d_x):
        raise ValueError(
            f"per-rollout gains must have shape ({n}, {sys.d_u}, {sys.d_x}),"
            f" got {K.shape}"
        )
    Kt = None if per_row_gains else K.T.copy()
    sq = np.sqrt(gamma)

    def advance(X, tot, *Ks):
        u = np.vecdot(Ks[0], X[:, None, :]) if Ks else X @ Kt
        tot += cost.stage(X, u)
        X = sq * np.asarray(sys.step(X, u), dtype=float)
        return X, (tot, *Ks), tot > rollout_cap

    carry = (np.zeros(n), K) if per_row_gains else (np.zeros(n),)
    run = lockstep(X, horizon, advance, carry)
    return BatchCosts(
        costs=run.carry[0], steps=run.steps, diverged=run.diverged, capped=run.stopped
    )
