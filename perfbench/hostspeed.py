"""The host's speed, sampled while the benchmark's passes run.

The benchmark runs on a few cores of a shared host whose speed moves by up
to 2x, in spells that last from seconds to minutes, with CPU time following
wall time: other tenants contend for the core.  A longer run does not average
that away.  So, while the passes run, a timer interrupts the process
``PERIOD_S`` after each sample and times ``chunk``, a fixed piece of numpy work of the same
kind as the library's (small dense solves and products, batched quadratic
forms and elementwise maps over a rollout-sized batch).  It touches no
``pgstab`` code, so a change to the library cannot move it; only the host
can.

``Sampler.scale`` is ``REFERENCE_CHUNK_S`` over the mean chunk time: how
much faster the host ran than the reference state.  ``solve_s`` is the wall
time of the passes, less the time spent in the sampler, times that scale.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.5
# The median chunk time on the host the baseline was measured on (see
# README.md).  Only its order matters: it fixes the unit of solve_s near
# the wall seconds of that host.
REFERENCE_CHUNK_S = 0.02
CHUNK_ITERS = 150
# Untimed iterations first, so that the caches the interrupted code filled
# with its own data do not count against the host.
WARMUP_ITERS = 10

_A = np.array(
    [[4.0, 1.0, 0.5, 0.0], [0.2, 3.0, 0.1, 0.4], [0.0, 0.3, 5.0, 0.2], [0.1, 0.0, 0.6, 2.0]]
)
_b = np.arange(1.0, 5.0)
_Q = np.eye(4) + 0.1
_X = np.linspace(-1.0, 1.0, 4000).reshape(1000, 4)


def _work(iters: int) -> None:
    for _ in range(iters):
        np.linalg.solve(_A, _b)
        _A @ _Q @ _A.T
        np.einsum("bi,ij,bj->b", _X, _Q, _X)
        np.tanh(_X) * 0.5 + _X


def chunk() -> float:
    """Time one fixed piece of numpy work, after a warm-up; returns its wall
    seconds."""
    _work(WARMUP_ITERS)
    t0 = time.perf_counter()
    _work(CHUNK_ITERS)
    return time.perf_counter() - t0


class Sampler:
    """While active (``with sampler:``), times one ``chunk`` ``period_s``
    after the previous one ended, from a SIGALRM handler on the main thread.

    ``busy_s`` is the wall time spent in the handler so far; callers take it
    out of whatever they time.  The handler reads and writes only its own
    arrays, so it cannot change a result of the code it interrupts.  The
    timer is one-shot and re-armed at the end of the handler, so a chunk is
    never interrupted by the next one.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._active = False
        self._previous = None

    def _sample(self, signum, frame) -> None:
        if not self._active:
            return
        t0 = time.perf_counter()
        self.samples.append(chunk())
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        self.busy_s += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        """Reference chunk time over the mean measured one."""
        if not self.samples:
            return REFERENCE_CHUNK_S / chunk()
        return REFERENCE_CHUNK_S / statistics.fmean(self.samples)
