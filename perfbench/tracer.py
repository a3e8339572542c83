"""Span tracer for the benchmark's traced run.

``Tracer.install`` replaces each traced library function at every module
binding that holds it (the package imports with ``from .x import y``, so
``lqr.dlyap`` is a binding of its own next to ``matops.dlyap``), and
``uninstall`` puts every original back.  Simulator callables are timed by
handing the library ``Tracer.wrap_system(sys)``, a ``dataclasses.replace``
of the system whose ``step``/``step_jac`` record spans.

One span per call holds its name, start, end, parent span and instance in
flat arrays; ``layer_metrics`` derives the per-layer counts, busy time and
self time (a span's duration minus its direct children's) from that tree.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from pgstab import anneal, bench, dynamics, lqr, matops, model, oracles

# span name -> the functions it covers, as (module, attribute)
TRACED = {
    "matops.dlyap": [(matops, "dlyap")],
    "matops.solve_dare": [(matops, "solve_dare")],
    "matops.spectral_radius": [(matops, "spectral_radius")],
    "lqr.lqr_cost": [(lqr, "lqr_cost")],
    "lqr.lqr_grad": [(lqr, "lqr_grad")],
    "anneal.policy_gradient": [(anneal, "policy_gradient")],
    "anneal.search": [(anneal, "binary_search_gamma"), (anneal, "random_search_gamma")],
    "oracles.eps_grad_sensitivity": [(oracles, "eps_grad_sensitivity")],
    "oracles.eps_grad_zeroth_order": [(oracles, "eps_grad_zeroth_order")],
    "oracles.eps_eval": [(oracles, "eps_eval")],
    "oracles.initial_states": [(oracles, "initial_states")],
    "dynamics.rollout_cost_batch": [(dynamics, "rollout_cost_batch")],
    "dynamics.jacobian_linearization": [(dynamics, "jacobian_linearization")],
    "bench.estimate_roa": [(bench, "estimate_roa")],
    "bench.sample_stabilizable_system": [(bench, "sample_stabilizable_system")],
}
STAGE = "model.CostSpec.stage"  # a method: wrapped once, on the class
SIMULATOR = ("dynamics.step", "dynamics.step_jac")  # via wrap_system
LAYERS = list(TRACED) + [STAGE, *SIMULATOR]


def pgstab_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "pgstab" or name.startswith("pgstab."))
    ]


def traced_originals() -> dict[int, tuple]:
    """id(original) -> (original, span name) for every traced function."""
    return {
        id(getattr(mod, attr)): (getattr(mod, attr), name)
        for name, targets in TRACED.items()
        for mod, attr in targets
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.work = array("q")  # rows, steps or queries, by span name
        self.extra: dict[int, tuple] = {}  # rollout_cost_batch row counts
        self.current_instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self.ok.append(0)
        self.work.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself: the set-up, or one instance."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)
        self.ok[idx] = 1

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(idx, args, kwargs, result)``
        records the span's counts once the call returns."""
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.ok[idx] = 1
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _timed_search(self, fn):
        """A discount search, counting the evaluator queries it makes."""
        nid = self._nid("anneal.search")

        @functools.wraps(fn)
        def traced(evaluator, *args, **kwargs):
            queries = 0

            def counted(g):
                nonlocal queries
                queries += 1
                return evaluator(g)

            idx = self._open(nid)
            try:
                result = fn(counted, *args, **kwargs)
            finally:
                self._close(idx)
                self.work[idx] = queries
            self.ok[idx] = 1
            return result

        return traced

    # -- counts recorded after a call -----------------------------------

    def _rows(self, idx, args, kwargs, result):
        x = args[0]
        self.work[idx] = x.shape[0] if np.ndim(x) == 2 else 1

    def _batch(self, idx, args, kwargs, result):
        horizon = args[4] if len(args) > 4 else kwargs["horizon"]
        steps = result.steps
        self.work[idx] = int(steps.sum())
        self.extra[idx] = (
            steps.size,
            int((steps < horizon).sum()),
            int((result.diverged | result.capped).sum()),
        )

    def _dropped(self, idx, args, kwargs, result):
        self.work[idx] = result.rollouts_used + result.dropped
        self.extra[idx] = (result.dropped,)

    def _pg_steps(self, idx, args, kwargs, result):
        self.work[idx] = result.steps

    # -- install / uninstall --------------------------------------------

    def _wrapper_for(self, name: str, fn):
        if name == "anneal.search":
            return self._timed_search(fn)
        after = {
            "dynamics.rollout_cost_batch": self._batch,
            "oracles.eps_grad_sensitivity": self._dropped,
            "oracles.eps_grad_zeroth_order": self._dropped,
            "anneal.policy_gradient": self._pg_steps,
        }.get(name)
        return self.timed(name, fn, after)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {
            key: (fn, self._wrapper_for(name, fn))
            for key, (fn, name) in traced_originals().items()
        }
        for mod in pgstab_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        stage = model.CostSpec.stage
        self._patched.append((model.CostSpec, "stage", stage))
        model.CostSpec.stage = self.timed(STAGE, stage)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def wrap_system(self, sys: dynamics.NonlinearSystem) -> dynamics.NonlinearSystem:
        """Copy of ``sys`` whose simulator calls record spans."""
        step_jac = sys.step_jac
        return replace(
            sys,
            step=self.timed("dynamics.step", sys.step, self._rows),
            step_jac=(
                None
                if step_jac is None
                else self.timed("dynamics.step_jac", step_jac, self._rows)
            ),
        )

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def write(self, path: Path, workload: str, seed: int) -> None:
        """All spans as one ``.npz``: one array per field plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            workload=np.array(workload),
            seed=np.array(seed),
            **self.arrays(),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times; 0 for a layer that was never called."""
        a = self.arrays()
        nid, parent, work = a["name_id"], a["parent"], a["work"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child_time
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def mask(name):
            return nid == self._ids.get(name, -1)

        def under(child, parent_name):
            return mask(child) & (parent_nid == self._ids.get(parent_name, -1))

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        out: dict[str, float] = {}
        for name in LAYERS:
            m = mask(name)
            out[f"{name}.calls"] = int(m.sum())
            out[f"{name}.s"] = float(dur[m].sum())
            out[f"{name}.self_s"] = float(self_time[m].sum())

        out["matops.dlyap.us_per_call"] = 1e6 * ratio(
            out["matops.dlyap.s"], out["matops.dlyap.calls"]
        )
        out["anneal.policy_gradient.steps"] = int(work[mask("anneal.policy_gradient")].sum())
        search = mask("anneal.search")
        out["anneal.search.queries"] = int(work[search].sum())
        out["anneal.search.queries_per_accept"] = ratio(
            out["anneal.search.queries"], int(a["ok"][search].sum())
        )

        for est in ("oracles.eps_grad_sensitivity", "oracles.eps_grad_zeroth_order"):
            idx = np.flatnonzero(mask(est))
            dropped = sum(self.extra[i][0] for i in idx)
            out[f"{est}.dropped_frac"] = ratio(dropped, work[idx].sum())
        jac_rows = work[under("dynamics.step_jac", "oracles.eps_grad_sensitivity")].sum()
        out["oracles.eps_grad_sensitivity.ns_per_row_step"] = 1e9 * ratio(
            out["oracles.eps_grad_sensitivity.s"], jac_rows
        )

        eval_batches = np.flatnonzero(under("dynamics.rollout_cost_batch", "oracles.eps_eval"))
        out["oracles.eps_eval.capped_frac"] = ratio(
            sum(self.extra[i][2] for i in eval_batches),
            sum(self.extra[i][0] for i in eval_batches),
        )
        out["oracles.initial_states.ms_per_call"] = 1e3 * ratio(
            out["oracles.initial_states.s"], out["oracles.initial_states.calls"]
        )

        for sim in SIMULATOR:
            rows = int(work[mask(sim)].sum())
            out[f"{sim}.rows"] = rows
            out[f"{sim}.ns_per_row"] = 1e9 * ratio(out[f"{sim}.s"], rows)

        batches = np.flatnonzero(mask("dynamics.rollout_cost_batch"))
        out["dynamics.rollout_cost_batch.row_steps"] = int(work[batches].sum())
        out["dynamics.rollout_cost_batch.early_stop_frac"] = ratio(
            sum(self.extra[i][1] for i in batches),
            sum(self.extra[i][0] for i in batches),
        )
        out["bench.estimate_roa.row_steps"] = int(
            work[under("dynamics.step", "bench.estimate_roa")].sum()
        )
        return out
