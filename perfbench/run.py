"""Benchmark: time and oracle queries to a certified stabilizing gain.

Run from the repository root:

    python3 perfbench/run.py --workload exact-linear --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # the three in turn

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
solves the same instances once untraced and once with every library layer
wrapped in spans, checks that both give bit-identical gains and counts, and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a full record with
the machine, every metric and every instance goes to ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One process, no extra threads: the BLAS reads these when numpy loads.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Fresh interpreters timed for setup_s besides this one: half before the
# passes and half after, so that one burst of load on the host does not
# cover every sample.
SETUP_PROBES = 10

# name -> (unit, better); the ones BENCHMARK.json gates are in GATED
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "fail_frac": ("ratio", "lower"),
    "outer_iters": ("count", "lower"),
    "grad_queries": ("count", "lower"),
    "eval_queries": ("count", "lower"),
    "rho_cl_max": ("1", "lower"),
    "gap_over_dx_max": ("1", "lower"),
    "roa_min": ("1", "higher"),
    "roa_lqr": ("1", "higher"),
}
GATED = ("setup_s", "solve_s", "peak_rss_mb")


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "s": "s",
        "self_s": "s",
        "us_per_call": "us",
        "ms_per_call": "ms",
        "ns_per_row": "ns",
        "ns_per_row_step": "ns",
        "dropped_frac": "ratio",
        "capped_frac": "ratio",
        "early_stop_frac": "ratio",
        "overhead": "ratio",
    }.get(suffix, "count")


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int) -> None:
    """Time import plus instance set-up in this fresh interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].setup(seed)
    print(time.perf_counter() - t0)


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_pass(workloads, instances, tracer=None, sampler=None):
    """Solve every instance once; with a tracer, each under its own span and
    with timed simulator callables.  With a host-speed sampler, the time the
    sampler took during an instance is taken out of that instance's time."""
    if tracer is None:
        outcomes = []
        for inst in instances:
            busy = sampler.busy_s if sampler else 0.0
            out = workloads.solve(inst, inst.system)
            if sampler:
                out.seconds -= sampler.busy_s - busy
            outcomes.append(out)
        return outcomes
    outcomes = []
    for inst in instances:
        tracer.current_instance = inst.index
        with tracer.span("perfbench.instance"):
            outcomes.append(workloads.solve(inst, tracer.wrap_system(inst.system)))
    return outcomes


def fingerprints(outcomes) -> list[tuple]:
    return [o.fingerprint() for o in outcomes]


def end_to_end(outcomes, times, setup, roa_lqr, linear: bool) -> dict:
    """Every end-to-end metric of the run; None where nothing returned a gain.

    Set-up is timed several times and counts at its median; each instance's
    time is its mean over the passes.  A shared host is slow most of the
    time and fast in short spells, so a minimum flips between the two states
    from run to run and is less steady than a median or a mean.
    """
    returned = [o for o in outcomes if o.gain is not None]
    ret_time = sum(times[o.index] for o in returned)
    queries = sum(o.grad_queries + o.eval_queries for o in returned)
    m = {
        "setup_s": statistics.median(setup),
        "solve_s": sum(times),
        "queries_per_s": queries / ret_time if returned else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": sum(not o.certified for o in outcomes) / len(outcomes),
        "outer_iters": sum(o.outer_iters for o in returned),
        "grad_queries": sum(o.grad_queries for o in returned),
        "eval_queries": sum(o.eval_queries for o in returned),
        "rho_cl_max": max((o.checks["rho_cl"] for o in returned), default=None),
    }
    if linear:
        gaps = [o.checks["gap_over_dx"] for o in returned if "gap_over_dx" in o.checks]
        m["gap_over_dx_max"] = max(gaps, default=None)
    else:
        m["roa_min"] = min((o.checks["roa"] for o in returned), default=None)
        m["roa_lqr"] = roa_lqr
    return m


def instance_rows(outcomes, times) -> list[dict]:
    return [
        {
            "index": o.index,
            "status": o.status,
            "seconds": times[o.index],
            "anneal_iteration": o.anneal_iteration,
            "outer_iters": o.outer_iters,
            "grad_queries": o.grad_queries,
            "eval_queries": o.eval_queries,
            "gain": None if o.gain is None else o.gain.tolist(),
            **o.checks,
        }
        for o in outcomes
    ]


def measure(workloads, instances, passes: int, seconds: float, problems: list):
    """Untraced passes: at least ``passes`` of them and at least ``seconds``
    of measuring, with the host's speed sampled throughout.  Returns the
    first pass, each instance's wall time (its mean over the passes, less
    the sampler's time), the number of passes and the sampler."""
    import hostspeed

    runs = []
    started = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        while len(runs) < passes or time.perf_counter() - started < seconds:
            runs.append(run_pass(workloads, instances, sampler=sampler))
    if any(fingerprints(p) != fingerprints(runs[0]) for p in runs[1:]):
        problems.append("a repeated pass gave different gains or counts")
    times = [statistics.fmean(p[i].seconds for p in runs) for i in range(len(instances))]
    return runs[0], times, len(runs), sampler


def isolation_problems(layers: dict, wl) -> list[str]:
    """Calls into a layer the workload must leave alone."""
    return [
        f"{name} = {value} on {wl.name}, which should not call it"
        for name, value in layers.items()
        if name.endswith(".calls") and name.startswith(wl.zero_calls) and value
    ]


def measure_traced(workloads, wl, seed, reference, roa_lqr, problems: list):
    """Set-up and one pass with every layer traced; returns the tracer and
    the tracing overhead (traced over untraced solve time)."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("perfbench.setup"):
            instances = wl.setup(seed)
        traced = run_pass(workloads, instances, tracer)
        tracer.current_instance = instances[0].index
        traced_roa = workloads.baseline_roa(instances[0], tracer.wrap_system(instances[0].system))
    finally:
        tracer.uninstall()
    if fingerprints(traced) != fingerprints(reference) or traced_roa != roa_lqr:
        problems.append("traced run differs from the untraced run")
    return tracer, sum(o.seconds for o in traced) / sum(o.seconds for o in reference)


def run_all(args) -> int:
    """Every workload in turn, each in its own process; 0 if all succeed."""
    import workloads

    codes = [
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        ).returncode
        for name in workloads.WORKLOADS
    ]
    return 0 if not any(codes) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "pgstab" / "__init__.py").is_file():
        print(f"perfbench: no pgstab sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import pgstab
    import workloads

    if not Path(pgstab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: pgstab loaded from {pgstab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}, or all", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    instances = wl.setup(args.seed)
    setup = [time.perf_counter() - t0]
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup += setup_samples(args.workload, args.seed, probes)

    problems: list[str] = []
    outcomes, wall_times, passes, sampler = measure(
        workloads,
        instances,
        1 if args.trace else wl.passes,
        0.0 if args.trace else args.seconds,
        problems,
    )
    setup += setup_samples(args.workload, args.seed, probes)
    host_scale = sampler.scale
    times = [t * host_scale for t in wall_times]
    problems += [
        f"instance {o.index}: {o.broken_guarantee}" for o in outcomes if o.broken_guarantee
    ]
    roa_lqr = workloads.baseline_roa(instances[0], instances[0].system)
    metrics = end_to_end(outcomes, times, setup, roa_lqr, wl.linear)
    layers = {}
    if args.trace:
        tracer, overhead = measure_traced(workloads, wl, args.seed, outcomes, roa_lqr, problems)
        layers = tracer.layer_metrics()
        layers["trace.overhead"] = overhead
        problems += isolation_problems(layers, wl)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.npz", args.workload, args.seed)

    failures = Counter(o.status for o in outcomes if not o.certified)
    mach = machine()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "passes": passes,
                "machine": mach,
                "setup_samples_s": setup,
                "host_scale": host_scale,
                "host_chunk_samples_s": sampler.samples,
                "solve_wall_s": sum(wall_times),
                "failures": failures,
                "problems": problems,
                "end_to_end": metrics,
                "per_layer": layers,
                "instances": instance_rows(outcomes, times),
            },
            indent=1,
        )
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} instances={len(outcomes)}")
    print(f"host: scale {host_scale:.4f} from {len(sampler.samples)} samples, "
          f"solve wall time {sum(wall_times):.3f} s")
    print("machine: " + json.dumps(mach))
    print(f"failed: {sum(failures.values())} {json.dumps(failures)}")
    for name, value in metrics.items():
        unit, better = END_TO_END[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>14} {unit:<6} ({better} is better)")
    for problem in problems:
        print(f"PROBLEM: {problem}")

    if args.trace:
        chosen = {k: (v, layer_unit(k)) for k, v in layers.items()}
    else:
        chosen = {k: (metrics[k], END_TO_END[k][0]) for k in GATED}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
