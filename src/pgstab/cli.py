"""Command-line entry points for the benchmarks and reports.

An experiment's settings come only from ``--config``, a JSON file whose
top-level keys override the defaults of that subcommand's config under the
names the library uses (``oracle_mode``, ``estimator``, ...).  The command
line carries only where to write (``--out``) and, on every subcommand whose
config has a ``seed`` key, which replicate to run (``--seed``, which
overrides that key).  ``roa``, ``baseline-lqr`` and ``anneal-cartpole`` read
the cart-pole from a top-level ``params`` object of ``CartPoleParams``
fields.  On success the exit code is 0 and a JSON summary goes
to stdout; on failure the exit code is nonzero and a machine-readable error
record goes to stderr.  Config keys or values the subcommand does not accept,
and flags it does not register, are refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from . import files
from .bench import (
    CartpoleBenchConfig,
    LinearSuiteConfig,
    estimate_roa,
    run_cartpole,
    run_counterexample,
    run_linear_suite,
    run_lqr_baseline,
)
from .dynamics import CartPoleParams, cartpole


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _fields(cls) -> set[str]:
    return set(cls.__dataclass_fields__)


def _check_keys(cfg: dict, accepted: set[str], where: str = "") -> None:
    """Refuse any config key the command would otherwise silently ignore, and
    a ``params`` value that is not an object."""
    for key, value in cfg.items():
        if key not in accepted:
            raise ValueError(
                f"unknown config key {where}{key!r}; accepted: {sorted(accepted)}"
            )
        if key == "params":
            if not isinstance(value, dict):
                raise ValueError(f"config key {where}{key!r} must be a JSON object")
            _check_keys(value, _fields(CartPoleParams), f"{where}{key}.")


def _cmd_anneal_linear(**cfg) -> dict:
    suite = LinearSuiteConfig(**cfg)
    rows = run_linear_suite(suite)
    failures = sum(r["status"] != "ok" for r in rows)
    return {"rows": len(rows), "failures": failures, "out_dir": suite.out_dir}


def _cmd_anneal_cartpole(**cfg) -> dict:
    bench = CartpoleBenchConfig(**cfg)
    return {"table": run_cartpole(bench)["table"], "out_dir": bench.out_dir}


def _cmd_roa(gain=None, params=None, seed=0, out_dir=None) -> dict:
    report = estimate_roa(cartpole(params), gain, seed)
    if out_dir is not None:
        files.write_json(Path(out_dir) / "roa.json", report.to_dict())
    return {"rho_roa": report.rho_roa, "out_dir": out_dir}


# each subcommand: its function, called with the config as keyword
# arguments, and the config keys it accepts
_COMMANDS = {
    "anneal-linear": (_cmd_anneal_linear, _fields(LinearSuiteConfig)),
    "anneal-cartpole": (_cmd_anneal_cartpole, _fields(CartpoleBenchConfig)),
    "roa": (_cmd_roa, {"gain", "params", "seed"}),
    "counterexample": (run_counterexample, {"gamma"}),
    "baseline-lqr": (run_lqr_baseline, {"params", "seed"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgstab",
        description="Stabilize systems by discount-annealed policy gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, accepted) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        if "seed" in accepted:
            p.add_argument("--seed", type=int, default=None, help="replicate to run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command, accepted = _COMMANDS[args.command]
        cfg = _load_config(args.config)
        _check_keys(cfg, accepted)
        if getattr(args, "seed", None) is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        if "params" in cfg:
            cfg["params"] = CartPoleParams(**cfg["params"])
        summary = command(**cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        # a bad or missing config is a usage error (JSONDecodeError is a ValueError)
        return 2 if isinstance(exc, (ValueError, FileNotFoundError)) else 1
    print(json.dumps(summary, indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
