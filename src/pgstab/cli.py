"""Command-line entry points for the benchmarks and reports.

Every subcommand accepts ``--config`` (a JSON file whose top-level keys
override the defaults of that subcommand's config) and ``--out``.  Quick
overrides are registered only where they are read: ``--seed`` on every
subcommand but ``counterexample``, ``--estimator`` on ``anneal-linear`` and
``anneal-cartpole``, and ``--oracle`` on ``anneal-linear``.  On success the
exit code is 0 and a JSON summary goes to stdout; on failure the exit code
is nonzero and a machine-readable error record goes to stderr.  Config keys
or flags the subcommand does not accept are refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

import numpy as np

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
from .dynamics import CartPoleParams, cartpole, linear_as_nonlinear
from .model import LinearSystem


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return cfg


def _system_from_spec(spec: dict):
    kind = spec.get("kind", "cartpole")
    if kind not in ("cartpole", "linear"):
        raise ValueError(f"unknown system kind {kind!r}")
    _check_keys(spec, _SYSTEM_KEYS[kind], "system.")
    if kind == "cartpole":
        return cartpole(CartPoleParams(**spec.get("params", {})))
    missing = [key for key in ("A", "B") if key not in spec]
    if missing:
        raise ValueError(f"a linear system needs {missing} in config 'system'")
    return linear_as_nonlinear(
        LinearSystem(np.array(spec["A"], dtype=float), np.array(spec["B"], dtype=float))
    )


def _fields(cls) -> set[str]:
    return set(cls.__dataclass_fields__)


# accepted config keys inside the nested objects and per system kind
_NESTED_KEYS = {"params": _fields(CartPoleParams)}
_SYSTEM_KEYS = {"cartpole": {"kind", "params"}, "linear": {"kind", "A", "B"}}
_OBJECT_KEYS = {"system", *_NESTED_KEYS}


def _check_keys(cfg: dict, accepted: set[str], where: str) -> None:
    """Refuse any config key the command would otherwise silently ignore, and
    any value of ``system`` or ``params`` that is not an object."""
    for key, value in cfg.items():
        if key not in accepted:
            raise ValueError(
                f"unknown config key {where}{key!r}; accepted: {sorted(accepted)}"
            )
        if key in _OBJECT_KEYS and not isinstance(value, dict):
            raise ValueError(f"config key {where}{key!r} must be a JSON object")
        if key in _NESTED_KEYS:
            _check_keys(value, _NESTED_KEYS[key], f"{where}{key}.")


def _with_flags(args, cfg: dict) -> dict:
    """The config with the ``--seed``, ``--out`` and ``--estimator`` overrides."""
    flags = {"seed": args.seed, "out_dir": args.out, "estimator": args.estimator}
    return {**cfg, **{k: v for k, v in flags.items() if v is not None}}


def _cmd_anneal_linear(args, cfg: dict) -> dict:
    kwargs = _with_flags(args, cfg)
    if args.oracle is not None:
        kwargs["modes"] = (args.oracle,)
    rows = run_linear_suite(LinearSuiteConfig(**kwargs))
    failures = [r for r in rows if r["status"] != "ok"]
    return {
        "rows": len(rows),
        "failures": len(failures),
        "out_dir": kwargs.get("out_dir"),
    }


def _cmd_anneal_cartpole(args, cfg: dict) -> dict:
    kwargs = _with_flags(args, cfg)
    if "params" in cfg:
        kwargs["params"] = CartPoleParams(**cfg["params"])
    result = run_cartpole(CartpoleBenchConfig(**kwargs))
    return {"table": result["table"], "out_dir": kwargs.get("out_dir")}


def _seed(args, cfg: dict) -> int:
    """The config's ``seed`` with the ``--seed`` override applied."""
    return cfg.get("seed", 0) if args.seed is None else args.seed


def _cmd_roa(args, cfg: dict) -> dict:
    sys_obj = _system_from_spec(cfg.get("system", {}))
    report = estimate_roa(sys_obj, cfg.get("gain"), _seed(args, cfg))
    if args.out is not None:
        files.write_json(Path(args.out) / "roa.json", report.to_dict())
    return {"rho_roa": report.rho_roa, "out_dir": args.out}


def _cmd_counterexample(args, cfg: dict) -> dict:
    return run_counterexample(out_dir=args.out, **cfg)


def _cmd_baseline_lqr(args, cfg: dict) -> dict:
    params = CartPoleParams(**cfg.get("params", {}))
    return run_lqr_baseline(params, _seed(args, cfg), out_dir=args.out)


_FLAGS = {
    "--seed": dict(type=int, help="master seed override"),
    "--oracle": dict(choices=("exact", "sampled"), help="oracle mode"),
    "--estimator": dict(
        choices=("sensitivity", "zeroth"),
        help="gradient estimator for sampled oracles",
    ),
}
# each subcommand: its function, the config keys it accepts and the
# quick-override flags it reads
_COMMANDS = {
    "anneal-linear": (
        _cmd_anneal_linear, _fields(LinearSuiteConfig), ("--seed", "--oracle", "--estimator")
    ),
    "anneal-cartpole": (
        _cmd_anneal_cartpole, _fields(CartpoleBenchConfig), ("--seed", "--estimator")
    ),
    "roa": (_cmd_roa, {"system", "gain", "seed"}, ("--seed",)),
    "counterexample": (_cmd_counterexample, {"gamma"}, ()),
    "baseline-lqr": (_cmd_baseline_lqr, {"params", "seed"}, ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgstab",
        description="Stabilize systems by discount-annealed policy gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, default=None, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command, accepted, _ = _COMMANDS[args.command]
        cfg = _load_config(args.config)
        _check_keys(cfg, accepted, "")
        summary = command(args, cfg)
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
