"""Command-line entry points for the benchmarks and reports.

Every subcommand accepts ``--config`` (a JSON file whose top-level keys
override the defaults of that subcommand's config), plus ``--seed``,
``--out``, ``--oracle`` and ``--estimator`` as quick overrides.  On success
the exit code is 0 and a JSON summary goes to stdout; on failure the exit
code is nonzero and a machine-readable error record goes to stderr.  Config
keys the subcommand does not accept are refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import numpy as np

from .bench import (
    CartpoleBenchConfig,
    LinearSuiteConfig,
    RoaConfig,
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
    if kind == "cartpole":
        return cartpole(CartPoleParams(**spec.get("params", {})))
    if kind == "linear":
        return linear_as_nonlinear(
            LinearSystem(np.array(spec["A"], dtype=float), np.array(spec["B"], dtype=float))
        )
    raise ValueError(f"unknown system kind {kind!r}")


def _fields(cls) -> set[str]:
    return set(cls.__dataclass_fields__)


# accepted config keys per subcommand, and inside the nested objects
_CONFIG_KEYS = {
    "anneal-linear": _fields(LinearSuiteConfig),
    "anneal-cartpole": _fields(CartpoleBenchConfig),
    "roa": {"system", "gain", "gain_file", "roa"},
    "counterexample": {"gamma"},
    "baseline-lqr": {"params", "roa"},
}
_NESTED_KEYS = {
    "roa": _fields(RoaConfig),
    "params": _fields(CartPoleParams),
    "system": {"kind", "params", "A", "B"},
}


def _check_keys(cfg: dict, accepted: set[str], where: str) -> None:
    """Refuse any config key the command would otherwise silently ignore."""
    for key, value in cfg.items():
        if key not in accepted:
            raise ValueError(
                f"unknown config key {where}{key!r}; accepted: {sorted(accepted)}"
            )
        if key in _NESTED_KEYS and isinstance(value, dict):
            _check_keys(value, _NESTED_KEYS[key], f"{where}{key}.")


def _cmd_anneal_linear(args, cfg: dict) -> dict:
    kwargs = dict(cfg)
    if "dims" in kwargs:
        kwargs["dims"] = tuple(kwargs["dims"])
    if "modes" in kwargs:
        kwargs["modes"] = tuple(kwargs["modes"])
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.out is not None:
        kwargs["out_dir"] = args.out
    if args.oracle is not None:
        kwargs["modes"] = (args.oracle,)
    if args.estimator is not None:
        kwargs["estimator"] = args.estimator
    rows = run_linear_suite(LinearSuiteConfig(**kwargs))
    failures = [r for r in rows if r["status"] != "ok"]
    return {
        "rows": len(rows),
        "failures": len(failures),
        "out_dir": kwargs.get("out_dir"),
    }


def _cmd_anneal_cartpole(args, cfg: dict) -> dict:
    kwargs = dict(cfg)
    if "radii" in kwargs:
        kwargs["radii"] = tuple(kwargs["radii"])
    if "roa" in cfg:
        kwargs["roa"] = RoaConfig(**cfg["roa"])
    if "params" in cfg:
        kwargs["params"] = CartPoleParams(**cfg["params"])
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.out is not None:
        kwargs["out_dir"] = args.out
    if args.estimator is not None:
        kwargs["estimator"] = args.estimator
    if args.oracle == "exact":
        raise ValueError("the cart-pole benchmark is simulator-only (use --oracle sampled)")
    result = run_cartpole(CartpoleBenchConfig(**kwargs))
    return {"table": result["table"], "out_dir": kwargs.get("out_dir")}


def _cmd_roa(args, cfg: dict) -> dict:
    sys_obj = _system_from_spec(cfg.get("system", {}))
    roa_kwargs = dict(cfg.get("roa", {}))
    if args.seed is not None:
        roa_kwargs["seed"] = args.seed
    if "gain" in cfg:
        gain = np.array(cfg["gain"], dtype=float)
    elif "gain_file" in cfg:
        gain = np.loadtxt(cfg["gain_file"], delimiter=",", ndmin=2)
    else:
        raise ValueError("roa needs 'gain' (matrix) or 'gain_file' (CSV) in the config")
    report = estimate_roa(sys_obj, gain, RoaConfig(**roa_kwargs))
    out = report.to_dict()
    if args.out is not None:
        from pathlib import Path

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "roa.json").write_text(json.dumps(out, indent=2))
    return {"rho_roa": report.rho_roa, "out_dir": args.out}


def _cmd_counterexample(args, cfg: dict) -> dict:
    gamma = cfg.get("gamma", 0.9 / 4.0)
    return run_counterexample(gamma=gamma, out_dir=args.out)


def _cmd_baseline_lqr(args, cfg: dict) -> dict:
    params = CartPoleParams(**cfg.get("params", {}))
    roa_kwargs = dict(cfg.get("roa", {}))
    if args.seed is not None:
        roa_kwargs["seed"] = args.seed
    return run_lqr_baseline(
        params=params, roa=RoaConfig(**roa_kwargs), out_dir=args.out
    )


_COMMANDS = {
    "anneal-linear": _cmd_anneal_linear,
    "anneal-cartpole": _cmd_anneal_cartpole,
    "roa": _cmd_roa,
    "counterexample": _cmd_counterexample,
    "baseline-lqr": _cmd_baseline_lqr,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgstab",
        description="Stabilize systems by discount-annealed policy gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--oracle", choices=("exact", "sampled"), default=None,
            help="oracle mode for annealing commands",
        )
        p.add_argument(
            "--estimator", choices=("sensitivity", "zeroth"), default=None,
            help="gradient estimator for sampled oracles",
        )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _check_keys(cfg, _CONFIG_KEYS[args.command], "")
        summary = _COMMANDS[args.command](args, cfg)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        _sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    print(json.dumps(summary, indent=2, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
