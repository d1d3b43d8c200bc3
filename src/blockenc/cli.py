"""Command-line harness.

Subcommands mirror the experiment tasks plus `sweep`:

    blockenc qls --config cfg.json --seed 3 --out report.json
    blockenc network --edges graph.txt -s 0 -t 2 --epsilon 0.1
    blockenc sweep --family qls-kappa --out sweep.csv

A config file is a JSON object {"task": ..., "params": {...}, "seed": ...}
whose task must be the subcommand's; a flag overrides a config value only when
it is given.  Reports are written to --out or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import BlockEncError, ConfigError
from .harness import (
    SWEEP_FAMILIES,
    TASKS,
    ExperimentConfig,
    run_experiment,
    scaling_sweep,
    write_sweep_csv,
)

_EXIT_CONTRACT = 2  # contract violations (preconditions, config)
_EXIT_NUMERIC = 3  # numerical / runtime failures


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON experiment config")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", help="report output path (default stdout)")
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--kappa", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--mu-mode", choices=("frobenius", "p"), default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--c", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blockenc")
    subs = parser.add_subparsers(dest="command", required=True)
    for task in TASKS:
        sub = subs.add_parser(task, help=f"run a {task} experiment")
        _add_common(sub)
        if task == "encode":
            sub.add_argument("--matrix", help="Matrix Market input path")
        if task == "hamsim":
            sub.add_argument("--matrix")
            sub.add_argument("--t", type=float, default=None)
        if task == "sve":
            sub.add_argument("--matrix")
            sub.add_argument("--resolution", type=float, default=None, dest="delta_sve")
        if task == "qls":
            sub.add_argument("--matrix")
            sub.add_argument("--b")
            sub.add_argument("--route", choices=("vtaa", "naive"), default=None)
        if task == "power":
            sub.add_argument("--matrix")
        if task in ("wls", "gls"):
            sub.add_argument("--problem", help="problem JSON path or 'random'")
            sub.add_argument("--route", default=None)
        if task == "network":
            sub.add_argument("--edges", help="edge list file: lines of 'u v w'")
            sub.add_argument("-s", type=int, default=None)
            sub.add_argument("-t", type=int, default=None)
            sub.add_argument("--route", choices=("exact", "kp", "sparse"), default=None)
    sweep = subs.add_parser("sweep", help="scaling sweep over kappa or epsilon")
    _add_common(sweep)
    sweep.add_argument("--family", choices=SWEEP_FAMILIES, required=True)
    return parser


# params a run always carries, filled in when neither a flag nor the config sets them
_DEFAULTS = {
    "hamsim": {"t": 1.0},
    "sve": {"delta": 0.05},
    "qls": {"route": "vtaa"},
    "network": {"s": 0, "t": 1, "route": "exact"},
}


def _config_from_args(args) -> ExperimentConfig:
    base = {"task": args.command, "params": {}, "seed": 0}
    if args.config:
        with open(args.config) as fh:
            base.update(json.load(fh))
    if base["task"] != args.command:
        raise ConfigError(
            f"config task {base['task']!r} does not match the subcommand {args.command!r}"
        )
    params = dict(base.get("params", {}))
    for key in ("epsilon", "kappa", "delta", "p", "c"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "mu_mode", None):
        params["mu_mode"] = "p-norm" if args.mu_mode == "p" else "frobenius"
    for key in ("matrix", "b", "problem", "edges", "route", "s", "t"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if args.command == "sve" and getattr(args, "delta_sve", None) is not None:
        params["delta"] = args.delta_sve
    for key, val in _DEFAULTS.get(args.command, {}).items():
        params.setdefault(key, val)
    seed = args.seed if args.seed is not None else base.get("seed", 0)
    return ExperimentConfig(task=base["task"], params=params, seed=int(seed))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            summary = scaling_sweep(
                args.family,
                eps=1e-3 if args.epsilon is None else args.epsilon,
                seed=args.seed or 0,
            )
            if args.out:
                write_sweep_csv(summary, args.out)
            else:
                sys.stdout.write(summary.to_json() + "\n")
            print(f"[blockenc] sweep {args.family}: slope={summary.slope:.3f}",
                  file=sys.stderr)
            return 0
        config = _config_from_args(args)
        report = run_experiment(config)
        payload = report.to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONTRACT
    except BlockEncError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return _EXIT_CONTRACT
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
