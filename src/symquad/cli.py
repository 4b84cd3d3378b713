"""Command-line front end: run config-driven experiments, list them, verify
quadrature rule files, and launch drift simulations."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (ConfigError, NumericalAbort, _write_outputs, config_from_items,
                          list_experiments, run_config_file, run_drift)
from .geometry import QuadratureFormatError, load_quadrature_file, verify_exactness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquad",
        description="rotation-invariant regression and augmentation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every experiment section of a config file")
    p_run.add_argument("config", help="INI config file, one section per experiment")
    p_run.add_argument("--outdir", default=None, help="override the configured output directory")

    sub.add_parser("list", help="list available experiment ids")

    p_ver = sub.add_parser("verify-quadrature", help="measure the degree of accuracy of a rule file")
    p_ver.add_argument("file")
    p_ver.add_argument("--lmax", type=int, default=12, help="largest degree to test")

    p_drift = sub.add_parser("drift", help="angular-momentum drift runs")
    p_drift.add_argument("--eps", type=float, action="append", required=True,
                         help="perturbation strength (repeatable)")
    p_drift.add_argument("--steps", type=int, default=1_000_000)
    p_drift.add_argument("--dt", type=float, default=0.05)
    p_drift.add_argument("--record-every", type=int, default=100)
    p_drift.add_argument("--trials", type=int, default=1)
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument("--outdir", default="results")
    return parser


def _cmd_run(args) -> int:
    written = run_config_file(args.config, outdir_override=args.outdir)
    for path in written:
        print(path)
    return EXIT_OK


def _cmd_list(_args) -> int:
    for key, description in list_experiments():
        print(f"{key:24s} {description}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.lmax < 0:
        raise ConfigError(f"--lmax must be >= 0, got {args.lmax}")
    rule = load_quadrature_file(args.file)
    degree = verify_exactness(rule, args.lmax)
    print(f"nodes={len(rule)} declared_degree={rule.declared_degree} "
          f"verified_degree={degree} (tested up to {args.lmax})")
    return EXIT_OK


def _cmd_drift(args) -> int:
    items = {
        "eps_list": " ".join(repr(e) for e in args.eps),
        "steps": str(args.steps),
        "dt": repr(args.dt),
        "record_every": str(args.record_every),
        "trials": str(args.trials),
        "seed": str(args.seed),
        "outdir": args.outdir,
    }
    cfg = config_from_items("drift", "drift", items)
    for path in _write_outputs(cfg, run_drift(cfg)):
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "verify-quadrature":
            return _cmd_verify(args)
        if args.command == "drift":
            return _cmd_drift(args)
    except (ConfigError, QuadratureFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalAbort, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
