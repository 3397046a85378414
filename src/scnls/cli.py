"""Command-line interface: parses the arguments, dispatches and prints.

Subcommands: simulate, ensemble, groundstate, verify, criterion.
:mod:`scnls.harness` writes every output file.  ``simulate`` prints its
outcome and trajectory path; the other four commands print the JSON report
the harness returns, in the text of the harness's JSON files.
``criterion`` solves the blow-up criterion polynomial of the initial data in
closed form on horizons up to ``--tbar``: its exact minimum and the earliest
horizon that certifies blow-up (``t_bar_certified``, null when none does).
Exit codes: 0 completed, 1 config or usage error, 2 blow-up (simulate),
3 runtime or I/O failure.  SCNLS_OUTPUT_DIR overrides the configured output
directory; SCNLS_WORKERS sets the default of ``ensemble --workers``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .grid import json_text
from .groundstate import GroundStateError
from .harness import (
    HarnessError,
    criterion_sweep,
    ground_state_report,
    run_ensemble,
    run_single,
    threshold_study,
    verify,
)

ENV_WORKERS = "SCNLS_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 1 on a usage error, as on a config error: 2 means a detected blow-up."""
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scnls",
        description="Spectral simulator and verification toolkit for the "
        "stochastic coupled nonlinear Schrodinger system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="integrate one path and write its trajectory CSV")

    p = sub.add_parser("ensemble", help="Monte Carlo ensemble of independent paths")
    p.add_argument("--paths", type=int, required=True)
    # a string default goes through type=int, so a bad value is a usage error
    p.add_argument("--workers", type=int, default=os.environ.get(ENV_WORKERS, "1"))
    p.add_argument("--threshold-study", type=str, default=None, metavar="MASSES",
                   help="comma-separated mass-combination targets; runs the "
                   "mass-critical threshold study instead of a plain ensemble")

    sub.add_parser("groundstate", help="solve the coupled elliptic ground state")
    sub.add_parser("verify", help="check conservation/evolution identities")

    p = sub.add_parser("criterion", help="solve the blow-up criterion polynomial up to --tbar")
    p.add_argument("--tbar", type=float, required=True)

    # every command reads a config, which main loads, and takes an output directory
    for p in sub.choices.values():
        p.add_argument("config")
        p.add_argument("--output-dir", default=None)
    return parser


def _simulate(cfg, args) -> int:
    result = run_single(cfg, args.output_dir)
    print(f"outcome: {result.outcome}"
          + (f" at t*={result.t_star}" if result.t_star is not None else ""))
    print(f"trajectory: {result.csv_path}")
    return result.exit_code


def _ensemble(cfg, args):
    if args.threshold_study is None:
        return run_ensemble(cfg, args.paths, workers=args.workers,
                            output_dir=args.output_dir).to_dict()
    try:
        masses = [float(tok) for tok in args.threshold_study.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--threshold-study takes comma-separated numbers: {exc}") from exc
    return threshold_study(cfg, masses, args.paths, workers=args.workers,
                           output_dir=args.output_dir)


# the commands that print the JSON report they return
_REPORTS = {
    "ensemble": _ensemble,
    "groundstate": lambda cfg, args: ground_state_report(cfg, args.output_dir),
    "verify": lambda cfg, args: verify(cfg, args.output_dir),
    "criterion": lambda cfg, args: criterion_sweep(cfg, args.tbar, args.output_dir),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            return _simulate(cfg, args)
        print(json_text(_REPORTS[args.command](cfg, args)), end="")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HarnessError, GroundStateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
