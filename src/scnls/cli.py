"""Command-line interface.

Subcommands: simulate, ensemble, groundstate, verify, criterion.
``criterion`` solves the blow-up criterion polynomial of the initial data in
closed form on horizons up to ``--tbar``: its exact minimum and the earliest
horizon that certifies blow-up (``t_bar_certified``, null when none does).
Exit codes: 0 completed, 1 config or usage error, 2 blow-up (simulate),
3 runtime or I/O failure.  SCNLS_OUTPUT_DIR overrides the configured output
directory; SCNLS_WORKERS sets the default of ``ensemble --workers``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, load_config
from .groundstate import GroundStateError
from .harness import (
    HarnessError,
    _resolve_output_dir,
    _write_csv,
    _write_json,
    criterion_sweep,
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


def _cmd_simulate(cfg, args) -> int:
    result = run_single(cfg, args.output_dir)
    print(f"outcome: {result.outcome}"
          + (f" at t*={result.t_star}" if result.t_star is not None else ""))
    print(f"trajectory: {result.csv_path}")
    return result.exit_code


def _cmd_ensemble(cfg, args) -> int:
    if args.threshold_study is not None:
        try:
            masses = [float(tok) for tok in args.threshold_study.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--threshold-study takes comma-separated numbers: {exc}") from exc
        rows = threshold_study(cfg, masses, args.paths, workers=args.workers,
                               output_dir=args.output_dir)
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    ens = run_ensemble(cfg, args.paths, workers=args.workers, output_dir=args.output_dir)
    print(json.dumps(ens.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_groundstate(cfg, args) -> int:
    gs = cfg.ground_state()
    grid = gs.grid
    out = _resolve_output_dir(cfg, args.output_dir)
    payload = {
        "sigma": gs.sigma,
        "beta": gs.beta,
        "N": grid.dim,
        "l2_P": gs.norm_sq_P,
        "l2_Q": gs.norm_sq_Q,
        "k_opt": gs.k_opt_pair,
        "k_opt_single_component": gs.k_opt_single,
        "residual_inf": gs.residual_inf,
        "iterations": gs.iterations,
        "levels": [{"n": n, "iterations": m} for n, m in gs.levels],
        "grid": {"dim": grid.dim, "n": grid.n, "L": grid.length},
    }
    _write_json(out / "groundstate.json", payload)

    # radial profile along the positive x-axis through the box center
    half = grid.n // 2
    line = (slice(half, None),) + (half,) * (grid.dim - 1)
    _write_csv(out / "groundstate_profile.csv", ["r", "P", "Q"],
               zip(grid.x[0][line], gs.P[line], gs.Q[line]))

    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_verify(cfg, args) -> int:
    report = verify(cfg, args.output_dir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_criterion(cfg, args) -> int:
    report = criterion_sweep(cfg, args.tbar)
    if args.output_dir is not None:
        _write_json(_resolve_output_dir(cfg, args.output_dir) / "criterion.json", report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "groundstate": _cmd_groundstate,
    "verify": _cmd_verify,
    "criterion": _cmd_criterion,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HarnessError, GroundStateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
