"""Command-line interface.

Subcommands: simulate, ensemble, groundstate, verify, criterion.
``criterion`` solves the blow-up criterion polynomial of the initial data in
closed form on horizons up to ``--tbar``: its exact minimum and the earliest
horizon that certifies blow-up (``t_bar_certified``, null when none does).
Exit codes: 0 completed, 1 config error, 2 blow-up detected (simulate),
3 runtime or I/O failure.  SCNLS_OUTPUT_DIR overrides the configured output
directory; SCNLS_WORKERS sets the default of ``ensemble --workers``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, load_config
from .groundstate import GroundStateError, solve_ground_state
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scnls",
        description="Spectral simulator and verification toolkit for the "
        "stochastic coupled nonlinear Schrodinger system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one path and write its trajectory CSV")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("ensemble", help="Monte Carlo ensemble of independent paths")
    p.add_argument("config")
    p.add_argument("--paths", type=int, required=True)
    # a string default goes through type=int, so a bad value is a usage error
    p.add_argument("--workers", type=int, default=os.environ.get(ENV_WORKERS, "1"))
    p.add_argument("--output-dir", default=None)
    p.add_argument("--threshold-study", type=str, default=None, metavar="MASSES",
                   help="comma-separated mass-combination targets; runs the "
                   "mass-critical threshold study instead of a plain ensemble")

    p = sub.add_parser("groundstate", help="solve the coupled elliptic ground state")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("verify", help="check conservation/evolution identities")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("criterion", help="solve the blow-up criterion polynomial up to --tbar")
    p.add_argument("config")
    p.add_argument("--tbar", type=float, required=True)
    p.add_argument("--output-dir", default=None)
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    result = run_single(cfg, args.output_dir)
    print(f"outcome: {result.outcome}"
          + (f" at t*={result.t_star}" if result.t_star is not None else ""))
    print(f"trajectory: {result.csv_path}")
    return result.exit_code


def _cmd_ensemble(args) -> int:
    cfg = load_config(args.config)
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


def _cmd_groundstate(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.build_grid()
    beta = cfg.ground_state_beta()
    gs = solve_ground_state(cfg.coupling.sigma, beta, grid,
                            tol=cfg.groundstate_tol, max_iter=cfg.groundstate_max_iter)
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


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    report = verify(cfg, args.output_dir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_criterion(args) -> int:
    cfg = load_config(args.config)
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
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (HarnessError, GroundStateError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
