"""Run orchestration: single paths, Monte Carlo ensembles, studies, outputs.

Reproducibility contract
------------------------
* Single runs use the config seed directly with numpy's PCG64 generator.
* Ensemble path p derives its seed as ``splitmix64(master + (p+1)*GOLDEN)``
  (the SplitMix64 finalizer; GOLDEN = 0x9E3779B97F4A7C15), so any path can be
  regenerated in isolation.  An ensemble integrates its paths in contiguous
  batches, one array per batch (see :func:`scnls.dynamics.evolve`), and each
  path's output is bitwise that of the path run alone, so results are
  independent of worker count, batch size and completion order.  The
  generator family and the seeding rule are pinned in every manifest.
* Trajectory CSVs are written with shortest round-trip float formatting, so
  identical (config, seed) pairs produce byte-identical files.

Exit-code contract (used by the CLI): 0 completed, 1 config error,
2 blow-up detected (single-run mode), 3 runtime or I/O failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ConfigError, RunConfig
from .dynamics import SystemState, TrajectoryResult, _spectral_diagnostics, _step_count, evolve
from .grid import json_text, load_field_snapshot, save_field_snapshot
from .groundstate import critical_threshold
from .noise import sample_increments
from .observables import (
    _BATCH_NODES,
    CSV_COLUMNS,
    TrajectoryRecord,
    _criterion_extrema,
    _hypotheses,
    blowup_criterion,
    corollary_energy_bound,
    energy_budget,
    mass,
    virial_residuals,
)

__all__ = [
    "HarnessError",
    "BlowupDetector",
    "splitmix64",
    "path_seed",
    "run_single",
    "SingleRunResult",
    "EnsembleResult",
    "run_ensemble",
    "threshold_study",
    "verify",
    "ground_state_report",
    "criterion_sweep",
    "save_field_snapshot",
    "load_field_snapshot",
    "convergence_order",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ENV_OUTPUT_DIR = "SCNLS_OUTPUT_DIR"


class HarnessError(RuntimeError):
    """Runtime failure of a run (distinct from config errors)."""


# -- seeding -----------------------------------------------------------------


def splitmix64(value: int) -> int:
    """SplitMix64 finalizer; the documented path-seed mixing function."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def path_seed(master_seed: int, index: int) -> int:
    """Seed of ensemble path ``index``: splitmix64(master + (index+1)*GOLDEN)."""
    return splitmix64(master_seed + (index + 1) * _GOLDEN)


# -- blow-up detection --------------------------------------------------------


class BlowupDetector:
    """Callable detector with fixed thresholds.

    Default gradient threshold is 1e6 * (initial grad_norm_sq + 1); default
    tail threshold 0.1 guards against resolution loss before overflow.
    """

    def __init__(self, theta_grad: float, theta_tail: float = 0.1):
        # written so that NaN fails: it would switch its trigger off unnoticed
        if not (theta_grad > 0 and theta_tail > 0):
            raise ValueError(f"detector thresholds must be positive, got "
                             f"theta_grad={theta_grad}, theta_tail={theta_tail}")
        self.theta_grad = theta_grad
        self.theta_tail = theta_tail

    @classmethod
    def for_initial(cls, initial_grad_norm_sq: float,
                    theta_grad: float | None = None,
                    theta_tail: float = 0.1) -> "BlowupDetector":
        if theta_grad is None:
            # non-finite initial data gets no gradient trigger; its run ends "invalid"
            finite = np.isfinite(initial_grad_norm_sq)
            theta_grad = 1e6 * (initial_grad_norm_sq + 1.0) if finite else np.inf
        return cls(theta_grad, theta_tail)

    def __call__(self, grad_norm_sq: float, tail_fraction: float) -> bool:
        """True iff the gradient norm or the spectral tail crossed its threshold."""
        return grad_norm_sq > self.theta_grad or tail_fraction > self.theta_tail


# -- formatting and persistence -----------------------------------------------


def _cell(x) -> str:
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _write_csv(path: Path, header, rows) -> None:
    """CSV with floats in shortest round-trip form and None as an empty cell."""
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory_csv(path: Path, record: TrajectoryRecord) -> None:
    """Trajectory CSV with the fixed observable schema (one row per record time)."""
    if record.tracked:
        budget = energy_budget(record)
        res_paper, res_gradient = budget.paper, budget.gradient
        res_v, res_g = virial_residuals(record)
    else:
        nan = np.full(len(record), np.nan)
        res_paper = res_gradient = res_v = res_g = nan
    # the first eight columns are the record's series of the same names
    columns = [getattr(record, name) for name in CSV_COLUMNS[:8]]
    columns += [res_paper, res_gradient, res_v, res_g]
    _write_csv(path, CSV_COLUMNS, zip(*(col.tolist() for col in columns)))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json_text(payload), encoding="utf-8")


def _manifest(cfg: RunConfig, outcome: dict, files: list[str]) -> dict:
    return {
        "version": __version__,
        "config": cfg.to_dict(),
        "rng": {
            "generator": "numpy PCG64",
            "path_seeding": "splitmix64(master_seed + (index+1)*0x9E3779B97F4A7C15)",
        },
        "outcome": outcome,
        "files": sorted(files),
    }


# -- single runs ---------------------------------------------------------------


@dataclass
class SingleRunResult:
    outcome: str
    t_star: float | None
    exit_code: int
    csv_path: Path
    manifest_path: Path
    record: TrajectoryRecord
    result: TrajectoryResult


def _run_trajectory(cfg: RunConfig, seeds, increments=None) -> list[TrajectoryResult]:
    """Integrate a batch of configured paths, one per seed, as one ``evolve``.

    Every path starts from the configured state.  Path p takes its increments
    from ``increments[p]`` when given, else from its own PCG64 generator
    seeded with its seed.  The grid, noise model and detector are built once
    for the batch.  Returns the results in seed order.
    """
    grid = cfg.build_grid()
    state = cfg.build_state(grid)
    model = cfg.build_noise_model(grid)
    detector = BlowupDetector.for_initial(
        _spectral_diagnostics(state)[0][0], cfg.theta_grad, cfg.theta_tail
    )
    # a read-only view of the one initial pair; evolve integrates its own copy
    batch = (2, len(seeds)) + grid.shape
    state = SystemState.of_pair(np.broadcast_to(state.fields[:, None], batch), state.t, grid)
    return evolve(
        state, cfg.T, cfg.dt, model, cfg.coupling, seed=seeds, increments=increments,
        record_every=cfg.record_every, detector=detector,
        track_identities=cfg.track_identities, dealias=cfg.dealias,
    )


def _resolve_output_dir(cfg: RunConfig, output_dir: str | Path | None) -> Path:
    chosen = output_dir or os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir or "."
    out = Path(chosen)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_single(cfg: RunConfig, output_dir: str | Path | None = None) -> SingleRunResult:
    """One trajectory: writes the CSV, a manifest, and optional snapshots.

    Exit code 0 on completion, 2 on detected blow-up; the caller maps config
    errors to 1 and I/O failures to 3.
    """
    out = _resolve_output_dir(cfg, output_dir)
    result = _run_trajectory(cfg, [cfg.seed])[0]

    csv_path = out / "trajectory.csv"
    write_trajectory_csv(csv_path, result.record)
    files = [csv_path.name]

    if cfg.snapshot_final and result.state.is_finite():
        grid = result.state.grid
        for name, values in (("u_final.bin", result.state.u), ("v_final.bin", result.state.v)):
            save_field_snapshot(out / name, grid, values)
            files += [name, name + ".json"]

    outcome = {
        "status": result.outcome,
        "t_star": result.t_star,
        "effective_T": result.effective_T,
        "dropped_remainder": result.dropped_remainder,
        "steps": result.steps,
    }
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, _manifest(cfg, outcome, files + [manifest_path.name]))

    exit_code = {"completed": 0, "blowup": 2}.get(result.outcome, 3)
    return SingleRunResult(
        outcome=result.outcome, t_star=result.t_star, exit_code=exit_code,
        csv_path=csv_path, manifest_path=manifest_path,
        record=result.record, result=result,
    )


# -- ensembles ------------------------------------------------------------------


@dataclass
class EnsembleResult:
    n_paths: int
    blowup_count: int
    invalid_count: int
    blowup_fraction: float
    wilson_95: list
    blowup_time_quantiles: dict
    per_path: list
    criterion_lhs: float
    criterion_verdict: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return float(center - half), float(center + half)


def _batches(n_paths: int, workers: int, node_count: int) -> list[range]:
    """Contiguous path ranges: one per worker, more when a batch would have
    more than ``_BATCH_NODES`` grid nodes (see :mod:`scnls.observables`)."""
    per_batch = max(1, _BATCH_NODES // node_count)
    count = min(n_paths, max(workers, -(-n_paths // per_batch)))
    bounds = [n_paths * i // count for i in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _ensemble_batch(cfg: RunConfig, indices: range, out: Path | None) -> list[dict]:
    """Integrate one batch of ensemble paths, then write each path's output.

    Without ``out`` no path CSV reads the identity sums, so the batch runs
    untracked: a path's bits do not depend on tracking (see ``evolve``).
    """
    seeds = [path_seed(cfg.seed, i) for i in indices]
    if out is None:
        cfg = dataclasses.replace(cfg, track_identities=False)
    results = _run_trajectory(cfg, seeds)
    return [_ensemble_path_star(i, s, r, out) for i, s, r in zip(indices, seeds, results)]


def _ensemble_path_star(index: int, seed: int, result: TrajectoryResult,
                        out: Path | None) -> dict:
    """One integrated path's CSV (when ``out`` is given) and summary."""
    if out is not None:
        write_trajectory_csv(out / f"path_{index:04d}.csv", result.record)
    return {
        "path": index,
        "seed": seed,
        "outcome": result.outcome,
        "t_star": result.t_star,
        # the record's last t, masses, H, V and G: the first six CSV columns
        "final": {name: float(getattr(result.record, name)[-1]) for name in CSV_COLUMNS[:6]},
    }


def _check_counts(n_paths: int, workers: int) -> None:
    """Refuse an ensemble of no path or no worker."""
    if n_paths < 1 or workers < 1:
        raise ConfigError(f"need at least one path and one worker, got "
                          f"n_paths={n_paths}, workers={workers}")


def run_ensemble(
    cfg: RunConfig,
    n_paths: int,
    workers: int = 1,
    output_dir: str | Path | None = None,
    write_paths: bool = True,
) -> EnsembleResult:
    """Parallel map over independent paths with deterministic per-path seeds.

    Each task integrates a contiguous batch of paths as one array: one batch
    per worker, capped at ``_BATCH_NODES`` grid nodes per batch.
    Results are identical for any worker count and batch size.  Paths that
    fail numerically (non-finite state without a detector trigger) are
    counted as invalid; more than 1% invalid paths fails the run.
    """
    _check_counts(n_paths, workers)
    out = _resolve_output_dir(cfg, output_dir)
    paths_dir = None
    if write_paths:
        paths_dir = out / "paths"
        paths_dir.mkdir(exist_ok=True)

    batches = _batches(n_paths, workers, cfg.n**cfg.dim)
    if workers == 1:
        done = [_ensemble_batch(cfg, batch, paths_dir) for batch in batches]
    else:
        # the pool starts every worker at once, so it gets no more than there are tasks
        with ProcessPoolExecutor(max_workers=min(workers, len(batches))) as pool:
            done = list(pool.map(_ensemble_batch, itertools.repeat(cfg), batches,
                                 itertools.repeat(paths_dir)))
    summaries = [summary for batch in done for summary in batch]

    blowups = [s for s in summaries if s["outcome"] == "blowup"]
    invalid = [s for s in summaries if s["outcome"] == "invalid"]
    if len(invalid) > 0.01 * n_paths:
        raise HarnessError(
            f"{len(invalid)} of {n_paths} paths failed numerically "
            "(non-finite without detector trigger)"
        )

    times = np.array([s["t_star"] for s in blowups], dtype=float)
    quantiles = {}
    if times.size:
        q10, q50, q90 = np.quantile(times, [0.1, 0.5, 0.9])
        quantiles = {"p10": float(q10), "p50": float(q50), "p90": float(q90)}

    grid = cfg.build_grid()
    crit = blowup_criterion(
        cfg.build_state(grid), cfg.coupling, cfg.T, cfg.build_noise_model(grid),
        check_hypotheses=False,
    )

    ens = EnsembleResult(
        n_paths=n_paths,
        blowup_count=len(blowups),
        invalid_count=len(invalid),
        blowup_fraction=len(blowups) / n_paths,
        wilson_95=list(_wilson_interval(len(blowups), n_paths)),
        blowup_time_quantiles=quantiles,
        per_path=summaries,
        criterion_lhs=crit.lhs,
        criterion_verdict=crit.verdict,
    )
    _write_json(out / "ensemble.json", ens.to_dict())
    _write_csv(out / "paths_index.csv",
               ["path", "seed", "outcome", "t_star", "final_t", "H_final"],
               ([s["path"], s["seed"], s["outcome"], s["t_star"], s["final"]["t"],
                 s["final"]["H"]] for s in summaries))
    return ens


# -- threshold study --------------------------------------------------------------


def threshold_study(
    cfg: RunConfig,
    mass_grid: list[float],
    n_paths: int,
    workers: int = 1,
    output_dir: str | Path | None = None,
) -> list[dict]:
    """Blow-up fraction versus the mass-critical threshold combination.

    Rescales the initial pair so that sqrt(l11)||u0||^2 + sqrt(l22)||v0||^2
    hits each target in ``mass_grid``, runs an ensemble per target, and tags
    rows below the critical threshold as "global-regime".  Each target's
    ensemble goes to ``mass_<target>``, the target to 6 significant digits.
    Refuses configs whose exponent is not mass-critical (sigma != 2/dim) and
    targets that would share such a directory, before any ensemble runs.
    """
    c = cfg.coupling
    if not c.is_mass_critical(cfg.dim):
        raise ConfigError(
            f"threshold_study requires the mass-critical exponent sigma=2/dim "
            f"(got sigma={c.sigma}, dim={cfg.dim})"
        )
    if c.l11 <= 0 or c.l22 <= 0:
        raise ConfigError("threshold_study requires positive diagonal coefficients")
    if not all(0 <= target < np.inf for target in mass_grid):
        raise ConfigError(f"mass targets must be finite and non-negative, got {mass_grid}")
    subdirs = [f"mass_{target:.6g}" for target in mass_grid]
    if len(set(subdirs)) < len(subdirs):
        raise ConfigError(f"mass targets must differ in their first 6 significant digits, "
                          f"got {mass_grid}")
    _check_counts(n_paths, workers)

    out = _resolve_output_dir(cfg, output_dir)
    rows: list[dict] = []
    if mass_grid:
        gs = cfg.ground_state()
        k = gs.k_opt_single if gs.beta == 0.0 else gs.k_opt_pair
        threshold = critical_threshold(c.l11, c.l22, k)

        mu, mv, _ = mass(cfg.build_state(gs.grid))
        s0 = np.sqrt(c.l11) * mu + np.sqrt(c.l22) * mv
        if s0 <= 0:
            raise ConfigError("threshold_study requires nonzero initial data")

        for target, subdir in zip(mass_grid, subdirs):
            sub = _rescaled_config(cfg, float(np.sqrt(target / s0)))
            ens = run_ensemble(sub, n_paths, workers=workers,
                               output_dir=out / subdir, write_paths=False)
            rows.append({
                "mass_combination": float(target),
                "blowup_fraction": ens.blowup_fraction,
                "criterion_lhs": ens.criterion_lhs,
                "regime": "global-regime" if target < threshold else "",
                "threshold": float(threshold),
            })

    columns = ["mass_combination", "blowup_fraction", "criterion_lhs", "regime"]
    _write_csv(out / "threshold_study.csv", columns,
               ([row[key] for key in columns] for row in rows))
    return rows


def _rescaled_config(cfg: RunConfig, alpha: float) -> RunConfig:
    """Copy of cfg with both initial amplitudes multiplied by alpha."""

    def scale(spec):
        if spec.family == "zero":
            return spec
        if spec.family == "file":
            raise ConfigError("threshold_study cannot rescale file-based initial data")
        return dataclasses.replace(spec, amplitude=spec.amplitude * alpha)

    return dataclasses.replace(
        cfg, initial_u=scale(cfg.initial_u), initial_v=scale(cfg.initial_v)
    )


# -- verification -------------------------------------------------------------------


def convergence_order(dts, errors, scale: float = 0.0) -> float | None:
    """Least-squares slope of log|error| against log dt; None in round-off.

    Round-off is below 1e-14, or below 1e-11 (the mass gate's relative
    drift) of ``scale``, the size of the quantity the error is a drift of.
    """
    dts = np.asarray(dts, dtype=float)
    errors = np.abs(np.asarray(errors, dtype=float))
    if np.any(errors < max(1e-14, 1e-11 * abs(scale))):
        return None
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    return float(slope)


def _identity_metrics(rec: TrajectoryRecord) -> dict:
    """One verify level's mass drifts, H drift and final identity residuals."""
    budget = energy_budget(rec)
    res_v, res_g = virial_residuals(rec)
    return {
        "mass_drift": {key: float(np.max(np.abs(m - m[0])) / max(m[0], 1e-30))
                       for key, m in (("u", rec.mass_u), ("v", rec.mass_v))},
        "h_drift": float(abs(rec.H[-1] - rec.H[0])),
        "energy_residuals": {"paper": float(abs(budget.paper[-1])),
                             "gradient": float(abs(budget.gradient[-1]))},
        "virial_residuals": {"V": float(abs(res_v[-1])), "G": float(abs(res_g[-1]))},
        "sizes": {name: float(np.max(np.abs(getattr(rec, name)))) for name in "HVG"},
    }


def verify(cfg: RunConfig, output_dir: str | Path | None = None) -> dict:
    """Identity report: mass drift, energy/virial residuals, measured orders.

    Runs the configured trajectory with identities tracked at each step size
    of ``[dt, dt/2]`` on one Brownian path (the finest increments are drawn
    once and pair-summed for each coarser level) and reports the values at
    dt, the convergence orders over the levels, and pass flags.  The dt level
    runs the n steps of a plain run to T, and alone warns when T is not a
    multiple of dt; level l runs n 2^l steps to n dt.  Needs record_every = 1.
    """
    if cfg.record_every != 1:
        raise ConfigError("verify requires record_every = 1")
    n_steps = _step_count(cfg.T, cfg.dt)
    if n_steps == 0:
        raise ConfigError(f"verify needs T >= dt, got T={cfg.T}, dt={cfg.dt}")
    out = _resolve_output_dir(cfg, output_dir)

    dts = [cfg.dt, cfg.dt / 2]
    K = cfg.noise.K
    n_fine = n_steps * 2 ** (len(dts) - 1)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    increments = [sample_increments(n_fine * K, dts[-1], rng).reshape(n_fine, K)]
    while len(increments) < len(dts):
        increments.insert(0, increments[0][0::2] + increments[0][1::2])
    horizons = [cfg.T] + [n_steps * cfg.dt] * (len(dts) - 1)
    results = [_run_verify_trajectory(
                   dataclasses.replace(cfg, T=T, dt=dt, track_identities=True), dw)
               for T, dt, dw in zip(horizons, dts, increments)]
    levels = [_identity_metrics(result.record) for result in results]

    def _order(section, key, size):
        errors = [level[section][key] if key else level[section] for level in levels]
        return convergence_order(dts, errors, levels[0]["sizes"][size])

    deterministic = cfg.noise.deterministic
    orders = {
        "energy_residual_gradient": _order("energy_residuals", "gradient", "H"),
        "virial_residual_V": _order("virial_residuals", "V", "V"),
        "virial_residual_G": _order("virial_residuals", "G", "G"),
        "h_drift": _order("h_drift", None, "H") if deterministic else None,
    }

    min_order = 1.8 if deterministic else 0.9

    def _order_pass(value):
        return True if value is None else value >= min_order

    top = levels[0]
    report = {
        "deterministic": deterministic,
        "dt": cfg.dt,
        "mass_drift": top["mass_drift"],
        "energy_residuals": top["energy_residuals"],
        "virial_residuals": top["virial_residuals"],
        "orders": orders,
        "passes": {
            "mass": max(top["mass_drift"].values()) <= 1e-11,
            "energy_gradient_order": _order_pass(orders["energy_residual_gradient"]),
            "virial_V_order": _order_pass(orders["virial_residual_V"]),
            "virial_G_order": _order_pass(orders["virial_residual_G"]),
        },
        "outcome": results[0].outcome,
    }
    _write_json(out / "verify.json", report)
    return report


def _run_verify_trajectory(cfg: RunConfig, increments: np.ndarray) -> TrajectoryResult:
    """One verify level: the configured run as a batch of one on ``increments``."""
    return _run_trajectory(cfg, [cfg.seed], increments[None])[0]


# -- ground state ---------------------------------------------------------------------


def ground_state_report(cfg: RunConfig, output_dir: str | Path | None = None) -> dict:
    """The configured ground state (:meth:`RunConfig.ground_state`) and its constants.

    Writes the report to ``groundstate.json`` and P and Q along the positive
    x-axis through the box center to ``groundstate_profile.csv``; returns
    the report.
    """
    gs = cfg.ground_state()
    grid = gs.grid
    out = _resolve_output_dir(cfg, output_dir)
    report = {
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
    _write_json(out / "groundstate.json", report)
    half = grid.n // 2
    line = (slice(half, None),) + (half,) * (grid.dim - 1)
    _write_csv(out / "groundstate_profile.csv", ["r", "P", "Q"],
               zip(grid.x[0][line], gs.P[line], gs.Q[line]))
    return report


# -- criterion -----------------------------------------------------------------------


def criterion_sweep(cfg: RunConfig, t_bar_max: float,
                    output_dir: str | Path | None = None) -> dict:
    """Solve the blow-up criterion polynomial on horizons in (0, t_bar_max].

    Reports its exact minimum, whether any horizon certifies blow-up and the
    earliest one that does (:func:`scnls.observables._criterion_extrema`),
    and the negative-energy-set bound at the minimizing horizon.  Writes the
    report to ``criterion.json`` only when ``output_dir`` is given.  A horizon
    at which the polynomial is not finite is a config error.
    """
    if not 0 < t_bar_max < np.inf:
        raise ConfigError(f"t_bar must be positive and finite, got {t_bar_max}")
    grid = cfg.build_grid()
    state = cfg.build_state(grid)
    model = cfg.build_noise_model(grid)
    # the moments (and the hypothesis check) do not depend on the horizon: evaluate them once
    try:
        crit = blowup_criterion(state, cfg.coupling, t_bar_max, model)
        finite = math.isfinite(crit.lhs)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"the criterion polynomial is not finite at t_bar = {t_bar_max}")
    t_argmin, lhs_min, t_certified = _criterion_extrema(
        crit.V0, crit.G0, crit.H0, crit.M0, crit.min_sup_F, t_bar_max
    )
    m_bar = max(crit.V0, crit.G0, crit.M0)
    report = {
        "t_bar_max": t_bar_max,
        "t_bar_argmin": t_argmin,
        "lhs_min": lhs_min,
        "verdict_any": lhs_min < 0,
        "t_bar_certified": t_certified,
        "hypotheses": _hypotheses(cfg.coupling, cfg.dim),
        "components": {
            "V0": crit.V0, "G0": crit.G0, "H0": crit.H0, "M0": crit.M0,
            "min_sup_F": crit.min_sup_F,
        },
        "negative_energy_bound": corollary_energy_bound(
            m_bar, t_argmin, model.min_sup_F
        ) if m_bar > 0 and t_argmin > 0 else None,
    }
    if output_dir is not None:
        _write_json(_resolve_output_dir(cfg, output_dir) / "criterion.json", report)
    return report
