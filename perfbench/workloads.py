"""The four benchmark workloads: inputs, the timed command, and its gates.

Each workload is a closed loop: one caller issues one ``scnls`` command and
waits for it to finish before issuing the next.  Its config is the shipped
``configs/*.ini`` with the benchmark seed (and, for the ensemble, a shorter
horizon) written in; :func:`write_config` makes it, and the program sees only
that file.

The gates never compare output bytes with a committed reference, so an
optimisation that only moves round-off still passes.  They check invariants
and reference values with tolerances:

* every path conserves the mass of each component to 1e-11 (relative);
* ``collapse_2d`` ends as ``blowup`` within two steps of the reference t*;
* ``ensemble_1d`` has no invalid path and the reference criterion value;
* ``verify_1d`` passes every identity check;
* ``groundstate_2d`` converges below tol, and at beta=0 its mass is the
  Townes mass.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scnls

MASS_DRIFT_MAX = 1e-11

# reference values measured on the shipped configs; see each gate
COLLAPSE_T_STAR = 0.143          # 286 steps of dt = 5e-4
COLLAPSE_T_STAR_STEPS = 2        # allowed distance from it, in steps
ENSEMBLE_CRITERION_LHS = 1.2573309831901385   # stochastic_pair.ini at T = 0.5
ENSEMBLE_CRITERION_RTOL = 1e-9
TOWNES_MASS = 11.7009            # ||Q||^2 of the 2D cubic ground state
TOWNES_MASS_ATOL = 1e-3


@dataclass
class Outcome:
    """What one command did and whether its output passed the gates.

    ``ops`` counts operations (paths, runs, reports or solves), ``failed``
    the ones whose gate failed.  ``steps`` counts integrator steps, or solver
    iterations on ``groundstate_2d``; ``paths`` counts integrated paths, or
    solves on ``groundstate_2d``.  ``digest`` identifies the returned values
    that are not written to files.
    """

    ops: int
    steps: int
    paths: int
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    digest: str = ""

    def fail(self, message: str, ops: int = 1) -> None:
        self.failures.append(message)
        self.failed = min(self.ops, self.failed + ops)


def _relative_drift(series) -> float:
    series = np.asarray(series, dtype=float)
    if series[0] <= 0:
        return 0.0
    return float(np.max(np.abs(series - series[0])) / series[0])


def _digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v).tobytes() if isinstance(v, np.ndarray)
                 else repr(v).encode())
    return h.hexdigest()


class Workload:
    """One workload: ``command`` is timed, ``check`` gates what it returned and wrote."""

    name: str
    config: str         # shipped file under configs/
    why: str            # kept equal to BENCHMARK.json
    ops: int = 1        # operations one command attempts
    workers: int = 1

    def overrides(self, seed: int) -> dict:
        """Config values the benchmark writes over the shipped file."""
        return {"run": {"seed": str(seed)}}

    def prepare(self, cfg: scnls.RunConfig, seed: int) -> None:
        self.cfg = cfg

    def command(self, out: Path):
        raise NotImplementedError

    def check(self, result, out: Path) -> Outcome:
        raise NotImplementedError


class Collapse2D(Workload):
    name = "collapse_2d"
    config = "collapse_2d.ini"
    why = ("compute-bound 2D blow-up run (N, FFTs, detector every step); no noise, no "
           "on_step, no pool, so noise or batching changes must leave it unchanged")

    def command(self, out):
        return scnls.run_single(self.cfg, output_dir=out)

    def check(self, result, out):
        res = result.result
        outcome = Outcome(ops=1, steps=res.steps, paths=1)
        if result.outcome != "blowup":
            outcome.fail(f"outcome {result.outcome!r}, expected 'blowup'")
        elif abs(result.t_star - COLLAPSE_T_STAR) > (COLLAPSE_T_STAR_STEPS + 1e-6) * self.cfg.dt:
            outcome.fail(f"t* = {result.t_star}, reference {COLLAPSE_T_STAR}")
        for comp in ("mass_u", "mass_v"):
            drift = _relative_drift(getattr(result.record, comp))
            if drift > MASS_DRIFT_MAX:
                outcome.fail(f"{comp} drift {drift:.3e}")
        if not (result.csv_path.is_file() and result.manifest_path.is_file()):
            outcome.fail("trajectory CSV or manifest missing")
        return outcome


class Ensemble1D(Workload):
    name = "ensemble_1d"
    config = "stochastic_pair.ini"
    why = ("call-overhead-bound 1D ensemble with 2 workers: the only workload with the W "
           "step, on_step, the process pool and many CSV writes")
    workers = 2
    ops = n_paths = 16
    horizon = 0.5

    def overrides(self, seed):
        return {"run": {"seed": str(seed)}, "time": {"T": repr(self.horizon)}}

    def command(self, out):
        return scnls.run_ensemble(self.cfg, self.n_paths, workers=self.workers,
                                  output_dir=out, write_paths=True)

    def check(self, result, out):
        dt = self.cfg.dt
        steps = sum(round(p["final"]["t"] / dt) for p in result.per_path)
        outcome = Outcome(ops=self.n_paths, steps=steps, paths=len(result.per_path))
        if len(result.per_path) != self.n_paths:
            outcome.fail(f"{len(result.per_path)} path summaries for {self.n_paths} paths",
                         ops=self.n_paths)
        if not np.isclose(result.criterion_lhs, ENSEMBLE_CRITERION_LHS,
                          rtol=ENSEMBLE_CRITERION_RTOL, atol=0.0):
            outcome.fail(f"criterion_lhs {result.criterion_lhs!r}, "
                         f"reference {ENSEMBLE_CRITERION_LHS!r}", ops=self.n_paths)
        for p in result.per_path:
            problem = self._path_problem(p, out / "paths" / f"path_{p['path']:04d}.csv")
            if problem:
                outcome.fail(f"path {p['path']}: {problem}")
        return outcome

    @staticmethod
    def _path_problem(summary, csv_path: Path) -> str | None:
        if summary["outcome"] == "invalid":
            return "invalid (non-finite without detector trigger)"
        if not csv_path.is_file():
            return "trajectory CSV missing"
        with csv_path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for comp in ("mass_u", "mass_v"):
            drift = _relative_drift([float(r[comp]) for r in rows])
            if drift > MASS_DRIFT_MAX:
                return f"{comp} drift {drift:.3e}"
        return None


class Verify1D(Workload):
    name = "verify_1d"
    config = "soliton.ini"
    why = ("observables-bound: verify records every step at dt and dt/2, so record() is "
           "about half the time; same step code as collapse_2d")

    def command(self, out):
        return scnls.verify(self.cfg, output_dir=out)

    def check(self, result, out):
        n_steps = int(np.floor(self.cfg.T / self.cfg.dt + 1e-9))
        outcome = Outcome(ops=1, steps=3 * n_steps, paths=2)
        failed = sorted(k for k, ok in result["passes"].items() if not ok)
        if failed:
            outcome.fail(f"identity checks failed: {failed}")
        if result["outcome"] != "completed":
            outcome.fail(f"outcome {result['outcome']!r}")
        drift = max(result["mass_drift"].values())
        if drift > MASS_DRIFT_MAX:
            outcome.fail(f"mass drift {drift:.3e}")
        if not (out / "verify.json").is_file():
            outcome.fail("verify.json missing")
        return outcome


class GroundState2D(Workload):
    name = "groundstate_2d"
    config = "collapse_2d.ini"
    why = ("the only workload that runs the elliptic ground-state solver (2D n=256, "
           "sigma=1, beta in 0, 0.5, 1)")
    betas = (0.0, 0.5, 1.0)
    ops = len(betas)

    def prepare(self, cfg, seed):
        super().prepare(cfg, seed)
        self.grid = cfg.build_grid()
        self.order = list(self.betas)
        random.Random(seed).shuffle(self.order)

    def command(self, out):
        cfg = self.cfg
        return [scnls.solve_ground_state(1.0, beta, self.grid, tol=cfg.groundstate_tol,
                                         max_iter=cfg.groundstate_max_iter)
                for beta in self.order]

    def check(self, result, out):
        outcome = Outcome(ops=len(result), steps=sum(gs.iterations for gs in result),
                          paths=len(result))
        for gs in result:
            if not gs.residual_inf < self.cfg.groundstate_tol:
                outcome.fail(f"beta={gs.beta}: residual {gs.residual_inf:.3e}")
            elif gs.beta == 0.0 and abs(gs.norm_sq_P - TOWNES_MASS) > TOWNES_MASS_ATOL:
                outcome.fail(f"beta=0: ||P||^2 = {gs.norm_sq_P!r}, Townes mass {TOWNES_MASS}")
        outcome.digest = _digest(*[v for gs in result
                                   for v in (gs.beta, gs.iterations, gs.residual_inf, gs.P, gs.Q)])
        return outcome


WORKLOADS = {w.name: w for w in (Collapse2D, Ensemble1D, Verify1D, GroundState2D)}


def write_config(workload: Workload, configs_dir: Path, seed: int,
                 output_dir: Path, dest: Path) -> Path:
    """The shipped config with the workload's overrides and an output dir."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with (configs_dir / workload.config).open(encoding="utf-8") as fh:
        parser.read_file(fh)
    overrides = workload.overrides(seed)
    overrides.setdefault("run", {})["output_dir"] = str(output_dir)
    for section, values in overrides.items():
        for key, value in values.items():
            parser.set(section, key, value)
    with dest.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    return dest
