"""scnls benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload collapse_2d --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload ensemble_1d --seed 1 --seconds 25 --trace 1
    python3 -m pytest perfbench -q      # checks of the benchmark itself

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric carries
its unit.  The lines before it are the full results record: environment,
seed, why the workload was chosen, per-run timings, failures and
``failed_fraction`` (= failed / attempted, where an operation is a path, a
run, a report or a solve).

Workloads (see ``workloads.py``): ``collapse_2d`` (run_single on
collapse_2d.ini), ``ensemble_1d`` (run_ensemble, 16 paths to T=0.5 on
stochastic_pair.ini, 2 workers), ``verify_1d`` (verify on soliton.ini),
``groundstate_2d`` (solve_ground_state at beta = 0, 0.5, 1 on the
collapse_2d grid).  The seed becomes the config's ``[run] seed`` (the
ensemble's master seed) and, on ``groundstate_2d``, the order of the betas.

A run does one untimed warm-up command, then repeats the command for
``--seconds``.  Before the first repeat and after each one it times a fixed
numpy kernel (``hostspeed.py``) for a quarter of the repeat's wall time,
which measures the speed of the shared host.  That speed drifts by up to
±20% over seconds to minutes, for longer than a run lasts, so times are
reported in reference seconds: the mean measured time times the kernel's
reference time over its mean measured time in the same stretch of the run.
Kernel timings spread evenly through the run, and a ratio of means weights
every second alike.  The record keeps every measured wall time and kernel
time.

End-to-end metrics (``--trace 0``, nothing wrapped), in reference seconds:

* ``setup_s``: import scnls, load the config, build grid, state and noise
  model; mean of 7 fresh interpreters, with the kernel timed between them.
* ``wall_s``: wall time of one command.
* ``steps_per_s``: integrator steps per second of wall time, summed over
  paths (solver iterations on ``groundstate_2d``).
* ``paths_per_s``: paths completed per second (1 per collapse_2d run, 2 per
  verify report, one per solve on ``groundstate_2d``).
* ``peak_rss_mb``: an upper bound on the peak resident memory of the
  benchmark process and its pool workers together: its own peak plus, for
  each worker, the largest worker's peak.  Pages a worker shares with the
  benchmark process (copy-on-write after fork) count once per process.
  Without a pool it is the process's own peak.

Per-layer metrics (``--trace 1``): the run first repeats the command
untraced for half of ``--seconds``, then installs the span tracer of
``spans.py`` and repeats it traced.  Per-call times include child spans
unless named ``self``; ``dynamics.strang_step.self_us_per_call`` subtracts
only the N and W children, leaving the L step (FFT pair and multiplier).
``<layer>.self_s`` is the self time of a layer's spans per command, summed
over processes.  ``trace.coverage`` is the share of a command's wall time
covered by spans below the harness orchestration; ``trace.overhead`` is
traced over untraced median wall time.  The traced run also checks that
every traced output equals the untraced output.

The end-to-end metric each layer metric should move: the N step
(nonlinear_phase), the L step (strang_step self), the detector diagnostics
(diag) and ``grid.fft.*`` move ``steps_per_s`` on ``collapse_2d`` (the L
step also on ``ensemble_1d``).  The W step (stratonovich_phase),
``on_step``, ``harness.io.*`` and the pool efficiency move ``paths_per_s``
on ``ensemble_1d`` and are about 0 elsewhere.  ``observables.record.*``
moves ``wall_s`` on ``verify_1d``, ``groundstate.*`` moves ``wall_s`` on
``groundstate_2d``, and ``noise.build_s`` and ``config.load_s`` move
``setup_s``.

All program output goes to a temporary directory under ``.perfbench_tmp/``
in the checkout, removed when the run ends.  A run killed by a signal leaves
its directory there; ``.gitignore`` names it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from spans import Tracer, covered_ns, self_times

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORKLOAD_NAMES = ("collapse_2d", "ensemble_1d", "verify_1d", "groundstate_2d")

# BLAS/OpenMP pools pinned to one thread, so no run uses more threads than cores
THREAD_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# these would override the workload's output directory and worker count
SCNLS_ENV = ("SCNLS_OUTPUT_DIR", "SCNLS_WORKERS")

SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60
TRACED_SETUPS = 3
KERNEL_SHARE = 0.25   # host-speed kernel time after a repeat, per second of the repeat
COVERAGE_MIN = 0.8

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "paths_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dynamics.nonlinear_phase.us_per_call": "us",
    "dynamics.strang_step.self_us_per_call": "us",
    "dynamics.diag.us_per_call": "us",
    "noise.stratonovich_phase.us_per_call": "us",
    "observables.on_step.us_per_call": "us",
    "observables.record.us_per_call": "us",
    "observables.record.calls": "count",
    "grid.fft.calls_per_step": "count",
    "grid.fft.us_per_call": "us",
    "grid.fft.bytes_per_step": "B",
    "harness.io.csv_s": "s",
    "harness.io.bytes": "B",
    "harness.ensemble.pool_efficiency": "ratio",
    "groundstate.iterations": "count",
    "groundstate.us_per_iteration": "us",
    "noise.build_s": "s",
    "config.load_s": "s",
    "config.self_s": "s",
    "grid.self_s": "s",
    "noise.self_s": "s",
    "dynamics.self_s": "s",
    "observables.self_s": "s",
    "groundstate.self_s": "s",
    "harness.self_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}
LAYERS = ("config", "grid", "noise", "dynamics", "observables", "groundstate", "harness")
# spans that orchestrate rather than compute; coverage counts what lies below them
ORCHESTRATION = {"harness.run_single", "harness.run_ensemble", "harness.verify",
                 "harness.trajectory", "harness.path"}


class Session:
    """Repeats one workload's command and keeps what each repeat produced."""

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.speed = HostSpeed(workload.cfg.dim, workload.cfg.n)
        self.kernel_s: dict[str, list[float]] = {}   # phase -> kernel timings
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reps: list[dict] = []
        self._runs = 0
        self._reference: str | None = None

    def repeat(self, budget_s: float, tracer=None) -> list[dict]:
        """Repeat the command while the next repeat fits in ``budget_s``.

        Runs at least once, and stops at the first command that raises.  The
        host-speed kernel is timed before the first repeat and after each.
        """
        phase = "traced" if tracer else "untraced"
        last = self.reps[-1]["wall_s"] if self.reps else 0.0
        kernel = self.kernel_s[phase] = self.speed.sample(KERNEL_SHARE * last)
        done = []
        start = time.perf_counter()
        while True:
            rep = self.once(phase, tracer)
            if rep is None:
                return done
            kernel += self.speed.sample(KERNEL_SHARE * rep["wall_s"])
            done.append(rep)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(done) > budget_s:
                return done

    def once(self, phase: str, tracer=None) -> dict | None:
        """Run, time and gate one command; None when it raised."""
        index = self._runs
        self._runs += 1
        out = self.tmp / "out" / f"rep{index}"
        ops = self.workload.ops
        self.attempted += ops
        start = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.command(out)
            else:
                tracer.trace_id = index
                result = tracer._wrap(self.workload.command, "bench.command", None)(out)
            wall = time.perf_counter() - start
            outcome = self.workload.check(result, out)
        except Exception:  # a failing command is a counted failure, not a crash
            self.fail(f"{phase} run {index}: {traceback.format_exc()}", ops)
            shutil.rmtree(out, ignore_errors=True)
            return None
        for message in outcome.failures:
            self.failures.append(f"{phase} run {index}: {message}")
        self.failed += outcome.failed
        fingerprint, io_bytes = _fingerprint(out, outcome.digest)
        shutil.rmtree(out, ignore_errors=True)
        if self._reference is None:
            self._reference = fingerprint
        elif fingerprint != self._reference:
            # same inputs, same code: outputs must be identical, traced or not
            self.fail(f"{phase} run {index}: output differs from the first run's",
                      ops - outcome.failed)
        rep = {"index": index, "phase": phase, "wall_s": wall,
               "steps": outcome.steps, "paths": outcome.paths, "io_bytes": io_bytes}
        self.reps.append(rep)
        return rep

    def fail(self, message: str, ops: int) -> None:
        self.failures.append(message)
        self.failed += ops


def _fingerprint(out: Path, digest: str) -> tuple[str, int]:
    """Hash of every file the command wrote (names and bytes) plus its digest."""
    h = hashlib.sha256(digest.encode())
    total = 0
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            total += len(data)
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _reference_wall_s(session: Session, phase: str, reps: list[dict]) -> float:
    """Mean wall time of ``reps`` in reference seconds."""
    return session.speed.scale(_mean(r["wall_s"] for r in reps), session.kernel_s[phase])


def _peak_rss_mb(workers: int) -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN is the largest waited-for
    # child, 0 when no pool ran
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _setup_seconds(ini: Path, session: Session) -> list[float]:
    """Measured set-up times of fresh interpreters, the kernel timed around each."""
    times = []
    kernel = session.kernel_s["setup"] = session.speed.sample(0.0)
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ini)],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        kernel += session.speed.sample(KERNEL_SHARE * times[-1])
    return times


def _end_to_end(session: Session, reps: list[dict], ini: Path) -> dict:
    peak = _peak_rss_mb(session.workload.workers)  # before the probes, which are children too
    setup = _setup_seconds(ini, session)
    wall = _reference_wall_s(session, "untraced", reps)
    per_s = 1.0 / wall if wall else 0.0   # 0 when the first command failed
    return {
        "setup_s": session.speed.scale(_mean(setup), session.kernel_s["setup"]),
        "wall_s": wall,
        "steps_per_s": _mean(r["steps"] for r in reps) * per_s,
        "paths_per_s": _mean(r["paths"] for r in reps) * per_s,
        "peak_rss_mb": peak,
    }


def _per_layer(session: Session, spans, traced: list[dict], untraced: list[dict]) -> dict:
    per_rep = []
    for rep in traced:
        group = [s for s in spans if s.trace == rep["index"]]
        m = _rep_layer_metrics(session.workload, rep, group)
        per_rep.append(m)
        if m["trace.coverage"] < COVERAGE_MIN:
            session.fail(f"traced run {rep['index']}: spans cover only "
                         f"{m['trace.coverage']:.2f} of the wall time", 0)
        paths = sum(s.name == "harness.path" for s in group)
        if session.workload.workers > 1 and paths != session.workload.ops:
            session.fail(f"traced run {rep['index']}: spans from {paths} of "
                         f"{session.workload.ops} ensemble paths collected", 0)
    metrics = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]} if per_rep else {}

    def median_s(name):
        return _median([s.duration / 1e9 for s in spans if s.name == name])

    metrics["noise.build_s"] = median_s("noise.build")
    metrics["config.load_s"] = median_s("config.load")
    untraced_wall = _reference_wall_s(session, "untraced", untraced)
    traced_wall = _reference_wall_s(session, "traced", traced)
    metrics["trace.overhead"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def _rep_layer_metrics(workload, rep: dict, group) -> dict:
    by_name: dict = {}
    for s in group:
        by_name.setdefault(s.name, []).append(s)

    def total_ns(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def us_per_call(name):
        return total_ns(name) / calls(name) / 1e3 if calls(name) else 0.0

    steps = rep["steps"] or 1
    m = {
        "dynamics.nonlinear_phase.us_per_call": us_per_call("dynamics.nonlinear_phase"),
        "dynamics.diag.us_per_call": us_per_call("dynamics.diag"),
        "noise.stratonovich_phase.us_per_call": us_per_call("noise.stratonovich_phase"),
        "observables.on_step.us_per_call": us_per_call("observables.on_step"),
        "observables.record.us_per_call": us_per_call("observables.record"),
        "observables.record.calls": float(calls("observables.record")),
        "grid.fft.calls_per_step": calls("grid.fft") / steps,
        "grid.fft.us_per_call": us_per_call("grid.fft"),
        "grid.fft.bytes_per_step": sum(s.value for s in by_name.get("grid.fft", ())) / steps,
        "harness.io.csv_s": total_ns("harness.io.csv") / 1e9,
        "harness.io.bytes": float(rep["io_bytes"]),
    }

    # the L step: strang_step minus its N and W children, FFTs kept in
    lnw = [s for s in group if s.name in
           ("dynamics.strang_step", "dynamics.nonlinear_phase", "noise.stratonovich_phase")]
    l_self = self_times(lnw)
    strang = by_name.get("dynamics.strang_step", ())
    m["dynamics.strang_step.self_us_per_call"] = (
        sum(l_self[s.key] for s in strang) / len(strang) / 1e3 if strang else 0.0)

    ensemble_ns = total_ns("harness.run_ensemble")
    if ensemble_ns:
        m["harness.ensemble.pool_efficiency"] = (
            total_ns("harness.path") / (workload.workers * ensemble_ns))

    solves = by_name.get("groundstate.solve", ())
    iterations = sum(s.value for s in solves)
    m["groundstate.iterations"] = float(iterations)
    m["groundstate.us_per_iteration"] = (
        total_ns("groundstate.solve") / iterations / 1e3 if iterations else 0.0)

    own = self_times(group)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.key] for s in group if s.layer == layer) / 1e9

    root = by_name["bench.command"][0]
    below = [(s.start, s.end) for s in group
             if s.layer != "bench" and s.name not in ORCHESTRATION]
    m["trace.coverage"] = covered_ns(below, root.start, root.end) / root.duration
    return m


def _git_sha() -> str | None:
    """HEAD's commit when the checkout is a git clone, else None."""
    # the ceiling keeps git from finding a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _environment() -> dict:
    import multiprocessing

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINNING},
        "process_start_method": multiprocessing.get_start_method(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, write_config

    import scnls

    workload = WORKLOADS[workload_name]()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload_name}-", dir=scratch) as name:
        tmp = Path(name)
        ini = write_config(workload, CONFIGS, seed, tmp / "out", tmp / f"{workload_name}.ini")
        config_text = ini.read_text(encoding="utf-8")
        cfg = scnls.load_config(ini)
        workload.prepare(cfg, seed)
        session = Session(workload, tmp)
        session.once("warm-up")  # gated and counted, not timed
        budget = seconds / 2 if trace else seconds
        untraced = session.repeat(budget)
        if not trace:
            metrics = _end_to_end(session, untraced, ini)
            units = END_TO_END
        else:
            tracer = Tracer(tmp / "spans")
            tracer.install()
            try:
                tracer.trace_id = -1
                for _ in range(TRACED_SETUPS):
                    cfg_again = scnls.load_config(ini)
                    grid = cfg_again.build_grid()
                    cfg_again.build_state(grid)
                    cfg_again.build_noise_model(grid)
                traced = session.repeat(budget, tracer)
            finally:
                tracer.uninstall()
            metrics = _per_layer(session, tracer.collect(), traced, untraced)
            units = PER_LAYER
        environment = _environment()

    return {
        "benchmark": "scnls",
        "workload": workload_name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment,
        "config": config_text,
        "runs": session.reps,
        "kernel_s": session.kernel_s,
        "kernel_reference_s": session.speed.reference_s,
        "failures": session.failures,
        "failed_fraction": session.failed / session.attempted,
        "correct": not session.failures and session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    missing = [p for p in (SRC / "scnls" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"perfbench: not a scnls checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    # before numpy is imported: thread pools read these once
    os.environ.update(THREAD_PINNING)
    for name in SCNLS_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
