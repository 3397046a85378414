"""In-memory span tracer installed from outside the ``scnls`` package.

A :class:`Tracer` replaces a fixed list of callables (functions in the
``scnls`` modules, methods of its classes, and ``numpy.fft.fftn/ifftn``) with
wrappers that record one span per call: name, start, end, the span that was
open when the call began, and an optional number (bytes an FFT moved, solver
iterations).  Nothing inside ``src/scnls`` changes; :meth:`Tracer.uninstall`
puts every original back.

A wrapper is installed at every module attribute of ``scnls`` that refers to
the wrapped function, so a call reaches it whichever name the caller uses
(``harness.evolve`` as well as ``dynamics.evolve``).

Ensemble paths run in forked pool workers.  A worker inherits the installed
wrappers and the open span stack, so its spans name the parent's
``run_ensemble`` span as their cause.  Spans are kept in memory and appended
to ``<spans_dir>/<pid>.spans`` at the end: by the benchmark process in
:meth:`Tracer.collect`, and by a pool worker when each path task ends,
because pool workers exit without running exit hooks.  The files hold
pickles this tracer wrote.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import sys
import time
from pathlib import Path
from typing import NamedTuple


def _iterations(args, result):
    return result.iterations


def _array_bytes(args, result):
    return args[0].nbytes + result.nbytes


# (span name, where the callable lives, attribute, value recorded on the span)
# Names are "<layer>.<what>"; the layer is the scnls module doing the work.
_FUNCTION_TARGETS = (
    ("config.load", "scnls.config", "load_config", None),
    ("noise.build", "scnls.noise", "build_noise_model", None),
    ("noise.sample_increments", "scnls.noise", "sample_increments", None),
    ("noise.stratonovich_phase", "scnls.noise", "stratonovich_phase", None),
    ("dynamics.evolve", "scnls.dynamics", "evolve", None),
    ("dynamics.strang_step", "scnls.dynamics", "strang_step", None),
    ("dynamics.nonlinear_phase", "scnls.dynamics", "nonlinear_phase", None),
    ("dynamics.diag", "scnls.dynamics", "_spectral_diagnostics", None),
    ("observables.energy_budget", "scnls.observables", "energy_budget", None),
    ("observables.virial_residuals", "scnls.observables", "virial_residuals", None),
    ("observables.blowup_criterion", "scnls.observables", "blowup_criterion", None),
    ("groundstate.solve", "scnls.groundstate", "solve_ground_state", _iterations),
    ("harness.run_single", "scnls.harness", "run_single", None),
    ("harness.run_ensemble", "scnls.harness", "run_ensemble", None),
    ("harness.verify", "scnls.harness", "verify", None),
    ("harness.trajectory", "scnls.harness", "_run_trajectory", None),
    ("harness.trajectory", "scnls.harness", "_run_verify_trajectory", None),
    ("harness.path", "scnls.harness", "_ensemble_path_star", None),
    ("harness.io.csv", "scnls.harness", "write_trajectory_csv", None),
    ("harness.io.json", "scnls.harness", "_write_json", None),
    ("grid.fft", "numpy.fft", "fftn", _array_bytes),
    ("grid.fft", "numpy.fft", "ifftn", _array_bytes),
)

_METHOD_TARGETS = (
    ("config.build_grid", "scnls.config", "RunConfig", "build_grid"),
    ("config.build_state", "scnls.config", "RunConfig", "build_state"),
    ("config.build_noise_model", "scnls.config", "RunConfig", "build_noise_model"),
    ("grid.gradient", "scnls.grid", "Grid", "gradient"),
    ("observables.on_step", "scnls.observables", "TrajectoryRecorder", "on_step"),
    ("observables.record", "scnls.observables", "TrajectoryRecorder", "record"),
)

# the task a pool worker runs once per ensemble path; its end flushes spans
_WORKER_TASK = "harness.path"


class Span(NamedTuple):
    """One recorded call.  Keys are (pid, counter); ``parent`` is the caller's key."""

    trace: int
    key: tuple
    parent: tuple | None
    name: str
    start: int
    end: int
    value: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = Path(spans_dir)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.trace_id = 0
        self.pid = os.getpid()
        self._home_pid = self.pid
        self._counter = itertools.count()
        self._installed: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a forked worker keeps the open stack (its spans' causes) but starts
        # with no recorded spans of its own
        self.pid = os.getpid()
        self.spans = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str, value_fn):
        tracer = self
        clock = time.perf_counter_ns
        stack = self.stack
        counter = self._counter
        flush = name == _WORKER_TASK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (tracer.pid, next(counter))
            parent = stack[-1] if stack else None
            stack.append(key)
            start = clock()
            value = None
            try:
                result = fn(*args, **kwargs)
                if value_fn is not None:
                    value = value_fn(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((tracer.trace_id, key, parent, name, start, end, value))
                if flush and tracer.pid != tracer._home_pid:
                    tracer.flush()

        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its file and drop them from memory."""
        with (self.spans_dir / f"{self.pid}.spans").open("ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every ``scnls``/``numpy.fft`` name bound to it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "scnls" or name.startswith("scnls."))]
        for name, module_name, attr, value_fn in _FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, value_fn)
            home = sys.modules[module_name]
            for owner in [home] + [m for m in modules if m is not home]:
                for owner_attr, obj in list(vars(owner).items()):
                    if obj is original:
                        setattr(owner, owner_attr, wrapper)
                        self._installed.append((owner, owner_attr, original))
        for name, module_name, cls_name, attr in _METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name, None))
            self._installed.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def collect(self) -> list[Span]:
        """Write out this process's spans, then read back those of every process."""
        self.flush()
        spans = []
        for path in sorted(self.spans_dir.glob("*.spans")):
            with path.open("rb") as fh:
                while fh.peek(1):
                    spans.extend(Span(*s) for s in pickle.load(fh))
        return spans


# -- analysis ---------------------------------------------------------------


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict:
    """Span key -> duration minus the part of it its child spans cover.

    Children may run in other processes and overlap each other; the union of
    their intervals is what gets subtracted.  Only children in ``spans``
    count, so passing a subset subtracts only those.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.key: s.duration - covered_ns(children.get(s.key, ()), s.start, s.end)
        for s in spans
    }
