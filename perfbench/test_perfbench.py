"""Checks of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import scnls  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(key, parent, name, start, end, trace=0, value=None):
    return spans.Span(trace, key, parent, name, start, end, value)


def test_covered_ns_merges_overlaps_and_clips():
    assert spans.covered_ns([(0, 10), (5, 15), (20, 30)], 0, 25) == 20
    assert spans.covered_ns([(-5, 3), (40, 50)], 0, 25) == 3
    assert spans.covered_ns([], 0, 25) == 0


def test_self_time_subtracts_union_of_children_across_processes():
    root = _span((1, 0), None, "harness.run_ensemble", 0, 100)
    # two workers overlap in time; a grandchild must not count against the root
    a = _span((2, 0), (1, 0), "harness.path", 10, 60)
    b = _span((3, 0), (1, 0), "harness.path", 40, 90)
    grandchild = _span((2, 1), (2, 0), "dynamics.evolve", 20, 50)
    own = spans.self_times([root, a, b, grandchild])
    assert own[(1, 0)] == 100 - 80
    assert own[(2, 0)] == 50 - 30
    assert own[(3, 0)] == 50
    assert own[(2, 1)] == 30


def test_tracer_wraps_every_name_callers_use_and_restores(tmp_path):
    originals = (scnls.harness.evolve, scnls.noise.stratonovich_phase, np.fft.fftn,
                 scnls.observables.TrajectoryRecorder.record)
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        wrapped = scnls.harness.evolve
        assert wrapped is not originals[0]
        assert scnls.dynamics.evolve is wrapped and scnls.evolve is wrapped
        assert scnls.dynamics.stratonovich_phase is not originals[1]
        assert scnls.dynamics.stratonovich_phase is scnls.noise.stratonovich_phase
        assert np.fft.fftn is not originals[2]
        assert scnls.observables.TrajectoryRecorder.record is not originals[3]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert (scnls.harness.evolve, scnls.dynamics.stratonovich_phase, np.fft.fftn,
            scnls.observables.TrajectoryRecorder.record) == originals
    assert scnls.dynamics.evolve is originals[0]


def test_host_speed_scales_to_reference_seconds_for_every_workload_grid():
    for workload in workloads.WORKLOADS.values():
        cfg = scnls.load_config(run.CONFIGS / workload.config)
        speed = hostspeed.HostSpeed(cfg.dim, cfg.n)
        ref = speed.reference_s
        # a host running the kernel at half the reference speed halves the times
        assert speed.scale(4.0, [1.5 * ref, 2.5 * ref]) == pytest.approx(2.0)
    timings = hostspeed.HostSpeed(1, 1024).sample(0.0)
    assert len(timings) == 1 and 0 < timings[0] < 10


def test_host_speed_kernel_is_not_traced(tmp_path):
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        hostspeed.HostSpeed(1, 1024).time()
    finally:
        tracer.uninstall()
    assert tracer.spans == []


class _SmallEnsemble(workloads.Ensemble1D):
    ops = n_paths = 2


def test_traced_outputs_equal_untraced_and_spans_cover_wall_time(tmp_path):
    workload = _SmallEnsemble()
    ini = workloads.write_config(workload, run.CONFIGS, 11, tmp_path / "out",
                                 tmp_path / "small.ini")
    workload.prepare(scnls.load_config(ini), 11)
    session = run.Session(workload, tmp_path)
    untraced = session.repeat(0)   # a zero budget runs the command once
    tracer = spans.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        traced = session.repeat(0, tracer)
    finally:
        tracer.uninstall()
    metrics = run._per_layer(session, tracer.collect(), traced, untraced)
    assert session.failures == [] and session.failed == 0
    assert session.attempted == 2 * workload.ops
    assert metrics["trace.coverage"] >= run.COVERAGE_MIN
    assert 0 < metrics["harness.ensemble.pool_efficiency"] <= 1
    assert metrics["noise.stratonovich_phase.us_per_call"] > 0
    assert metrics["grid.fft.calls_per_step"] > 0
    assert 0.5 < metrics["trace.overhead"] < 10


def test_session_counts_a_changed_output_as_failed(tmp_path):
    workload = workloads.GroundState2D()
    workload.prepare(scnls.load_config(run.CONFIGS / "collapse_2d.ini"), 0)
    workload.ops = 1
    workload.order = [0.0]
    session = run.Session(workload, tmp_path)
    session.once("untraced")
    workload.order = [1.0]   # different inputs stand in for a nondeterministic program
    session.once("untraced")
    assert session.failed == 1
    assert "differs" in session.failures[0]


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    assert list(whys) == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert whys == {name: w.why for name, w in workloads.WORKLOADS.items()}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collapse_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
