"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from run import E2E_UNITS  # noqa: E402
from speed import Sampled, factor  # noqa: E402
from stack import end_checks, run_phase, setup, wind_down  # noqa: E402
from streams import ABSENT_WINDOW, WORKLOADS, build_stream  # noqa: E402
from tracing import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402


def small(name: str, **overrides: object):
    """The named workload at a size that builds in seconds."""
    w = WORKLOADS[name]
    fields = {"n_load": 4000, "pool_keys": 12 * w.writes_per_round + ABSENT_WINDOW}
    fields.update(overrides)
    return dataclasses.replace(w, **fields)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_uden_structural_counts_repeat_for_one_seed(tmp_path):
    # Single thread, no timers: the same seed must give the same counters.
    w = small("uden-embedded", n_load=20_000)
    counts = []
    for rep in range(2):
        stream = build_stream(w, seed=7)
        stack, _ = setup(w, stream, tmp_path / f"rep{rep}")
        try:
            phase = run_phase(stack, stream, 0, max_rounds=6)
        finally:
            stack.close()
        assert phase.failed == 0
        counts.append({k: phase.counters[k] for k in ("node_hops", "model_evals", "slot_probes")})
    assert counts[0] == counts[1]
    other = build_stream(w, seed=8)
    assert other.rounds[0].reads != build_stream(w, seed=7).rounds[0].reads


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_clean(tmp_path, name):
    w = small(name)
    stream = build_stream(w, seed=3)
    stack, _ = setup(w, stream, tmp_path / name)
    try:
        phase = run_phase(stack, stream, 0, max_rounds=3)
        done = wind_down(stack, stream, phase.rounds, reps=1)
        failures = end_checks(stack, stream, done)
    finally:
        stack.close()
    assert phase.rounds == 3
    assert phase.failed == 0 and done.tail_failed == 0
    assert failures == [], failures


def test_traced_layers_add_up_to_the_phase(tmp_path):
    w = small("face-rw-scalar")
    stream = build_stream(w, seed=4)
    tracer = Tracer()
    tracer.install()
    try:
        stack, _ = setup(w, stream, tmp_path / "traced")
        try:
            phase = run_phase(stack, stream, 0, max_rounds=3)
            done = wind_down(stack, stream, phase.rounds, reps=1)
        finally:
            stack.close()
    finally:
        tracer.uninstall()
    window = (phase.t_start_ns, phase.t_end_ns)
    metrics, breakdown = layer_metrics(
        tracer.spans(), threading.get_ident(), window, window, window,
        phase.keys, phase.calls, phase.counters, tracer.kept_rebuilds,
        {"skipped_busy": 0, "wal_bytes": 0, "user_bytes": 1,
         "replayed_records": done.replayed_records},
    )
    assert set(metrics) | {"trace.overhead_ratio", "calibration.loop_s"} == set(LAYER_UNITS)
    assert metrics["trace.closure"] == pytest.approx(1.0)
    assert breakdown["unmapped"] == 0
    for layer in ("durable", "wal", "index", "interval_lock", "ebh", "obs"):
        assert breakdown[layer] > 0, layer


def test_sampled_span_takes_its_probes_out_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with Sampled(0.005) as timing:
        t0 = time.perf_counter_ns()
        while time.perf_counter_ns() - t0 < 50_000_000:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timing.probes) >= 3
    # The span lasted 50 ms of wall time, the in-span probes included.
    inside_s = sum(timing.probes[1:-1]) / 1e9
    assert inside_s > 0
    assert timing.wall_s + inside_s == pytest.approx(0.05, abs=0.005)
    assert timing.scaled_s == pytest.approx(timing.wall_s * factor(timing.probes))


def test_tracer_restores_every_entry_point():
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._undo)
    tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} not restored"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uden-embedded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
