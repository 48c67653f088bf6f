"""Chameleon serving benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload face-rw-scalar --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload and reports every end-to-end metric.
``--trace 1`` runs the same seed and stream twice, untraced and then with
per-layer span wrappers installed, and reports the per-layer metrics (see
README.md in this directory). The last line of standard output is the JSON
result; the lines before it are the same numbers as a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from speed import REF_PROBE_NS, factor, probe

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"

#: Set-ups per untraced run; ``setup_s`` is their median. A ChaDATS set-up
#: takes 10 to 17 s here, and a benchmark check runs 48 runs in 3420 s.
SETUP_REPS = 2

#: Recoveries per run; ``recovery_s`` is their median.
RECOVERY_REPS = 5

#: Untimed rounds of the stream run before the timed phase, so that the
#: phase starts after the first retrainer sweeps and allocations. A count
#: and not a time, so that every run's phase starts from the same state
#: whatever the machine's speed: the index slows as the stream replaces
#: loaded keys with inserted ones.
WARMUP_ROUNDS = 32

#: The timed phase is cut into this many equal, consecutive slices of rounds.
#: Each slice's times are scaled to the reference speed with the probes
#: taken in it (see ``speed.py``); throughput and the scalar percentiles are
#: medians over the slices, so that one burst of machine noise moves one
#: slice and not the reported figure. Batch percentiles use all their scaled
#: samples at once: a slice holds too few batch calls for them.
SLICES = 10

E2E_UNITS = {
    "setup_s": "s",
    "throughput_keys_s": "keys/s",
    "lookup_p50_us": "us",
    "lookup_p99_us": "us",
    "insert_p50_us": "us",
    "insert_p99_us": "us",
    "delete_p50_us": "us",
    "delete_p99_us": "us",
    "batch_lookup_p50_us": "us",
    "batch_lookup_p90_us": "us",
    "batch_insert_p50_us": "us",
    "batch_insert_p90_us": "us",
    "batch_delete_p50_us": "us",
    "batch_delete_p90_us": "us",
    "recovery_s": "s",
    "bytes_per_key": "bytes/key",
}


def calibrate() -> float:
    """Time 200 speed probes back to back: machine-speed context, never gated."""
    return sum(probe() for _ in range(200)) / 1e9


def end_to_end(phase, setups, done, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; at the reference speed unless ``scaled`` is false."""
    from stack import KINDS

    cuts = np.linspace(0, phase.rounds, SLICES + 1).round().astype(int)
    slices = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    factors = [factor(phase.probe_ns[s]) if scaled else 1.0 for s in slices]
    busy_ns = np.asarray(phase.round_end_ns) - np.asarray(phase.round_start_ns)
    keys_per_round = phase.keys / phase.rounds
    rates = [
        (s.stop - s.start) * keys_per_round / (busy_ns[s].sum() / 1e9 * f)
        for s, f in zip(slices, factors)
    ]
    m = {
        "setup_s": statistics.median(t.scaled_s if scaled else t.wall_s for t in setups),
        "throughput_keys_s": statistics.median(rates),
    }
    for kind in KINDS:
        per_round = np.asarray(phase.lat_ns[kind], dtype=np.float64).reshape(phase.rounds, -1)
        sliced = [per_round[s].ravel() / 1e3 * f for s, f in zip(slices, factors)]
        if kind.startswith("batch"):
            pooled = np.concatenate(sliced)
            m[f"{kind}_p50_us"] = float(np.percentile(pooled, 50))
            m[f"{kind}_p90_us"] = float(np.percentile(pooled, 90))
        else:
            m[f"{kind}_p50_us"] = float(np.median([np.percentile(p, 50) for p in sliced]))
            m[f"{kind}_p99_us"] = float(np.median([np.percentile(p, 99) for p in sliced]))
    m["recovery_s"] = statistics.median(
        t.scaled_s if scaled else t.wall_s for t in done.recovery
    )
    m["bytes_per_key"] = done.bytes_per_key
    return {name: m[name] for name in E2E_UNITS}


def untraced_run(workload, stream, seconds: float, workdir: Path):
    from stack import END_CHECKS, end_checks, run_phase, setup, wind_down

    setups = []
    stack = None
    for rep in range(SETUP_REPS):
        if stack is not None:
            stack.close()
        stack, timing = setup(workload, stream, workdir / f"stack{rep}")
        setups.append(timing)
    try:
        warm = run_phase(stack, stream, 0, max_rounds=WARMUP_ROUNDS)
        phase = run_phase(stack, stream, warm.rounds, seconds=seconds)
        t0 = time.perf_counter()
        done = wind_down(stack, stream, warm.rounds + phase.rounds, RECOVERY_REPS)
        t1 = time.perf_counter()
        failures = end_checks(stack, stream, done)
        t2 = time.perf_counter()
    finally:
        stack.close()
    metrics = end_to_end(phase, setups, done)
    wall = end_to_end(phase, setups, done, scaled=False)
    units = dict(E2E_UNITS)
    attempted = warm.calls + phase.calls + done.tail_calls + END_CHECKS
    failed = warm.failed + phase.failed + done.tail_failed + len(failures)
    probe_ms = np.percentile(phase.probe_ns, [0, 50, 100]) / 1e6
    notes = [
        f"times are at the reference speed: probe {REF_PROBE_NS / 1e6:g} ms; "
        f"this run's probes min/median/max {probe_ms[0]:.3f}/{probe_ms[1]:.3f}/{probe_ms[2]:.3f} ms",
        f"setup_s samples: {', '.join(f'{t.scaled_s:.3f}' for t in setups)}",
    ]
    notes += [f"{k} samples: {len(v)}" for k, v in phase.lat_ns.items()]
    notes.append(f"timed phase: {phase.rounds} rounds, {phase.keys} keys, "
                 f"{phase.wall_s:.3f} s in rounds")
    notes += [f"wall clock: {name} {value:.6g}" for name, value in wall.items()]
    if phase.t_end_ns - phase.t_start_ns < seconds * 1e9:
        notes.append("the stream ran out before the timed phase's end")
    notes.append(f"wind-down {t1 - t0:.1f} s, end checks {t2 - t1:.1f} s")
    notes += [f"end check failed: {name}" for name in failures]
    return metrics, units, attempted, failed, notes


def traced_run(workload, stream, seconds: float, workdir: Path, seed: int):
    from stack import END_CHECKS, end_checks, run_phase, setup, wind_down
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    # Untraced reference pass over the same seed and stream.
    stack, _ = setup(workload, stream, workdir / "untraced")
    try:
        ref_warm = run_phase(stack, stream, 0, max_rounds=WARMUP_ROUNDS)
        ref = run_phase(stack, stream, ref_warm.rounds, seconds=seconds)
    finally:
        stack.close()

    tracer = Tracer()
    tracer.install()
    try:
        run0 = time.perf_counter_ns()
        stack, _ = setup(workload, stream, workdir / "traced")
        setup1 = time.perf_counter_ns()
        try:
            warm = run_phase(stack, stream, 0, max_rounds=WARMUP_ROUNDS)
            wal_bytes0 = stack.durable.wal.total_bytes() if stack.durable else 0
            phase = run_phase(stack, stream, warm.rounds, seconds=seconds)
            wal_bytes = (stack.durable.wal.total_bytes() - wal_bytes0) if stack.durable else 0
            skipped = stack.retrainer.stats.skipped_busy if stack.retrainer else 0
            done = wind_down(stack, stream, warm.rounds + phase.rounds, RECOVERY_REPS)
        finally:
            tracer.uninstall()
        run1 = time.perf_counter_ns()
        failures = end_checks(stack, stream, done)
    finally:
        stack.close()

    spans = tracer.spans()
    spans.save(WORKDIR / "traces" / f"{workload.name}-seed{seed}.npz")
    user_bytes = phase.rounds * workload.writes_per_round * (16 + 8)
    metrics, breakdown = layer_metrics(
        spans,
        client=threading.main_thread().ident,
        setup=(run0, setup1),
        timed=(phase.t_start_ns, phase.t_end_ns),
        run=(run0, run1),
        keys=phase.keys,
        calls=phase.calls,
        counters=phase.counters,
        kept_rebuilds=tracer.kept_rebuilds,
        extra={
            "skipped_busy": skipped,
            "wal_bytes": wal_bytes,
            "user_bytes": user_bytes,
            "replayed_records": done.replayed_records,
        },
    )
    throughput_ref = ref.keys / ref.wall_s
    throughput = phase.keys / phase.wall_s
    metrics["trace.overhead_ratio"] = throughput_ref / throughput
    units = dict(LAYER_UNITS)
    passes = (ref_warm, ref, warm, phase)
    attempted = sum(p.calls for p in passes) + done.tail_calls + END_CHECKS
    failed = sum(p.failed for p in passes) + done.tail_failed + len(failures)
    notes = [f"self time on the client thread, us/key: {layer} {us:.3f}"
             for layer, us in breakdown.items()]
    notes.append(f"untraced {throughput_ref:.0f} keys/s, traced {throughput:.0f} keys/s")
    notes.append(f"spans recorded: {spans.name.size}")
    notes += [f"end check failed: {name}" for name in failures]
    return metrics, units, attempted, failed, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from streams import WORKLOADS, build_stream

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    calibration_s = calibrate()
    stream = build_stream(workload, args.seed)
    # The stream is the benchmark's own data: keep it out of the collector's
    # scans so that garbage collection costs what the program's objects cost.
    gc.collect()
    gc.freeze()
    workdir = WORKDIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        if args.trace:
            metrics, units, attempted, failed, notes = traced_run(
                workload, stream, args.seconds, workdir, args.seed
            )
            metrics["calibration.loop_s"] = calibration_s
        else:
            metrics, units, attempted, failed, notes = untraced_run(
                workload, stream, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; calibration loop {calibration_s:.3f} s")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
