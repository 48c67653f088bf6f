"""Machine-readable performance baseline for the batch-execution layer.

Produces ``BENCH_PR10.json`` (schema ``repro-perf-baseline/v5``): for each
index, the scalar-loop and batch-API lookup throughput on the same query
stream, the speedup, and a structural-counter equivalence verdict. Since
v2 the document also carries an ``obs_overhead`` section: the same seeded
mixed workload run with :mod:`repro.obs` disarmed and armed, pinning the
wall-clock ratio, the counter-neutrality contract (bit-identical Counters
and results either way), and the zero-allocation property of the disarmed
hot path (tracemalloc bytes/op). v3 adds a ``durability`` section: the
same seeded mixed workload with writes routed through a WAL-backed
:class:`~repro.robustness.durability.durable.DurableIndex` under the
``group`` and ``always`` fsync policies, pinning the write-overhead
ratios, the WAL counter-neutrality contract, and a crash-recovery timing
(restore + full replay, normalised to seconds per 100k logged records).
v4 adds a ``write_path`` section (and a per-index ``vectorized`` flag):
the churn workload — delete ``n/5`` loaded keys then insert ``n/10``
fresh keys, issued scalar-loop vs through the gathered batch executors —
pinning the batch write speedups, the write counter-equivalence contract,
final-structure equality, and the bulk-WAL overhead of routing the same
batches through a DurableIndex (one CRC frame + fsync per batch).
v5 adds a ``telemetry_overhead`` section: the same seeded mixed workload
with the full continuous-telemetry stack armed — metrics registry,
background :class:`~repro.obs.timeline.TimelineSampler`, SLO latency
windows, and a flight recorder — versus everything disarmed, pinning the
wall-clock ratio, the counter/result neutrality contract, and the
zero-allocation property of the *disarmed* flight-trigger guard
(tracemalloc bytes/op, same micro-bench shape as the null span path).
The file is committed so later PRs can diff their numbers against a
pinned reference instead of a prose claim (``python -m repro.bench.diff``
attributes any regression per metric); docs/benchmarking.md documents
the format and the refresh procedure.

Wall-clock numbers are machine-dependent — the committed file records the
*shape* (batch >= scalar, counters equal, disarmed obs allocation-free,
WAL-on counters bit-identical to WAL-off, recovery loss-free), which is
what CI's bench-smoke job asserts at small scale. Write timings use a
min-of-``reps`` estimator with alternating scalar/batch builds and an
untimed warm-up, which is robust to the CPU contention that single runs
are exposed to.
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .. import obs
from ..baselines import INDEX_REGISTRY
from ..baselines.interfaces import BaseIndex
from ..baselines.sorted_array import SortedArrayIndex
from ..core.index import ChameleonIndex
from ..core.interval_lock import IntervalLockManager
from ..core.retrainer import RetrainingThread
from ..datasets import load as load_dataset
from ..obs import flight as obs_flight
from ..obs import trace as obs_trace
from ..workloads.mixed import read_write_workload, split_load_and_pool
from ..workloads.operations import OpKind
from .harness import BenchScale

SCHEMA = "repro-perf-baseline/v5"

#: Default lineup: every index with a genuinely vectorised batch override
#: plus one scalar-default control (B+Tree) proving API conformance.
DEFAULT_INDEXES = ("Chameleon", "RS", "PGM", "SortedArray", "B+Tree")


def _constructors() -> dict[str, Callable[[], BaseIndex]]:
    ctors: dict[str, Callable[[], BaseIndex]] = dict(INDEX_REGISTRY)
    ctors["SortedArray"] = SortedArrayIndex
    return ctors


def _make_queries(
    keys: np.ndarray, n_queries: int, seed: int
) -> np.ndarray:
    """60/40 present/absent mix over the loaded key range."""
    rng = np.random.default_rng(seed)
    n_hit = int(n_queries * 0.6)
    present = rng.choice(keys, n_hit, replace=True)
    absent = rng.uniform(keys.min(), keys.max(), n_queries - n_hit)
    queries = np.concatenate([present, absent])
    rng.shuffle(queries)
    return queries


def _measure_one(
    ctor: Callable[[], BaseIndex],
    keys: np.ndarray,
    queries: np.ndarray,
    batch_size: int,
) -> dict[str, Any]:
    """Scalar vs batch lookup throughput + counter equivalence for one index.

    Fresh index per path so counter deltas are directly comparable; one
    untimed warm-up batch lets plan/cache builds amortise the way a real
    batch workload would (the warm-up's counters are excluded via a
    post-warm-up snapshot).
    """
    scalar_ix = ctor()
    scalar_ix.bulk_load(keys)
    before = scalar_ix.counters.snapshot()
    q_list = queries.tolist()
    t0 = time.perf_counter()
    scalar_out = [scalar_ix.lookup(k) for k in q_list]
    scalar_secs = time.perf_counter() - t0
    scalar_delta = scalar_ix.counters.diff(before)

    batch_ix = ctor()
    batch_ix.bulk_load(keys)
    batch_ix.lookup_batch(queries[:batch_size])  # warm-up (untimed)
    before = batch_ix.counters.snapshot()
    batch_out: list[Any] = []
    t0 = time.perf_counter()
    for i in range(0, queries.size, batch_size):
        batch_out.extend(batch_ix.lookup_batch(queries[i : i + batch_size]))
    batch_secs = time.perf_counter() - t0
    batch_delta = batch_ix.counters.diff(before)

    n = int(queries.size)
    scalar_tput = n / scalar_secs if scalar_secs > 0 else 0.0
    batch_tput = n / batch_secs if batch_secs > 0 else 0.0
    return {
        "scalar_ops_per_sec": round(scalar_tput, 1),
        "batch_ops_per_sec": round(batch_tput, 1),
        "speedup": round(batch_tput / scalar_tput, 3) if scalar_tput else 0.0,
        "vectorized": type(batch_ix).lookup_batch
        is not BaseIndex.lookup_batch,
        "results_equal": scalar_out == batch_out,
        "counters_equal": scalar_delta == batch_delta,
        "scalar_counters": {k: v for k, v in scalar_delta.items() if v},
        "batch_counters": {k: v for k, v in batch_delta.items() if v},
    }


def _null_alloc_bytes_per_op(iterations: int = 50_000) -> float:
    """Bytes allocated per disarmed span+event pair (should be ~0).

    The disarmed hot path must not allocate: ``span`` returns the shared
    ``NULL_SPAN`` singleton and ``event`` short-circuits on ``ACTIVE is
    None``. tracemalloc around a tight loop pins that; the loop iterator
    is pre-built and a warm-up pass absorbs one-time interning so only
    steady-state allocation is charged.
    """
    with obs.disarmed():
        for _ in range(1_000):  # warm-up: interning, bytecode caches
            with obs_trace.span("bench.null").put("n", 1):
                pass
            obs_trace.event("bench.null")
        steps = range(iterations)
        tracemalloc.start()
        before, _peak = tracemalloc.get_traced_memory()
        for _ in steps:
            with obs_trace.span("bench.null").put("n", 1):
                pass
            obs_trace.event("bench.null")
        after, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return max(0, after - before) / iterations


def _run_obs_workload(
    keys: np.ndarray, n_ops: int, seed: int
) -> tuple[float, dict[str, int], list[Any]]:
    """One seeded mixed run on a locking Chameleon with retrainer sweeps.

    Deterministic given ``(keys, n_ops, seed)``: the same index, the same
    operation stream, sweeps at the same points — so two invocations under
    different arming states are directly comparable. Returns wall-clock
    seconds, the structural-counter delta, and the lookup result list.
    """
    lock_manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=lock_manager)
    loaded, pool = split_load_and_pool(keys, 0.7, seed=seed)
    index.bulk_load(loaded)
    # Threshold low enough that a ~30%-write stream drifts some of the
    # h-level intervals between sweeps, so retrain spans/locks are part
    # of what the overhead (and the trace-smoke coverage set) measures.
    retrainer = RetrainingThread(index, lock_manager, update_threshold=8)
    ops = read_write_workload(loaded, pool, n_ops, write_ratio=0.3, seed=seed + 1)
    sweep_every = max(1, len(ops) // 8)
    before = index.counters.snapshot()
    results: list[Any] = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops, start=1):
        if op.kind is OpKind.LOOKUP:
            results.append(index.lookup(op.key))
        elif op.kind is OpKind.INSERT:
            index.insert(op.key)
        else:
            index.delete(op.key)
        if i % sweep_every == 0:
            retrainer.sweep_once()
    secs = time.perf_counter() - t0
    return secs, index.counters.diff(before), results


def measure_obs_overhead(
    keys: np.ndarray, n_ops: int = 5_000, seed: int = 0
) -> dict[str, Any]:
    """Disarmed vs. armed cost of :mod:`repro.obs` on a mixed workload.

    Runs :func:`_run_obs_workload` twice — once with both sinks swapped
    out, once with a fresh recorder and registry installed — and reports
    the wall-clock ratio plus the counter-neutrality verdicts the armed
    mode must uphold (RL013: structural Counters are measurement, not
    measured).
    """
    with obs.disarmed():
        disarmed_secs, disarmed_counters, disarmed_results = _run_obs_workload(
            keys, n_ops, seed
        )
    recorder = obs.TraceRecorder()
    registry = obs.MetricsRegistry()
    with obs.armed(recorder=recorder, registry=registry):
        armed_secs, armed_counters, armed_results = _run_obs_workload(
            keys, n_ops, seed
        )
    return {
        "n_ops": int(n_ops),
        "disarmed_seconds": round(disarmed_secs, 6),
        "armed_seconds": round(armed_secs, 6),
        "overhead_ratio": (
            round(armed_secs / disarmed_secs, 3) if disarmed_secs > 0 else 0.0
        ),
        "counters_equal": disarmed_counters == armed_counters,
        "results_equal": disarmed_results == armed_results,
        "trace_events": len(recorder),
        "null_alloc_bytes_per_op": round(_null_alloc_bytes_per_op(), 4),
    }


def _flight_disarmed_bytes_per_op(iterations: int = 50_000) -> float:
    """Bytes allocated per disarmed flight tick+trigger pair (should be ~0).

    The disarmed flight path must match the null span path: one module
    attribute load and a pointer comparison, no allocation. Wired call
    sites additionally guard on ``ACTIVE`` before building their detail
    dicts, so this loop (module helpers, no detail) is exactly the cost
    the hot path pays when the recorder is off.
    """
    with obs.disarmed():
        for _ in range(1_000):  # warm-up: interning, bytecode caches
            obs_flight.tick()
            obs_flight.trigger("bench.null")
        steps = range(iterations)
        tracemalloc.start()
        before, _peak = tracemalloc.get_traced_memory()
        for _ in steps:
            obs_flight.tick()
            obs_flight.trigger("bench.null")
        after, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return max(0, after - before) / iterations


def measure_telemetry_overhead(
    keys: np.ndarray, n_ops: int = 5_000, seed: int = 0
) -> dict[str, Any]:
    """Disarmed vs. full-telemetry cost of the continuous stack (v5 row).

    The armed run carries everything PR-10 added on top of trace+metrics:
    a background :class:`~repro.obs.timeline.TimelineSampler` hammering
    the registry at 5 ms, the SLO latency windows observing every public
    index op, and a flight recorder armed into a scratch directory. The
    contract mirrors RL013: structural Counters and lookup results must
    be bit-identical to the disarmed run — telemetry is measurement, not
    measured — and the *disarmed* flight guard must not allocate.
    """
    with obs.disarmed():
        disarmed_secs, disarmed_counters, disarmed_results = _run_obs_workload(
            keys, n_ops, seed
        )
    recorder = obs.TraceRecorder()
    registry = obs.MetricsRegistry()
    sampler = obs.TimelineSampler(registry=registry, interval_s=0.005)
    with tempfile.TemporaryDirectory(prefix="repro-bench-flight-") as d:
        with obs.armed(recorder=recorder, registry=registry):
            flight_rec = obs.arm_flight(d)
            slo_tracker = obs.arm_slo()
            sampler.start()
            try:
                armed_secs, armed_counters, armed_results = _run_obs_workload(
                    keys, n_ops, seed
                )
            finally:
                sampler.stop()
                obs.disarm_slo()
                obs.disarm_flight()
        flight_bundles = len(flight_rec.bundles)
    slo_lookup = slo_tracker.snapshot().get("lookup", {})
    return {
        "n_ops": int(n_ops),
        "disarmed_seconds": round(disarmed_secs, 6),
        "armed_seconds": round(armed_secs, 6),
        "overhead_ratio": (
            round(armed_secs / disarmed_secs, 3) if disarmed_secs > 0 else 0.0
        ),
        "counters_equal": disarmed_counters == armed_counters,
        "results_equal": disarmed_results == armed_results,
        "timeline_interval_s": sampler.interval_s,
        "timeline_samples": int(sampler.samples),
        "timeline_dropped": int(sampler.dropped),
        "timeline_errors": len(sampler.errors),
        "slo_lookup_p99_seconds": slo_lookup.get("p99_seconds"),
        "flight_bundles": int(flight_bundles),
        "flight_disarmed_bytes_per_op": round(
            _flight_disarmed_bytes_per_op(), 4
        ),
    }


def _run_durable_workload(
    keys: np.ndarray,
    n_ops: int,
    seed: int,
    directory: str | Path | None = None,
    fsync: str = "always",
) -> tuple[float, dict[str, int], list[Any], ChameleonIndex]:
    """The obs mixed workload with writes optionally routed through a WAL.

    Identical op stream and sweep schedule to :func:`_run_obs_workload`
    so WAL-off and WAL-on invocations are directly comparable; lookups
    always hit the index directly (reads are not logged).
    """
    lock_manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=lock_manager)
    loaded, pool = split_load_and_pool(keys, 0.7, seed=seed)
    durable = None
    if directory is not None:
        from ..robustness.durability.durable import DurableIndex

        durable = DurableIndex(index, directory, fsync=fsync)
        durable.bulk_load(loaded)
    else:
        index.bulk_load(loaded)
    retrainer = RetrainingThread(index, lock_manager, update_threshold=8)
    ops = read_write_workload(loaded, pool, n_ops, write_ratio=0.3, seed=seed + 1)
    sweep_every = max(1, len(ops) // 8)
    before = index.counters.snapshot()
    results: list[Any] = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops, start=1):
        if op.kind is OpKind.LOOKUP:
            results.append(index.lookup(op.key))
        elif op.kind is OpKind.INSERT:
            if durable is not None:
                durable.insert(op.key)
            else:
                index.insert(op.key)
        else:
            if durable is not None:
                durable.delete(op.key)
            else:
                index.delete(op.key)
        if i % sweep_every == 0:
            retrainer.sweep_once()
    secs = time.perf_counter() - t0
    if durable is not None:
        durable.close()
    return secs, index.counters.diff(before), results, index


def measure_durability(
    keys: np.ndarray, n_ops: int = 5_000, seed: int = 0
) -> dict[str, Any]:
    """WAL-on write overhead and recovery timing on the mixed workload.

    Three runs of the identical seeded workload — WAL off, WAL ``group``,
    WAL ``always`` — pin the overhead ratios and the counter-neutrality
    contract (durability must not perturb the structural cost model: same
    Counters, same lookup results, bit for bit). The ``always`` run's
    directory is then recovered from disk alone and compared against the
    live index, timing restore + full-replay normalised to 100k records.
    """
    from ..robustness.durability.recovery import RecoveryManager

    off_secs, off_counters, off_results, _ = _run_durable_workload(
        keys, n_ops, seed
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as d:
        group_secs, group_counters, group_results, _ = _run_durable_workload(
            keys, n_ops, seed, directory=d, fsync="group"
        )
    with tempfile.TemporaryDirectory(prefix="repro-bench-wal-") as d:
        always_secs, always_counters, always_results, live = (
            _run_durable_workload(keys, n_ops, seed, directory=d, fsync="always")
        )
        t0 = time.perf_counter()
        recovered, report = RecoveryManager(
            d, lambda: ChameleonIndex(strategy="ChaB")
        ).recover()
        recovery_secs = time.perf_counter() - t0
        recovered_equal = dict(recovered.items()) == dict(live.items())
        integrity_ok = not recovered.verify_integrity().violations
    replayed = max(1, report.replayed_records)
    return {
        "n_ops": int(n_ops),
        "wal_off_seconds": round(off_secs, 6),
        "wal_group_seconds": round(group_secs, 6),
        "wal_always_seconds": round(always_secs, 6),
        "overhead_ratio_group": (
            round(group_secs / off_secs, 3) if off_secs > 0 else 0.0
        ),
        "overhead_ratio_always": (
            round(always_secs / off_secs, 3) if off_secs > 0 else 0.0
        ),
        "counters_equal_group": off_counters == group_counters,
        "counters_equal_always": off_counters == always_counters,
        "results_equal": (
            off_results == group_results == always_results
        ),
        "wal_records": int(report.last_lsn),
        "recovery_seconds": round(recovery_secs, 6),
        "recovery_replayed_records": int(report.replayed_records),
        "recovery_seconds_per_100k_records": round(
            recovery_secs * 100_000 / replayed, 4
        ),
        "recovered_equal": bool(recovered_equal),
        "integrity_ok": bool(integrity_ok),
    }


def measure_write_path(
    ctor: Callable[[], BaseIndex],
    keys: np.ndarray,
    batch_size: int = 1024,
    reps: int = 3,
    seed: int = 1,
) -> dict[str, Any]:
    """Batch vs scalar write throughput on the churn workload.

    The workload (deterministic in ``seed``) deletes ``n/5`` of the
    loaded keys, then inserts ``n/10`` fresh uniform keys, issued in
    ``batch_size`` chunks — the asymmetric churn shape real
    update-heavy streams have (deletions free leaf slots before the
    insert wave lands). Timing alternates freshly built scalar and
    batch indexes ``reps`` times, warms each side untimed (scalar
    lookups / one ``lookup_batch``, which also amortises the gather
    plan build), and takes the minimum per side — the noise-robust
    estimator for contended machines. A separate untimed rep pins the
    correctness contract: bit-identical structural Counters and equal
    final key/value contents versus the scalar stream. Finally the same
    batch schedule runs through a WAL-``always`` DurableIndex, pinning
    the bulk-logging overhead (one CRC frame + fsync per batch) and WAL
    counter-neutrality.
    """
    from ..robustness.durability.durable import DurableIndex

    n = int(keys.size)
    m_del = n // 5
    m_ins = n // 10
    rng = np.random.default_rng(seed)
    ins = np.unique(rng.uniform(keys.min(), keys.max(), m_ins))[:m_ins]
    rng.shuffle(ins)
    dels = rng.choice(keys, m_del, replace=False)
    warm = keys[:batch_size].copy()

    def build() -> BaseIndex:
        index = ctor()
        index.bulk_load(keys)
        return index

    def batch_writes(target: Any) -> None:
        for i in range(0, m_del, batch_size):
            target.delete_batch(dels[i : i + batch_size])
        for i in range(0, m_ins, batch_size):
            target.insert_batch(ins[i : i + batch_size])

    scalar_del: list[float] = []
    scalar_ins: list[float] = []
    batch_del: list[float] = []
    batch_ins: list[float] = []
    for _ in range(max(1, reps)):
        a = build()
        for k in warm.tolist():
            a.lookup(k)
        t0 = time.perf_counter()
        for k in dels.tolist():
            a.delete(k)
        scalar_del.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for k in ins.tolist():
            a.insert(k)
        scalar_ins.append(time.perf_counter() - t0)

        b = build()
        b.lookup_batch(warm)
        t0 = time.perf_counter()
        for i in range(0, m_del, batch_size):
            b.delete_batch(dels[i : i + batch_size])
        batch_del.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(0, m_ins, batch_size):
            b.insert_batch(ins[i : i + batch_size])
        batch_ins.append(time.perf_counter() - t0)

    # Correctness rep (untimed): counter equivalence + final structure.
    a = build()
    for k in warm.tolist():
        a.lookup(k)
    before = a.counters.snapshot()
    for k in dels.tolist():
        a.delete(k)
    for k in ins.tolist():
        a.insert(k)
    scalar_delta = a.counters.diff(before)

    b = build()
    b.lookup_batch(warm)
    before = b.counters.snapshot()
    batch_writes(b)
    batch_delta = b.counters.diff(before)
    counters_equal = scalar_delta == batch_delta
    structure_equal = sorted(a.items()) == sorted(b.items())

    # Bulk-WAL overhead: the identical batch schedule, logged (one
    # CRC-framed record and one fsync per applied batch).
    with tempfile.TemporaryDirectory(prefix="repro-bench-writewal-") as d:
        wrapped = build()
        durable = DurableIndex(wrapped, d, fsync="always")
        durable.lookup_batch(warm)
        before = wrapped.counters.snapshot()
        t0 = time.perf_counter()
        batch_writes(durable)
        wal_secs = time.perf_counter() - t0
        wal_delta = wrapped.counters.diff(before)
        durable.close()
    wal_off_secs = min(batch_del) + min(batch_ins)

    def _row(m: int, scalar_secs: float, batch_secs: float) -> dict[str, Any]:
        scalar_tput = m / scalar_secs if scalar_secs > 0 else 0.0
        batch_tput = m / batch_secs if batch_secs > 0 else 0.0
        return {
            "n_ops": int(m),
            "scalar_ops_per_sec": round(scalar_tput, 1),
            "batch_ops_per_sec": round(batch_tput, 1),
            "speedup": (
                round(batch_tput / scalar_tput, 3) if scalar_tput else 0.0
            ),
        }

    return {
        "index": "Chameleon",
        "n_deletes": int(m_del),
        "n_inserts": int(m_ins),
        "batch_size": int(batch_size),
        "reps": int(max(1, reps)),
        "delete": _row(m_del, min(scalar_del), min(batch_del)),
        "insert": _row(m_ins, min(scalar_ins), min(batch_ins)),
        "counters_equal": bool(counters_equal),
        "final_structure_equal": bool(structure_equal),
        "scalar_counters": {k: v for k, v in scalar_delta.items() if v},
        "batch_counters": {k: v for k, v in batch_delta.items() if v},
        "wal_fsync": "always",
        "wal_batch_seconds": round(wal_secs, 6),
        "wal_overhead_ratio": (
            round(wal_secs / wal_off_secs, 3) if wal_off_secs > 0 else 0.0
        ),
        "wal_counters_equal": wal_delta == batch_delta,
    }


def run_perf_baseline(
    scale: BenchScale | None = None,
    dataset: str = "UDEN",
    batch_size: int = 1024,
    indexes: Sequence[str] = DEFAULT_INDEXES,
    out_path: str | Path | None = "BENCH_PR10.json",
    obs_ops: int = 5_000,
    durability_ops: int = 5_000,
    write_reps: int = 3,
    telemetry_ops: int = 5_000,
) -> dict[str, Any]:
    """Measure scalar vs batch lookups and emit the baseline document.

    Args:
        scale: size knobs; ``base_keys`` keys are loaded and ``n_queries``
            lookups issued. Defaults to a 100k-key / 100k-query run — the
            configuration the PR-4 acceptance gate is stated against.
        dataset: dataset name understood by :func:`repro.datasets.load`.
        batch_size: keys per ``lookup_batch`` call.
        indexes: lineup of index names (registry plus "SortedArray").
        out_path: where to write the JSON document (None = don't write).
        obs_ops: mixed-workload ops for the ``obs_overhead`` section
            (0 skips it).
        durability_ops: mixed-workload ops for the ``durability`` section
            (0 skips it).
        write_reps: alternating timing reps for the ``write_path``
            section (0 skips it).
        telemetry_ops: mixed-workload ops for the ``telemetry_overhead``
            section (0 skips it).

    Returns:
        The baseline document (also written to ``out_path``).
    """
    if scale is None:
        scale = BenchScale(base_keys=100_000, n_queries=100_000)
    ctors = _constructors()
    keys = load_dataset(dataset, scale.base_keys, seed=scale.seed + 1)
    queries = _make_queries(keys, scale.n_queries, scale.seed + 7)
    results: dict[str, Any] = {}
    for name in indexes:
        row = _measure_one(ctors[name], keys, queries, batch_size)
        results[name] = row
        print(
            f"{name:>12}: scalar {row['scalar_ops_per_sec']:>12,.0f} ops/s   "
            f"batch {row['batch_ops_per_sec']:>12,.0f} ops/s   "
            f"speedup {row['speedup']:.2f}x   "
            f"counters_equal={row['counters_equal']}"
        )
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "dataset": dataset,
        "n_keys": int(scale.base_keys),
        "n_queries": int(queries.size),
        "batch_size": int(batch_size),
        "seed": int(scale.seed),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    if obs_ops > 0:
        overhead = measure_obs_overhead(keys, n_ops=obs_ops, seed=scale.seed)
        doc["obs_overhead"] = overhead
        print(
            f"obs overhead: {overhead['overhead_ratio']:.2f}x armed/disarmed "
            f"({overhead['trace_events']:,} trace events), "
            f"counters_equal={overhead['counters_equal']}, "
            f"null path {overhead['null_alloc_bytes_per_op']:.2f} B/op"
        )
    if telemetry_ops > 0:
        telemetry = measure_telemetry_overhead(
            keys, n_ops=telemetry_ops, seed=scale.seed
        )
        doc["telemetry_overhead"] = telemetry
        print(
            f"telemetry: {telemetry['overhead_ratio']:.2f}x armed/disarmed "
            f"({telemetry['timeline_samples']} timeline frames), "
            f"counters_equal={telemetry['counters_equal']}, "
            f"flight guard "
            f"{telemetry['flight_disarmed_bytes_per_op']:.2f} B/op"
        )
    if durability_ops > 0:
        durability = measure_durability(
            keys, n_ops=durability_ops, seed=scale.seed
        )
        doc["durability"] = durability
        print(
            f"durability: WAL overhead {durability['overhead_ratio_group']:.2f}x"
            f" (group) / {durability['overhead_ratio_always']:.2f}x (always), "
            f"counters_equal={durability['counters_equal_always']}, "
            f"recovery {durability['recovery_seconds_per_100k_records']:.3f}"
            f" s/100k records, recovered_equal={durability['recovered_equal']}"
        )
    if write_reps > 0:
        write_path = measure_write_path(
            ctors["Chameleon"], keys, batch_size=batch_size, reps=write_reps
        )
        doc["write_path"] = write_path
        print(
            f"write path: delete {write_path['delete']['speedup']:.2f}x / "
            f"insert {write_path['insert']['speedup']:.2f}x batch-vs-scalar, "
            f"counters_equal={write_path['counters_equal']}, "
            f"structure_equal={write_path['final_structure_equal']}, "
            f"bulk-WAL overhead {write_path['wal_overhead_ratio']:.2f}x"
        )
    if out_path is not None:
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out_path}")
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Emit the batch-vs-scalar perf baseline (BENCH_PR10.json).",
    )
    parser.add_argument("--n-keys", type=int, default=100_000)
    parser.add_argument("--n-queries", type=int, default=100_000)
    parser.add_argument("--dataset", default="UDEN")
    parser.add_argument("--batch-size", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_PR10.json")
    parser.add_argument(
        "--obs-ops", type=int, default=5_000,
        help="mixed-workload ops for the obs_overhead section (0 = skip)",
    )
    parser.add_argument(
        "--durability-ops", type=int, default=5_000,
        help="mixed-workload ops for the durability section (0 = skip)",
    )
    parser.add_argument(
        "--write-reps", type=int, default=3,
        help="timing reps for the write_path section (0 = skip)",
    )
    parser.add_argument(
        "--telemetry-ops", type=int, default=5_000,
        help="mixed-workload ops for the telemetry_overhead section (0 = skip)",
    )
    parser.add_argument(
        "--indexes", nargs="*", default=list(DEFAULT_INDEXES),
        help="index lineup (registry names plus 'SortedArray')",
    )
    args = parser.parse_args(argv)
    scale = BenchScale(
        base_keys=args.n_keys, n_queries=args.n_queries, seed=args.seed
    )
    run_perf_baseline(
        scale,
        dataset=args.dataset,
        batch_size=args.batch_size,
        indexes=args.indexes,
        out_path=args.out,
        obs_ops=args.obs_ops,
        durability_ops=args.durability_ops,
        write_reps=args.write_reps,
        telemetry_ops=args.telemetry_ops,
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
