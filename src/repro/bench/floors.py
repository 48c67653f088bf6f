"""CI speed floors: one declarative table of batch-vs-scalar gates.

``python -m repro.bench.floors`` loads one UDEN key set, times every
batch path of :data:`FLOORS` against its scalar loop over ``--reps``
interleaved reps, prints each row's median speedup with its IQR (the
spread between the quartiles), and exits 1 if any median is below its
floor. It also alternates disarmed and full-telemetry runs of the locked
mixed workload and reports the median overhead ratio with its IQR; that
row never gates.

Only wall-clock floors live here. The contracts these paths keep (batch
== scalar, armed == disarmed, WAL-on == WAL-off, recovered == live) are
tier-1 tests; WAL, recovery and trace+metrics timings are perfbench's.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .. import obs
from ..baselines import INDEX_REGISTRY
from ..baselines.interfaces import BaseIndex
from ..baselines.sorted_array import SortedArrayIndex
from ..core.index import ChameleonIndex
from ..core.interval_lock import IntervalLockManager
from ..core.retrainer import RetrainingThread
from ..datasets import load as load_dataset
from ..workloads.mixed import read_write_workload, split_load_and_pool
from ..workloads.operations import OpKind

#: Every index with a vectorised ``lookup_batch`` override.
LINEUP = ("Chameleon", "RS", "PGM", "SortedArray", "B+Tree")

BATCH_SIZE = 1024


@dataclass(frozen=True)
class Floor:
    """Batch ``op`` on ``index`` runs at least ``min_speedup``× its scalar loop."""

    index: str
    op: str  # "lookup" | "delete" | "insert"
    min_speedup: float

    @property
    def label(self) -> str:
        return f"{self.index} {self.op}_batch >= {self.min_speedup}x"


FLOORS: tuple[Floor, ...] = (
    # Timer-noise allowance: no batch path may be slower than its loop.
    *(Floor(name, "lookup", 0.8) for name in LINEUP),
    # The fused plan's descent; measured ~9x at 20k keys.
    Floor("Chameleon", "lookup", 2.0),
    # Churn at 20k keys measures ~8x delete and ~3x insert.
    Floor("Chameleon", "delete", 3.0),
    Floor("Chameleon", "insert", 1.5),
)


class FloorResult(NamedTuple):
    floor: Floor
    median: float
    iqr: float
    ok: bool


def median_iqr(samples: Sequence[float]) -> tuple[float, float]:
    q1, med, q3 = np.percentile(np.asarray(samples, dtype=np.float64), [25, 50, 75])
    return float(med), float(q3 - q1)


def check(samples: Mapping[tuple[str, str], Sequence[float]]) -> list[FloorResult]:
    """Judge every floor on the median of its ``(index, op)`` samples."""
    results = []
    for floor in FLOORS:
        med, iqr = median_iqr(samples[floor.index, floor.op])
        results.append(FloorResult(floor, med, iqr, med >= floor.min_speedup))
    return results


# -- batch vs scalar ------------------------------------------------------------


def _make_queries(keys: np.ndarray, n_queries: int, seed: int) -> np.ndarray:
    """60/40 present/absent mix over the loaded key range."""
    rng = np.random.default_rng(seed)
    n_hit = int(n_queries * 0.6)
    absent = rng.uniform(keys.min(), keys.max(), n_queries - n_hit)
    return rng.permutation(np.concatenate([rng.choice(keys, n_hit), absent]))


def _lookup_speedups(index: BaseIndex, queries: np.ndarray, reps: int) -> list[float]:
    """Per-rep scalar/batch time ratios; the side timed first alternates."""
    q_list = queries.tolist()
    index.lookup_batch(queries[:BATCH_SIZE])  # untimed: builds any plan

    def scalar() -> float:
        t0 = time.perf_counter()
        for k in q_list:
            index.lookup(k)
        return time.perf_counter() - t0

    def batch() -> float:
        t0 = time.perf_counter()
        for i in range(0, queries.size, BATCH_SIZE):
            index.lookup_batch(queries[i : i + BATCH_SIZE])
        return time.perf_counter() - t0

    out = []
    for rep in range(reps):
        if rep % 2:
            b, s = batch(), scalar()
        else:
            s, b = scalar(), batch()
        out.append(s / b)
    return out


def _churn_speedups(
    index: BaseIndex, keys: np.ndarray, reps: int, seed: int = 1
) -> tuple[list[float], list[float]]:
    """Per-rep delete and insert speedups on the churn workload.

    Each rep deletes ``n/5`` loaded keys, then inserts ``n/10`` fresh
    ones, on two clones of ``index``: one key at a time, and in
    ``BATCH_SIZE`` chunks. Clones are pickle round-trips, so every rep
    starts from the same structure without a rebuild.
    """
    n = int(keys.size)
    rng = np.random.default_rng(seed)
    m_ins = n // 10
    ins = np.unique(rng.uniform(keys.min(), keys.max(), m_ins))[:m_ins]
    rng.shuffle(ins)
    dels = rng.choice(keys, n // 5, replace=False)
    dels_l, ins_l = dels.tolist(), ins.tolist()
    warm = keys[:BATCH_SIZE]
    blob = pickle.dumps(index)
    delete, insert = [], []
    for _ in range(reps):
        a = pickle.loads(blob)
        for k in warm.tolist():
            a.lookup(k)
        t0 = time.perf_counter()
        for k in dels_l:
            a.delete(k)
        t1 = time.perf_counter()
        for k in ins_l:
            a.insert(k)
        t2 = time.perf_counter()
        b = pickle.loads(blob)
        b.lookup_batch(warm)
        t3 = time.perf_counter()
        for i in range(0, dels.size, BATCH_SIZE):
            b.delete_batch(dels[i : i + BATCH_SIZE])
        t4 = time.perf_counter()
        for i in range(0, ins.size, BATCH_SIZE):
            b.insert_batch(ins[i : i + BATCH_SIZE])
        t5 = time.perf_counter()
        delete.append((t1 - t0) / (t4 - t3))
        insert.append((t2 - t1) / (t5 - t4))
    return delete, insert


# -- telemetry overhead ---------------------------------------------------------


def _run_obs_workload(
    keys: np.ndarray, n_ops: int, seed: int
) -> tuple[float, dict[str, int], list[Any]]:
    """One seeded mixed run on a locking ChaB Chameleon with eight
    retrainer sweeps, deterministic in its arguments so that runs under
    different arming states compare directly. Returns wall-clock seconds,
    the structural-counter delta, and the lookup results."""
    lock_manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=lock_manager)
    loaded, pool = split_load_and_pool(keys, 0.7, seed=seed)
    index.bulk_load(loaded)
    # Low enough that the stream drifts some intervals between sweeps, so
    # retrain spans and locks are part of what the overhead measures.
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


@contextmanager
def full_telemetry(
    flight_dir: str | Path,
) -> Iterator[tuple[obs.TimelineSampler, obs.FlightRecorder]]:
    """Arm the whole stack: trace, metrics, a 5 ms timeline sampler, SLO
    windows and a flight recorder writing into ``flight_dir``."""
    registry = obs.MetricsRegistry()
    sampler = obs.TimelineSampler(registry=registry, interval_s=0.005)
    with obs.armed(recorder=obs.TraceRecorder(), registry=registry):
        flight = obs.arm_flight(flight_dir)
        obs.arm_slo()
        sampler.start()
        try:
            yield sampler, flight
        finally:
            sampler.stop()
            obs.disarm_slo()
            obs.disarm_flight()


def _telemetry_ratios(keys: np.ndarray, n_ops: int, reps: int) -> list[float]:
    """Per-rep full-telemetry/disarmed wall-time ratios, runs alternating."""
    ratios: list[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-floors-flight-") as d:
        for _ in range(reps):
            with obs.disarmed():
                off, _, _ = _run_obs_workload(keys, n_ops, seed=0)
            with full_telemetry(d):
                on, _, _ = _run_obs_workload(keys, n_ops, seed=0)
            ratios.append(on / off)
    return ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.floors",
        description="Check the batch-vs-scalar speed floors (median of interleaved reps).",
    )
    parser.add_argument("--n-keys", type=int, default=20_000)
    parser.add_argument("--reps", type=int, default=9)
    args = parser.parse_args(argv)
    n, reps = args.n_keys, max(1, args.reps)
    t0 = time.perf_counter()
    keys = load_dataset("UDEN", n, seed=1)
    queries = _make_queries(keys, n, seed=7)
    samples: dict[tuple[str, str], list[float]] = {}
    for name in LINEUP:
        index = SortedArrayIndex() if name == "SortedArray" else INDEX_REGISTRY[name]()
        index.bulk_load(keys)
        samples[name, "lookup"] = _lookup_speedups(index, queries, reps)
        if name == "Chameleon":
            samples[name, "delete"], samples[name, "insert"] = _churn_speedups(index, keys, reps)
    results = check(samples)
    print(f"UDEN {n:,} keys, {reps} reps; median speedup (IQR)")
    for r in results:
        print(f"  {r.floor.label:<34} {r.median:7.2f}x ({r.iqr:.2f})  [{'ok' if r.ok else 'FAIL'}]")
    med, iqr = median_iqr(_telemetry_ratios(keys, min(n, 5_000), reps))
    print(f"  {'full telemetry / disarmed':<34} {med:7.2f}x ({iqr:.2f})  [report only]")
    print(f"{time.perf_counter() - t0:.1f} s")
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
