"""Serving stacks, the timed closed loop, and the end-of-run checks.

Only the program's public API is used: the stack is assembled the way a user
would assemble it, and every answer is compared with the one the stream
generator computed before the clock started.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.core.index import ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.core.retrainer import RetrainingThread
from repro.robustness.durability import DurableIndex, RecoveryManager

from speed import Sampled, probe
from streams import Stream, Workload

#: Seconds between two speed probes during a set-up and during a recovery.
SETUP_PROBE_EVERY_S = 0.1
RECOVERY_PROBE_EVERY_S = 0.02

#: Group-commit size of the durable workloads' WAL (``fsync="group"``).
#: Inserts and deletes alternate in the log, so with an even group size
#: every fsync lands on the same kind of call until something shifts the
#: count by one. At 64 the fsync-paying calls were 3% of one kind and none
#: of the other, and ``insert_p99_us`` and ``delete_p99_us`` swapped between
#: the CPU path (about 100 us) and the host disk's fsync time (0.3 to
#: 18 ms) within a run. An odd group above 200 records spreads the fsyncs
#: over both kinds and keeps them under 1% of each, so the p99s measure the
#: index path; ``wal.fsyncs`` and ``wal.fsync_s`` still count the fsyncs.
GROUP_EVERY = 257

#: Keys served between two retrainer sweeps. The sweep runs on the client
#: thread between rounds (see :func:`run_phase`); at today's speed this is
#: about the config's 0.25 s retrain period.
SWEEP_EVERY_KEYS = 4096

#: Rounds logged after the timed phase so that every run's ``recovery_s``
#: replays the same WAL tail.
TAIL_ROUNDS = 4

#: Latency series, in the order the metrics are reported.
KINDS = ("lookup", "insert", "delete", "batch_lookup", "batch_insert", "batch_delete")


def new_index(lock_manager: IntervalLockManager | None = None) -> ChameleonIndex:
    return ChameleonIndex(strategy="ChaDATS", lock_manager=lock_manager)


@dataclass
class Stack:
    """One assembled stack; ``api`` is what the client calls."""

    workload: Workload
    directory: Path
    index: ChameleonIndex
    api: Any
    durable: DurableIndex | None = None
    retrainer: RetrainingThread | None = None

    def close(self) -> None:
        """Tear the stack down and delete its files."""
        if self.durable is not None:
            self.durable.close()
        if self.workload.obs:
            obs.disarm_metrics()
            obs.disarm_slo()
        shutil.rmtree(self.directory, ignore_errors=True)
        # Callers still hold this object while the next stack is built.
        self.index = self.api = self.durable = self.retrainer = None
        gc.collect()


def setup(workload: Workload, stream: Stream, directory: Path) -> tuple[Stack, Sampled]:
    """Build the workload's stack until it is ready to serve; returns its time.

    The clock covers construction, ``bulk_load`` through the stack, the
    post-load checkpoint, retrainer construction and one warm-up
    ``lookup_batch`` (which also builds the fused batch plan where the stack
    uses one), so lazy set-up cannot move to either side of it.
    """
    shutil.rmtree(directory, ignore_errors=True)
    if workload.obs:
        obs.arm_metrics()
        obs.arm_slo()
    with Sampled(SETUP_PROBE_EVERY_S) as timing:
        if workload.durable:
            lock_manager = IntervalLockManager()
            index = new_index(lock_manager)
            durable = DurableIndex(
                index, directory, fsync="group", group_every=GROUP_EVERY
            )
            durable.bulk_load(stream.load_keys)
            durable.checkpoint()
            retrainer = RetrainingThread(index, lock_manager)
            stack = Stack(workload, directory, index, durable, durable, retrainer)
        else:
            directory.mkdir(parents=True, exist_ok=True)
            index = new_index()
            index.bulk_load(stream.load_keys)
            stack = Stack(workload, directory, index, index)
        warm = stack.api.lookup_batch(stream.warm_keys)
    if warm != stream.warm_keys.tolist():
        stack.close()
        raise RuntimeError("warm-up lookup_batch returned wrong values")
    return stack, timing


@dataclass
class Phase:
    """What one pass over a range of rounds did."""

    rounds: int = 0
    calls: int = 0
    keys: int = 0
    failed: int = 0
    wall_s: float = 0.0
    t_start_ns: int = 0
    t_end_ns: int = 0
    lat_ns: dict[str, list[int]] = field(default_factory=lambda: {k: [] for k in KINDS})
    got: dict[str, list[Any]] = field(default_factory=lambda: {k: [] for k in KINDS})
    counters: dict[str, int] = field(default_factory=dict)
    #: ``perf_counter_ns`` at the start and end of each round.
    round_start_ns: list[int] = field(default_factory=list)
    round_end_ns: list[int] = field(default_factory=list)
    #: One speed probe after each round (see ``speed.py``), off the clock.
    probe_ns: list[int] = field(default_factory=list)


def _timed(fn: Callable[[Any], Any], arg: Any, lat: list[int], got: list[Any]) -> None:
    t0 = time.perf_counter_ns()
    try:
        out = fn(arg)
    except Exception as exc:  # a failed call is kept and counted after the phase
        out = exc
    lat.append(time.perf_counter_ns() - t0)
    got.append(out)


def run_phase(
    stack: Stack,
    stream: Stream,
    first_round: int,
    seconds: float | None = None,
    max_rounds: int | None = None,
) -> Phase:
    """Run whole rounds until ``seconds`` have passed or ``max_rounds`` ran.

    The retrainer's ``sweep_once`` runs between rounds every
    ``SWEEP_EVERY_KEYS`` keys. A retrainer thread would compete with the
    client for the interpreter lock at moments that differ from run to run;
    calling the same sweep from the client gives every run the same
    interleaving, and its time still counts in its round's time. A speed
    probe follows each round; it counts in the phase's window but in no
    round.
    """
    w = stream.workload
    api = stack.api
    lookup, insert, delete = api.lookup, api.insert, api.delete
    lookup_b, insert_b, delete_b = api.lookup_batch, api.insert_batch, api.delete_batch
    phase = Phase()
    lat, got = phase.lat_ns, phase.got
    a = (w.reads_per_cycle + 1) // 2
    b = w.reads_per_cycle - a
    retrainer = stack.retrainer
    since_sweep = 0
    limit = len(stream.rounds) - first_round
    if max_rounds is not None:
        limit = min(limit, max_rounds)
    before = stack.index.counters.snapshot()
    # Garbage left by earlier set-ups or phases must not be collected on
    # this phase's clock.
    gc.collect()
    phase.t_start_ns = time.perf_counter_ns()
    deadline = None if seconds is None else phase.t_start_ns + int(seconds * 1e9)
    while phase.rounds < limit:
        phase.round_start_ns.append(time.perf_counter_ns())
        rnd = stream.rounds[first_round + phase.rounds]
        reads = rnd.reads
        j = 0
        for c in range(w.cycles):
            for _ in range(a):
                _timed(lookup, reads[j], lat["lookup"], got["lookup"])
                j += 1
            _timed(insert, rnd.inserts[c], lat["insert"], got["insert"])
            for _ in range(b):
                _timed(lookup, reads[j], lat["lookup"], got["lookup"])
                j += 1
            _timed(delete, rnd.deletes[c], lat["delete"], got["delete"])
        _timed(lookup_b, rnd.batch_lookup, lat["batch_lookup"], got["batch_lookup"])
        _timed(delete_b, rnd.batch_delete, lat["batch_delete"], got["batch_delete"])
        _timed(insert_b, rnd.batch_insert, lat["batch_insert"], got["batch_insert"])
        phase.rounds += 1
        since_sweep += w.keys_per_round
        if retrainer is not None and since_sweep >= SWEEP_EVERY_KEYS:
            retrainer.sweep_once()
            since_sweep = 0
        now = time.perf_counter_ns()
        phase.round_end_ns.append(now)
        phase.probe_ns.append(probe())
        if deadline is not None and now >= deadline:
            break
    phase.t_end_ns = time.perf_counter_ns()
    phase.wall_s = (sum(phase.round_end_ns) - sum(phase.round_start_ns)) / 1e9
    phase.counters = stack.index.counters.diff(before)
    phase.calls = phase.rounds * (w.scalar_calls_per_round + 3)
    phase.keys = phase.rounds * w.keys_per_round
    phase.failed = _count_failures(stream, first_round, phase)
    return phase


def _count_failures(stream: Stream, first_round: int, phase: Phase) -> int:
    """Compare every recorded answer with the generator's expected one."""
    w = stream.workload
    rounds = stream.rounds[first_round : first_round + phase.rounds]
    got = phase.got
    failed = 0
    expect_reads = [e for rnd in rounds for e in rnd.read_expect]
    failed += sum(
        1
        for g, e in zip(got["lookup"], expect_reads)
        if not (g is None if e is None else (type(g) is float and g == e))
    )
    failed += sum(1 for g in got["insert"] if g is not None)
    failed += sum(1 for g in got["delete"] if g is not True)
    failed += sum(
        1
        for g, rnd in zip(got["batch_lookup"], rounds)
        if not _batch_matches(g, rnd.batch_lookup_expect)
    )
    all_removed = [True] * w.batch_write
    failed += sum(1 for g in got["batch_delete"] if g != all_removed)
    failed += sum(1 for g in got["batch_insert"] if g is not None)
    return failed


def _batch_matches(got: Any, expect: np.ndarray) -> bool:
    if not isinstance(got, list) or len(got) != expect.size:
        return False
    found = np.array([np.nan if v is None else v for v in got], dtype=np.float64)
    return bool(np.array_equal(found, expect, equal_nan=True))


def contents(index: ChameleonIndex) -> np.ndarray:
    """All live ``(key, value)`` pairs as an ``(n, 2)`` array sorted by key."""
    pairs = np.array(list(index.items()), dtype=np.float64).reshape(-1, 2)
    return pairs[np.argsort(pairs[:, 0], kind="stable")]


@dataclass
class WindDown:
    """Post-phase measurements taken while the stack is still assembled."""

    bytes_per_key: float
    recovery: list[Sampled]
    tail: Phase | None
    rounds_done: int
    recovered: ChameleonIndex
    replayed_records: int
    failed_applies: int

    @property
    def tail_calls(self) -> int:
        return self.tail.calls if self.tail else 0

    @property
    def tail_failed(self) -> int:
        return self.tail.failed if self.tail else 0


def wind_down(stack: Stack, stream: Stream, rounds_done: int, reps: int) -> WindDown:
    """Size the index and time recovery ``reps`` times.

    Recovery reads a durability directory of its own, started with a
    checkpoint of the index right after the timed phase. The durable stacks
    then log a fixed tail of ``TAIL_ROUNDS`` rounds into it, so
    ``recovery_s`` restores and replays the same amount whatever the phase's
    throughput was; the embedded stack has no log, so its recovery is the
    snapshot restore alone.
    """
    index = stack.index
    bytes_per_key = index.size_bytes() / max(1, len(index))
    directory = stack.directory / "recovery"
    fresh = DurableIndex(index, directory, fsync="group", group_every=GROUP_EVERY)
    tail = None
    try:
        fresh.checkpoint()
        if stack.durable is not None:
            stack.durable.close()
            stack.api = stack.durable = fresh
            tail = run_phase(stack, stream, rounds_done, max_rounds=TAIL_ROUNDS)
            rounds_done += tail.rounds
    finally:
        fresh.close()
    times = []
    recovered = None
    for _ in range(reps):
        recovered = None
        # A recovering process holds only what it recovers: everything
        # alive now is kept out of the collector's scans while timing.
        gc.collect()
        gc.freeze()
        with Sampled(RECOVERY_PROBE_EVERY_S) as timing:
            recovered, report = RecoveryManager(directory, new_index).recover()
        times.append(timing)
        gc.unfreeze()
    return WindDown(
        bytes_per_key=bytes_per_key,
        recovery=times,
        tail=tail,
        rounds_done=rounds_done,
        recovered=recovered,
        replayed_records=report.replayed_records,
        failed_applies=report.failed_applies,
    )


#: Number of end-state checks :func:`end_checks` makes.
END_CHECKS = 3


def end_checks(stack: Stack, stream: Stream, done: WindDown) -> list[str]:
    """End-state checks; returns the names of those that failed."""
    failures = []
    live = contents(stack.index)
    expected = stream.live_keys(done.rounds_done)
    if not (np.array_equal(live[:, 0], expected) and np.array_equal(live[:, 1], live[:, 0])):
        failures.append("contents")
    if not stack.index.verify_integrity().ok:
        failures.append("integrity")
    if done.failed_applies or not np.array_equal(contents(done.recovered), live):
        failures.append("recovery")
    return failures

