"""Tests for repro.obs: arming discipline, neutrality, exports, wiring.

The contracts pinned here are the ones docs/observability.md promises:

* disarmed is the default and allocates nothing per operation;
* armed instrumentation is counter-neutral (RL013: bit-identical
  structural Counters and results either way);
* the exports round-trip (Chrome trace validates, Prometheus parses back
  to the same samples);
* each instrumented layer — index, EBH, locks, retrainer, supervisor,
  faults, RL trainer — emits its spans/events with the right attributes.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import threading
import time
import tracemalloc
import types
from bisect import bisect_left

import pytest

from repro import obs
from repro.bench.floors import _run_obs_workload
from repro.bench.visualize import leaf_heatmap
from repro.core import ChameleonIndex, IntervalLockManager
from repro.datasets import face_like
from repro.obs import flight as flight_mod
from repro.obs import metrics as metrics_mod
from repro.obs import slo as slo_mod
from repro.obs import trace as trace_mod
from repro.obs.export import (
    chrome_trace,
    parse_prometheus,
    to_jsonl,
    validate_chrome_trace,
)
from repro.obs.log import ROOT_LOGGER_NAME, get_logger
from repro.obs.structure import sample_index
from repro.robustness import (
    FaultInjector,
    FaultMode,
    RetrainerHealth,
    SupervisedRetrainer,
)
from repro.robustness import faults as faults_mod


@pytest.fixture(autouse=True)
def no_leaked_sinks():
    """Every test must leave all four global sinks disarmed."""
    yield
    assert trace_mod.ACTIVE is None
    assert metrics_mod.ACTIVE is None
    assert flight_mod.ACTIVE is None
    assert slo_mod.ACTIVE is None
    trace_mod.ACTIVE = None
    metrics_mod.ACTIVE = None
    flight_mod.ACTIVE = None
    slo_mod.ACTIVE = None


def by_name(recorder: obs.TraceRecorder, name: str):
    return [e for e in recorder.events() if e[0] == name]


def attrs_of(event) -> dict:
    return event[5] or {}


# -- arming discipline --------------------------------------------------------


class TestArming:
    def test_disarmed_by_default(self):
        assert trace_mod.ACTIVE is None
        assert metrics_mod.ACTIVE is None

    def test_disarmed_span_is_shared_singleton(self):
        s1 = trace_mod.span("a")
        s2 = trace_mod.span("b")
        assert s1 is s2 is trace_mod.NULL_SPAN
        # Chainable and context-managed without doing anything.
        with trace_mod.span("c").put("k", 1).put("k2", 2):
            pass
        trace_mod.event("nothing", {"ignored": True})

    def test_disarmed_hot_path_allocates_nothing(self):
        for _ in range(1_000):  # warm-up: interning, caches
            with trace_mod.span("warm").put("n", 1):
                pass
            trace_mod.event("warm")
        iterations = 20_000
        steps = range(iterations)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in steps:
            with trace_mod.span("x").put("n", 1):
                pass
            trace_mod.event("x")
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert (after - before) / iterations < 1.0

    def test_armed_scope_restores_previous_sinks(self):
        outer = obs.arm_tracing()
        try:
            inner = obs.TraceRecorder()
            with obs.armed(recorder=inner) as (rec, reg):
                assert trace_mod.ACTIVE is inner is rec
                assert metrics_mod.ACTIVE is reg is not None
            assert trace_mod.ACTIVE is outer
            assert metrics_mod.ACTIVE is None
        finally:
            obs.disarm_tracing()

    def test_disarmed_scope_suspends_armed_sinks(self):
        rec = obs.arm_tracing()
        try:
            with obs.disarmed():
                assert trace_mod.ACTIVE is None
                with trace_mod.span("hidden"):
                    pass
            assert trace_mod.ACTIVE is rec
            assert len(rec) == 0
        finally:
            obs.disarm_tracing()

    def test_arm_from_env(self):
        rec, reg = obs.arm_from_env({"REPRO_TRACE": "1"})
        try:
            assert rec is trace_mod.ACTIVE is not None
            assert reg is None
            # Idempotent: an armed sink is left in place.
            rec2, _ = obs.arm_from_env({"REPRO_TRACE": "1", "REPRO_METRICS": "1"})
            assert rec2 is rec
            assert metrics_mod.ACTIVE is not None
        finally:
            obs.disarm_tracing()
            obs.disarm_metrics()
        obs.arm_from_env({})
        assert trace_mod.ACTIVE is None


# -- recorder mechanics -------------------------------------------------------


class TestRecorder:
    def test_span_records_complete_event_with_attrs(self):
        rec = obs.TraceRecorder()
        with obs.armed(recorder=rec, metering=False):
            with trace_mod.span("work").put("n", 3):
                time.sleep(0.001)
        (event,) = rec.events()
        name, phase, t_rel, dur, tid, attrs = event
        assert name == "work" and phase == "X"
        assert dur >= 1_000_000  # slept >= 1ms
        assert t_rel >= 0
        assert attrs == {"n": 3}
        assert tid in rec.thread_names()

    def test_ring_buffer_bounds_and_dropped(self):
        rec = obs.TraceRecorder(capacity=8)
        for i in range(20):
            rec.event(f"e{i}")
        assert len(rec) == 8
        assert rec.dropped == 12
        assert rec.events()[0][0] == "e12"  # oldest survivors
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            obs.TraceRecorder(capacity=0)

    def test_thread_names_tracked_per_thread(self):
        rec = obs.TraceRecorder()

        def worker():
            rec.event("from-worker")

        t = threading.Thread(target=worker, name="obs-test-worker")
        t.start()
        t.join()
        rec.event("from-main")
        assert "obs-test-worker" in rec.thread_names().values()
        tids = {e[4] for e in rec.events()}
        assert len(tids) == 2


# -- metrics ------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        reg.inc("ops_total")
        reg.inc("ops_total", 4)
        reg.set_gauge("depth", 3.5)
        reg.observe("chameleon_probe_length_slots", 3)
        reg.observe_many("chameleon_probe_length_slots", [1, 64, 1000])
        dump = reg.to_dict()
        assert dump["counters"]["ops_total"] == 5
        assert dump["gauges"]["depth"] == 3.5
        hist = dump["histograms"]["chameleon_probe_length_slots"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(1068.0)

    def test_histogram_bucket_edges(self):
        reg = obs.MetricsRegistry()
        # Bounds are upper-inclusive (le semantics): 2 lands in the "2"
        # bucket, 3 in "4", 1000 overflows to +Inf.
        reg.observe_many("chameleon_probe_length_slots", [2, 3, 1000])
        hist = reg.histogram("chameleon_probe_length_slots")
        cumulative = dict(hist.cumulative_buckets())
        assert cumulative[2.0] == 1
        assert cumulative[4.0] == 2
        assert cumulative[float("inf")] == 3

    def test_prometheus_round_trip(self):
        reg = obs.MetricsRegistry()
        reg.inc("chameleon_fault_fires_total", 2)
        reg.set_gauge("chameleon_leaf_count", 41)
        reg.observe_many("chameleon_lock_wait_seconds", [1e-4, 0.5])
        text = reg.to_prometheus()
        families = parse_prometheus(text)
        assert families["chameleon_fault_fires_total"]["type"] == "counter"
        assert families["chameleon_leaf_count"]["type"] == "gauge"
        hist = families["chameleon_lock_wait_seconds"]
        assert hist["type"] == "histogram"
        samples = {
            (name, labels.get("le")): value
            for name, labels, value in hist["samples"]
        }
        assert samples[("chameleon_lock_wait_seconds_count", None)] == 2
        assert samples[("chameleon_lock_wait_seconds_bucket", "+Inf")] == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not exposition format\n")


class _ReferenceRegistry:
    """The instruments' semantics written plainly: every write is applied
    at once, a histogram value lands in ``bisect_left(bounds, value)`` and
    is added to the running sum in order."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.hists: dict[str, tuple[tuple[float, ...], list[int], list[float]]] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def observe(self, name: str, value: float) -> None:
        if name not in self.hists:
            bounds = metrics_mod.KNOWN_HISTOGRAMS.get(name, (metrics_mod.DEFAULT_BUCKETS, ""))[0]
            bounds = tuple(sorted(float(b) for b in bounds))
            self.hists[name] = (bounds, [0] * (len(bounds) + 1), [0.0, 0])
        bounds, hits, acc = self.hists[name]
        hits[bisect_left(bounds, value)] += 1
        acc[0] += value
        acc[1] += 1

    def to_dict(self) -> dict:
        hists = {}
        for name, (bounds, hits, (total, count)) in sorted(self.hists.items()):
            cumulative = list(itertools.accumulate(hits))
            hists[name] = {
                "buckets": [[e, c] for e, c in zip((*bounds, float("inf")), cumulative)],
                "sum": total,
                "count": count,
            }
        return {"counters": dict(sorted(self.counters.items())), "gauges": {}, "histograms": hists}

    def to_prometheus(self) -> str:
        fmt = metrics_mod._fmt
        lines = []
        for name, value in sorted(self.counters.items()):
            lines += [f"# TYPE {name} counter", f"{name} {fmt(value)}"]
        for name, hist in self.to_dict()["histograms"].items():
            help_text = metrics_mod.KNOWN_HISTOGRAMS.get(name, ((), ""))[1]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            for edge, cumulative in hist["buckets"]:
                le = "+Inf" if edge == float("inf") else fmt(edge)
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines += [f"{name}_sum {fmt(hist['sum'])}", f"{name}_count {hist['count']}"]
        return "\n".join(lines) + "\n"


def _bits(dump: dict) -> str:
    """A dump as text in which equal means bit-identical (NaN included)."""
    return json.dumps(dump, sort_keys=True)


class TestDeferredInstruments:
    """Appended writes fold to exactly what applying each write would give."""

    HISTS = {
        # name -> values drawn from (finite, then the specials it takes)
        "chameleon_probe_length_slots": (),
        "chameleon_lock_wait_seconds": (float("inf"), float("-inf")),
        "custom_default_buckets": (float("nan"), float("inf")),
    }

    def _value(self, rng: random.Random, name: str) -> float:
        bounds = metrics_mod.KNOWN_HISTOGRAMS.get(name, (metrics_mod.DEFAULT_BUCKETS, ""))[0]
        roll = rng.random()
        if roll < 0.3:
            return rng.choice(bounds)  # exactly on an edge
        if roll < 0.4:
            return rng.choice((0, 0.0, -0.0, -1, -2.5))
        if roll < 0.45 and self.HISTS[name]:
            return rng.choice(self.HISTS[name])
        if roll < 0.7:
            return rng.randint(0, 300)
        return rng.uniform(-1.0, 2.0) * max(bounds)

    @pytest.mark.parametrize("fold_size", [97, metrics_mod.FOLD_SIZE])
    def test_seeded_program_matches_reference_fold(self, monkeypatch, fold_size):
        monkeypatch.setattr(metrics_mod, "FOLD_SIZE", fold_size)
        rng = random.Random(20260418)
        reg = obs.MetricsRegistry()
        ref = _ReferenceRegistry()
        names = list(self.HISTS)
        readers = 0
        for _ in range(12_000):  # at 97, dozens of write-triggered folds each
            roll = rng.random()
            if roll < 0.5:
                name = rng.choice(names)
                value = self._value(rng, name)
                reg.observe(name, value)
                ref.observe(name, value)
            elif roll < 0.6:
                name = rng.choice(names)
                values = [self._value(rng, name) for _ in range(rng.randint(0, 40))]
                reg.observe_many(name, values)
                for value in values:
                    ref.observe(name, value)
            elif roll < 0.99:
                name = rng.choice(("ops_total", "bytes_total"))
                amount = rng.choice((1, 1.0, 0.1, 3, 1e-7, rng.random() * 1e3))
                reg.inc(name, amount)
                ref.inc(name, amount)
            else:
                readers += 1
                reader = rng.randrange(7)
                name = rng.choice(names)
                if reader == 0:
                    assert _bits(reg.to_dict()) == _bits(ref.to_dict())
                elif reader == 1:
                    assert reg.to_prometheus() == ref.to_prometheus()
                elif name in ref.hists and reader == 2:
                    assert reg.histogram(name).bucket_hits == ref.hists[name][1]
                elif name in ref.hists and reader == 3:
                    assert _bits([reg.histogram(name).total]) == _bits([ref.hists[name][2][0]])
                elif name in ref.hists and reader == 4:
                    assert reg.histogram(name).n_observed == ref.hists[name][2][1]
                elif name in ref.hists and reader == 5:
                    cumulative = reg.histogram(name).cumulative_buckets()
                    assert [c for _, c in cumulative] == list(
                        itertools.accumulate(ref.hists[name][1])
                    )
                elif "ops_total" in ref.counters:
                    assert reg.counter("ops_total").value == ref.counters["ops_total"]
        assert readers > 50
        assert _bits(reg.to_dict()) == _bits(ref.to_dict())
        assert reg.to_prometheus() == ref.to_prometheus()
        # The NaN went to bucket 0, as bisect_left puts it.
        nan_hist = ref.hists["custom_default_buckets"]
        assert math.isnan(nan_hist[2][0])
        assert reg.histogram("custom_default_buckets").bucket_hits == nan_hist[1]

    def test_pending_writes_stay_bounded(self):
        hist = metrics_mod.HistogramMetric("h")
        counter = metrics_mod.CounterMetric("c")
        for i in range(5 * metrics_mod.FOLD_SIZE + 3):
            hist.observe(i % 7)
            counter.inc()
            assert len(hist._pending) < metrics_mod.FOLD_SIZE
            assert len(counter._pending) < metrics_mod.FOLD_SIZE
        assert hist.n_observed == counter.value == 5 * metrics_mod.FOLD_SIZE + 3

    def test_no_lost_updates_under_threads(self):
        reg = obs.MetricsRegistry()
        per_thread = 20_000
        workers = 4
        stop = threading.Event()
        dumps = []
        errors = []

        def writer(seed: int) -> None:
            try:
                for i in range(per_thread):
                    reg.observe("chameleon_probe_length_slots", (i + seed) % 200)
                    reg.inc("ops_total")
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def reader() -> None:
            while not stop.is_set():
                dumps.append(reg.to_dict()["counters"].get("ops_total", 0.0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(s,)) for s in range(workers)]
            watcher = threading.Thread(target=reader)
            watcher.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stop.set()
            watcher.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not watcher.is_alive()
        assert errors == []
        ref = _ReferenceRegistry()
        for seed in range(workers):
            for i in range(per_thread):
                ref.observe("chameleon_probe_length_slots", (i + seed) % 200)
        dump = reg.to_dict()
        assert dump["counters"]["ops_total"] == workers * per_thread
        hist = dump["histograms"]["chameleon_probe_length_slots"]
        expect = ref.to_dict()["histograms"]["chameleon_probe_length_slots"]
        assert hist["count"] == workers * per_thread
        assert hist["buckets"] == expect["buckets"]
        assert hist["sum"] == expect["sum"]  # integer-valued: exact in any order
        assert dumps == sorted(dumps)  # a reader never sees a counter go back


# -- exports ------------------------------------------------------------------


class TestExports:
    def _recorded(self) -> obs.TraceRecorder:
        rec = obs.TraceRecorder()
        with obs.armed(recorder=rec, metering=False):
            with trace_mod.span("outer").put("n", 1):
                trace_mod.event("inner", {"k": "v"})
        return rec

    def test_chrome_trace_validates(self):
        rec = self._recorded()
        doc = chrome_trace(rec)
        assert validate_chrome_trace(doc) == []
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "M" in phases and "X" in phases and "i" in phases
        json.dumps(doc)  # must be serialisable

    def test_validate_reports_problems(self):
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})

    def test_jsonl_lines_parse(self):
        rec = self._recorded()
        lines = to_jsonl(rec).strip().splitlines()
        assert len(lines) == 2
        names = {json.loads(line)["name"] for line in lines}
        assert names == {"outer", "inner"}


# -- counter neutrality on the real workload ----------------------------------


class TestNeutrality:
    def test_counters_and_results_bit_identical(self):
        keys = face_like(2_000, seed=3)
        with obs.disarmed():
            _, base_counters, base_results = _run_obs_workload(keys, 800, seed=3)
        rec = obs.TraceRecorder()
        reg = obs.MetricsRegistry()
        with obs.armed(recorder=rec, registry=reg):
            _, armed_counters, armed_results = _run_obs_workload(keys, 800, seed=3)
        assert base_counters == armed_counters
        assert base_results == armed_results
        names = {e[0] for e in rec.events()}
        assert {"index.lookup", "index.insert", "index.delete",
                "lock.query", "retrainer.sweep"} <= names
        assert validate_chrome_trace(chrome_trace(rec)) == []
        assert reg.histogram("chameleon_probe_length_slots").n_observed > 0
        assert reg.histogram("chameleon_descent_depth_levels").n_observed > 0


# -- lock instrumentation -----------------------------------------------------


class TestLockObservability:
    def test_query_wait_observed_under_retrain(self):
        manager = IntervalLockManager()
        ids = (0, 1)
        rec = obs.TraceRecorder()
        reg = obs.MetricsRegistry()
        entered = threading.Event()
        release = threading.Event()

        def retrain_holder():
            with manager.retrain_lock(ids):
                entered.set()
                release.wait(timeout=5.0)

        holder = threading.Thread(target=retrain_holder)
        with obs.armed(recorder=rec, registry=reg):
            holder.start()
            assert entered.wait(timeout=5.0)
            timer = threading.Timer(0.05, release.set)
            timer.start()
            with manager.query_lock(ids):
                pass
            holder.join(timeout=5.0)
        (query_span,) = by_name(rec, "lock.query")
        assert attrs_of(query_span)["waited"] is True
        assert attrs_of(query_span)["interval"] == str(ids)
        (retrain_span,) = by_name(rec, "lock.retrain")
        assert attrs_of(retrain_span)["waited"] is False
        waits = reg.histogram("chameleon_lock_wait_seconds")
        assert waits.n_observed == 1
        assert waits.total >= 0.03

    @pytest.fixture
    def clock_reads(self, monkeypatch):
        """Every ``monotonic_ns`` call the lock manager makes."""
        from repro.core import interval_lock as lock_mod

        reads = []

        def counting_monotonic_ns() -> int:
            reads.append(1)
            return time.monotonic_ns()

        shim = types.SimpleNamespace(monotonic_ns=counting_monotonic_ns, monotonic=time.monotonic)
        monkeypatch.setattr(lock_mod, "time", shim)
        return reads

    def test_uncontended_query_lock_reads_no_clock(self, clock_reads):
        manager = IntervalLockManager()
        with obs.armed(registry=obs.MetricsRegistry(), tracing=False):
            for i in range(100):
                with manager.query_lock((i % 3,)):
                    pass
        assert clock_reads == []

    def test_uncontended_retrain_lock_reads_no_clock(self, clock_reads):
        manager = IntervalLockManager()
        with obs.armed(registry=obs.MetricsRegistry(), tracing=False):
            for i in range(100):
                with manager.retrain_lock((i % 3,)) as acquired:
                    assert acquired
        assert clock_reads == []

    def test_retrain_timeout_emits_event(self):
        manager = IntervalLockManager()
        ids = (2,)
        rec = obs.TraceRecorder()
        with obs.armed(recorder=rec, metering=False):
            with manager.query_lock(ids):
                with manager.retrain_lock(ids, timeout=0.01) as acquired:
                    assert not acquired
        (timeout_event,) = by_name(rec, "lock.retrain_timeout")
        assert attrs_of(timeout_event)["interval"] == str(ids)
        assert by_name(rec, "lock.retrain") == []  # no span for a failed acquire


# -- supervisor health + watchdog ---------------------------------------------


def make_supervised(**overrides) -> tuple[ChameleonIndex, SupervisedRetrainer]:
    manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
    index.bulk_load(face_like(1_500, seed=7))
    kwargs = dict(
        update_threshold=8, halt_after=2, seed=7, period_s=0.01,
        watchdog_period_s=0.02, backoff_base_s=0.005, halt_cooldown_s=0.02,
    )
    kwargs.update(overrides)
    return index, SupervisedRetrainer(index, manager, **kwargs)


class TestSupervisorObservability:
    def test_health_transitions_emit_exactly_one_event_each(self):
        _, supervisor = make_supervised(halt_after=2)
        rec = obs.TraceRecorder()
        inj = FaultInjector(seed=0).arm(
            "retrainer.sweep", FaultMode.RAISE, probability=1.0, max_fires=3
        )
        with obs.armed(recorder=rec, metering=False), inj.installed():
            supervisor.sweep_once()  # failure 1: HEALTHY -> DEGRADED
            assert supervisor.health is RetrainerHealth.DEGRADED
            supervisor.sweep_once()  # failure 2: DEGRADED -> HALTED
            assert supervisor.health is RetrainerHealth.HALTED
            supervisor.sweep_once()  # failure 3: HALTED -> HALTED (no event)
            assert faults_mod.ACTIVE is inj
        with obs.armed(recorder=rec, metering=False):
            supervisor.sweep_once()  # success: HALTED -> HEALTHY
        assert supervisor.health is RetrainerHealth.HEALTHY
        transitions = [attrs_of(e) for e in by_name(rec, "supervisor.health")]
        assert transitions == [
            {"from": "healthy", "to": "degraded", "consecutive_failures": 1},
            {"from": "degraded", "to": "halted", "consecutive_failures": 2},
            {"from": "halted", "to": "healthy", "consecutive_failures": 3},
        ]

    def test_repeated_success_emits_no_events(self):
        _, supervisor = make_supervised()
        rec = obs.TraceRecorder()
        with obs.armed(recorder=rec, metering=False):
            supervisor.sweep_once()
            supervisor.sweep_once()
        assert by_name(rec, "supervisor.health") == []

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_watchdog_restart_event_carries_wedged_thread_id(self):
        index, supervisor = make_supervised(halt_after=5)
        keys = face_like(2_500, seed=7)
        for k in keys[1_500:1_900]:
            index.insert(float(k))
        rec = obs.TraceRecorder()
        inj = FaultInjector(seed=0).arm(
            "retrainer.sweep", FaultMode.KILL, probability=1.0, max_fires=1
        )
        with obs.armed(recorder=rec, metering=False), inj.installed():
            supervisor.start()
            first_worker = supervisor._worker
            deadline = time.time() + 5.0
            while (
                supervisor.stats.watchdog_restarts == 0
                and time.time() < deadline
            ):
                time.sleep(0.01)
            supervisor.stop()
        restarts = by_name(rec, "supervisor.watchdog_restart")
        assert restarts, "watchdog never fired"
        attrs = attrs_of(restarts[0])
        assert attrs["thread_id"] == first_worker.ident
        assert attrs["thread_name"] == first_worker.name


# -- fault + structure + heatmap ----------------------------------------------


class TestWiring:
    def test_fault_fire_event(self):
        rec = obs.TraceRecorder()
        reg = obs.MetricsRegistry()
        inj = FaultInjector(seed=0).arm(
            "ebh.insert", FaultMode.SKIP, probability=1.0, max_fires=2
        )
        with obs.armed(recorder=rec, registry=reg), inj.installed():
            inj.fire("ebh.insert")
            inj.fire("ebh.insert")
        first, second = by_name(rec, "fault.fire")
        assert attrs_of(first) == {"point": "ebh.insert", "mode": "skip", "sequence": 1}
        assert attrs_of(second)["sequence"] == 2
        assert reg.to_dict()["counters"]["chameleon_fault_fires_total"] == 2

    def test_sample_index_gauges_and_records(self):
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(face_like(1_200, seed=9))
        reg = obs.MetricsRegistry()
        records = sample_index(index, registry=reg)
        assert records
        gauges = reg.to_dict()["gauges"]
        assert gauges["chameleon_leaf_count"] == len(records)
        assert 0.0 < gauges["chameleon_leaf_load_factor_avg"] <= 1.0
        assert gauges["chameleon_leaf_load_factor_max"] >= gauges[
            "chameleon_leaf_load_factor_avg"
        ]
        for record in records:
            assert record["n_keys"] <= record["capacity"]

    def test_sample_index_without_registry_is_pure(self):
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(face_like(600, seed=9))
        assert sample_index(index, registry=None)
        assert metrics_mod.ACTIVE is None

    def test_leaf_heatmap_renders(self):
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(face_like(1_200, seed=11))
        for field in ("update_count", "load_factor", "n_keys"):
            art = leaf_heatmap(index, width=40, by=field)
            assert field in art and "leaves" in art
            assert len(art.splitlines()[0]) >= 40
        with pytest.raises(ValueError, match="unknown heat field"):
            leaf_heatmap(index, by="nope")

    def test_leaf_heatmap_empty_index(self):
        assert leaf_heatmap(ChameleonIndex(strategy="ChaB")) == "(index is empty)"


# -- RL trainer ---------------------------------------------------------------


class TestTrainerObservability:
    def test_episode_events_and_counter(self):
        from repro.rl.trainer import MARLTrainer

        trainer = MARLTrainer(seed=0)
        rec = obs.TraceRecorder()
        reg = obs.MetricsRegistry()
        with obs.armed(recorder=rec, registry=reg):
            report = trainer.train(
                episodes_per_round=2, max_rounds=2, tsmdp_steps_per_episode=4
            )
        episodes = by_name(rec, "rl.episode")
        assert len(episodes) == report.episodes
        assert attrs_of(episodes[0])["episode"] == 1
        assert attrs_of(episodes[-1])["n_keys"] > 0
        rounds = by_name(rec, "rl.round")
        assert len(rounds) == report.rounds
        assert len(by_name(rec, "rl.train")) == 1
        counters = reg.to_dict()["counters"]
        assert counters["chameleon_rl_episodes_total"] == report.episodes


# -- shared logger ------------------------------------------------------------


class TestLogger:
    def test_get_logger_namespacing(self):
        assert get_logger("repro.core.index").name == "repro.core.index"
        assert get_logger("bench.visualize").name == "repro.bench.visualize"
        assert get_logger().name == ROOT_LOGGER_NAME

    def test_root_has_null_handler(self):
        import logging

        root = logging.getLogger(ROOT_LOGGER_NAME)
        assert any(
            isinstance(h, logging.NullHandler) for h in root.handlers
        )
        # Emission without caller configuration must not raise or print.
        get_logger("test").warning("quiet by default")


# -- durability observability -------------------------------------------------


class TestDurabilityObservability:
    """Tolerated damage must land in the trace, and the events must not
    perturb recovery itself (the obs neutrality contract)."""

    def _damaged_dir(self, tmp_path):
        from repro.baselines import SortedArrayIndex
        from repro.robustness.durability import DurableIndex, list_snapshots

        d = tmp_path / "dur"
        with DurableIndex(SortedArrayIndex(), d, fsync="always") as durable:
            durable.bulk_load([1.0, 2.0, 3.0])
            durable.checkpoint()
            durable.insert(4.0)
            durable.insert(5.0)
        # Corrupt the snapshot (forces demotion) and tear the WAL tail
        # (forces a truncated scan).
        list_snapshots(d)[-1].write_bytes(b"garbage")
        seg = sorted((d / "wal").glob("wal-*.seg"))[-1]
        seg.write_bytes(seg.read_bytes()[:-3])
        return d

    def test_damage_events_fire_and_recovery_is_unperturbed(self, tmp_path):
        from repro.baselines import SortedArrayIndex
        from repro.robustness.durability import RecoveryManager

        d = self._damaged_dir(tmp_path)
        rec = obs.TraceRecorder()
        reg = obs.MetricsRegistry()
        with obs.armed(recorder=rec, registry=reg):
            index, report = RecoveryManager(d, SortedArrayIndex).recover()

        (demoted,) = by_name(rec, "durability.snapshot_demoted")
        assert attrs_of(demoted)["snapshot"].startswith("checkpoint-")
        assert attrs_of(demoted)["error"]
        (truncated,) = by_name(rec, "durability.scan_truncated")
        assert attrs_of(truncated)["detail"]
        assert attrs_of(truncated)["recovered_records"] >= 0
        assert report.wal_truncated and not report.used_checkpoint

        # Disarmed recovery of the same directory: identical outcome —
        # the events observe the damage, they do not change the result.
        with obs.disarmed():
            base_index, base_report = RecoveryManager(
                d, SortedArrayIndex
            ).recover()
        assert dict(base_index.items()) == dict(index.items())
        assert base_report.replayed_records == report.replayed_records
        assert base_report.failed_applies == report.failed_applies
        assert base_report.wal_detail == report.wal_detail
        assert base_index.counters == index.counters

    def test_scan_truncated_event_silent_when_disarmed(self, tmp_path):
        from repro.robustness.durability import scan

        d = self._damaged_dir(tmp_path)
        result = scan(d / "wal")  # disarmed: must not raise, no sink
        assert result.truncated
