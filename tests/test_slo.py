"""Tests for sliding-window SLO quantiles and their index wiring."""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from collections import deque

import pytest

from repro import obs
from repro.core import ChameleonIndex
from repro.datasets import face_like
from repro.obs import flight as flight_mod
from repro.obs import metrics as metrics_mod
from repro.obs import slo as slo_mod
from repro.obs import trace as trace_mod
from repro.obs.export import parse_prometheus


@pytest.fixture(autouse=True)
def no_leaked_sinks():
    yield
    assert trace_mod.ACTIVE is None
    assert metrics_mod.ACTIVE is None
    assert flight_mod.ACTIVE is None
    assert slo_mod.ACTIVE is None
    trace_mod.ACTIVE = None
    metrics_mod.ACTIVE = None
    flight_mod.ACTIVE = None
    slo_mod.ACTIVE = None


MS = 1_000_000  # ns


class TestQuantiles:
    def test_empty_tracker_has_no_quantiles(self):
        tracker = obs.SloTracker()
        assert tracker.quantile("lookup", 0.99) is None
        assert tracker.window_count("lookup") == 0
        assert tracker.snapshot()["lookup"]["p99_seconds"] is None

    def test_quantiles_bracket_the_observed_latencies(self):
        tracker = obs.SloTracker()
        for _ in range(95):
            tracker.observe("lookup", 1 * MS)  # 1 ms
        for _ in range(5):
            tracker.observe("lookup", 80 * MS)  # 80 ms tail
        p50 = tracker.quantile("lookup", 0.50)
        p99 = tracker.quantile("lookup", 0.99)
        assert 0.0005 <= p50 <= 0.002
        assert 0.05 <= p99 <= 0.1
        assert p50 <= tracker.quantile("lookup", 0.95) <= p99

    def test_quantile_validates_q(self):
        tracker = obs.SloTracker()
        with pytest.raises(ValueError):
            tracker.quantile("lookup", 0.0)
        with pytest.raises(ValueError):
            tracker.quantile("lookup", 1.0)

    def test_unknown_kind_created_on_first_observe(self):
        tracker = obs.SloTracker()
        tracker.observe("scan", 2 * MS)
        assert "scan" in tracker.kinds()
        assert tracker.window_count("scan") == 1

    def test_overflow_bucket_clamps_to_last_edge(self):
        tracker = obs.SloTracker()
        tracker.observe("lookup", int(30e9))  # 30 s: beyond every bound
        assert tracker.quantile("lookup", 0.99) == tracker.bounds[-1]

    def test_window_rotation_ages_out_old_observations(self):
        tracker = obs.SloTracker(window_s=0.02, windows=2)
        tracker.observe("lookup", 50 * MS)
        assert tracker.window_count("lookup") == 1
        # Past the horizon (live + 2 retained windows) the old hit ages out.
        time.sleep(0.1)
        tracker.observe("lookup", 1 * MS)
        assert tracker.window_count("lookup") == 1
        assert tracker.quantile("lookup", 0.99) < 0.01
        assert tracker.errors == []

    def test_kind_no_longer_observed_ages_out(self):
        tracker = obs.SloTracker(window_s=0.02, windows=2)
        tracker.observe("delete", 50 * MS)
        assert tracker.window_count("delete") == 1
        # Nothing new arrives, so the window holding the hit stays the
        # newest one: it must still age out once past the horizon.
        time.sleep(0.15)
        assert tracker.window_count("delete") == 0
        assert tracker.quantile("delete", 0.99) is None
        assert tracker.observed["delete"] == 1
        assert tracker.errors == []

    def test_publish_exports_gauges(self):
        tracker = obs.SloTracker()
        for _ in range(10):
            tracker.observe("lookup", 1 * MS)
        registry = obs.MetricsRegistry()
        tracker.publish(registry)
        text = registry.to_prometheus()
        families = parse_prometheus(text)
        assert "chameleon_slo_lookup_p99_seconds" in families
        assert "chameleon_slo_lookup_window_ops" in families

    def test_publish_without_registry_is_noop(self):
        tracker = obs.SloTracker()
        tracker.observe("lookup", 1 * MS)
        tracker.publish()  # no armed registry: silently nothing
        assert tracker.errors == []


class _FakeClock:
    """Stands in for the ``time`` module that :mod:`repro.obs.slo` reads."""

    def __init__(self) -> None:
        self.now_ns = 5_000_000_000

    def monotonic_ns(self) -> int:
        return self.now_ns


class _ReferenceTracker:
    """The windowing algorithm the tracker had before its windows became
    metric histograms: per kind, a live window plus a ring of the last
    ``windows`` closed non-empty ones; each value lands in
    ``bisect_left(bounds, seconds)`` of the window of its clock read."""

    def __init__(self, clock: _FakeClock, window_s: float, windows: int) -> None:
        self.clock = clock
        self.window_ns = int(window_s * 1e9)
        self.windows = windows
        self.t0 = clock.now_ns
        self.bounds = slo_mod.DEFAULT_BOUNDS
        self.live: dict[str, list] = {}  # kind -> [index, hits]
        self.closed: dict[str, deque] = {}

    def _now(self) -> int:
        return (self.clock.now_ns - self.t0) // self.window_ns

    def observe(self, kind: str, dur_ns: int) -> None:
        now = self._now()
        live = self.live.get(kind)
        if live is None:
            live = self.live[kind] = [now, [0] * (len(self.bounds) + 1)]
            self.closed[kind] = deque(maxlen=self.windows)
        if now > live[0]:
            if sum(live[1]):
                self.closed[kind].append(live)
            live = self.live[kind] = [now, [0] * (len(self.bounds) + 1)]
        live[1][bisect_left(self.bounds, dur_ns / 1e9)] += 1

    def merged(self, kind: str) -> list[int]:
        live = self.live.get(kind)
        if live is None:
            return [0] * (len(self.bounds) + 1)
        horizon = self._now() - self.windows
        merged = list(live[1])
        for index, hits in self.closed[kind]:
            if index >= horizon:
                merged = [m + h for m, h in zip(merged, hits)]
        return merged


class TestWindowsMatchReference:
    def test_three_window_boundaries(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(slo_mod, "time", clock)
        window_ns = 20 * MS
        tracker = obs.SloTracker(window_s=0.02, windows=2)
        ref = _ReferenceTracker(clock, 0.02, 2)
        rng = random.Random(7)
        durations = [0, 1, 999, 1_000, 1_001, 50 * MS, 30 * 10**9] + [
            int(b * 1e9) for b in slo_mod.DEFAULT_BOUNDS
        ]
        start = clock.now_ns
        checked = 0
        # Four windows' worth of time: three boundaries crossed, reads
        # interleaved with the writes, with "scan" appearing mid-run.
        while clock.now_ns < start + 4 * window_ns - MS:
            kinds = ("lookup", "insert")
            if clock.now_ns > start + window_ns:
                kinds += ("delete", "scan")
            kind = rng.choice(kinds)
            dur = rng.choice(durations) if rng.random() < 0.3 else rng.randint(0, 3 * MS)
            tracker.observe(kind, dur)
            ref.observe(kind, dur)
            clock.now_ns += rng.randint(0, 200_000)
            if rng.random() < 0.05:
                checked += 1
                for k in ref.live:
                    merged = ref.merged(k)
                    assert tracker.window_count(k) == sum(merged)
                    for q in (0.5, 0.9, 0.99):
                        got = tracker.quantile(k, q)
                        if sum(merged) == 0:
                            assert got is None
                        else:
                            assert got == _reference_quantile(merged, q)
        assert checked > 20
        assert (clock.now_ns - start) // window_ns == 3
        assert tracker.errors == []


def _reference_quantile(merged: list[int], q: float) -> float:
    bounds = slo_mod.DEFAULT_BOUNDS
    target = max(1, math.ceil(q * sum(merged)))
    cumulative, lower = 0, 0.0
    for edge, hits in zip((*bounds, bounds[-1]), merged):
        if hits and cumulative + hits >= target:
            return lower + (target - cumulative) / hits * (edge - lower)
        cumulative += hits
        lower = edge
    return bounds[-1]


class TestIndexWiring:
    def test_armed_index_ops_are_observed(self):
        keys = face_like(1500, seed=4)
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys[:1000])
        tracker = obs.arm_slo()
        try:
            for k in keys[:50]:
                index.lookup(float(k))
            for k in keys[1000:1020]:
                index.insert(float(k))
            for k in keys[1000:1010]:
                index.delete(float(k))
        finally:
            assert obs.disarm_slo() is tracker
        assert tracker.observed["lookup"] == 50
        assert tracker.observed["insert"] == 20
        assert tracker.observed["delete"] == 10
        assert tracker.quantile("lookup", 0.5) is not None

    def test_disarmed_index_observes_nothing(self):
        keys = face_like(800, seed=4)
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys)
        with obs.disarmed():
            index.lookup(float(keys[0]))
        assert slo_mod.ACTIVE is None

    def test_slo_arming_is_counter_neutral(self):
        keys = face_like(1500, seed=4)

        def run():
            index = ChameleonIndex(strategy="ChaB")
            index.bulk_load(keys[:1000])
            before = index.counters.snapshot()
            out = [index.lookup(float(k)) for k in keys[:200]]
            for k in keys[1000:1050]:
                index.insert(float(k))
            return out, index.counters.diff(before)

        with obs.disarmed():
            plain_out, plain_counters = run()
        tracker = obs.arm_slo()
        try:
            armed_out, armed_counters = run()
        finally:
            obs.disarm_slo()
        assert plain_out == armed_out
        assert plain_counters == armed_counters
        assert tracker.observed["lookup"] == 200

    def test_module_observe_routes_to_armed_tracker(self):
        slo_mod.observe("lookup", 5 * MS)  # disarmed: no-op, no raise
        tracker = obs.arm_slo()
        try:
            slo_mod.observe("lookup", 5 * MS)
            assert slo_mod.snapshot()["lookup"]["window_ops"] == 1
        finally:
            obs.disarm_slo()
        assert slo_mod.snapshot() == {}

    def test_arm_from_env(self):
        obs.arm_from_env({"REPRO_SLO": "1"})
        try:
            assert slo_mod.ACTIVE is not None
        finally:
            obs.disarm_slo()
