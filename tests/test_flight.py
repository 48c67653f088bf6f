"""Tests for the flight recorder: triggers, bundles, arming, neutrality.

The contracts pinned here are the ISSUE-10 acceptance criteria:

* every wired anomaly source fires **exactly one** bundle (per-reason
  dedupe; storms are counted, not dumped);
* a bundle is self-contained and valid — its trace passes the Chrome
  trace validator and its metrics parse under the strict Prometheus
  parser;
* disarmed, the flight recorder writes nothing and the trigger guard
  allocates nothing;
* arming the full stack leaves structural Counters and results
  bit-identical to a disarmed run (RL013 extended to the new sinks).
"""

from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from repro import obs
from repro.bench.floors import _run_obs_workload, full_telemetry
from repro.core import ChameleonIndex, IntervalLockManager
from repro.datasets import face_like
from repro.obs import flight as flight_mod
from repro.obs import metrics as metrics_mod
from repro.obs import slo as slo_mod
from repro.obs import trace as trace_mod
from repro.obs.export import parse_prometheus, validate_chrome_trace
from repro.robustness import FaultInjector, FaultMode, SupervisedRetrainer
from repro.robustness.chaos import ChaosConfig, run_chaos
from repro.robustness.durability import (
    OP_INSERT,
    DurableIndex,
    RecoveryManager,
    WriteAheadLog,
    list_segments,
    read_manifest,
    scan,
)


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


def assert_bundle_valid(bundle, reason):
    """A bundle must be self-contained: valid trace, parseable metrics."""
    assert bundle.is_dir()
    assert bundle.name.endswith(reason)
    trace_doc = json.loads((bundle / "trace.json").read_text())
    assert validate_chrome_trace(trace_doc) == []
    # Strict parse must succeed; families may be empty when the anomaly
    # fired before any metric was touched.
    parse_prometheus((bundle / "metrics.prom").read_text())
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["schema"] == "repro-flight-bundle/v1"
    assert manifest["reason"] == reason
    assert (bundle / "trace.jsonl").exists()
    json.loads((bundle / "structure.json").read_text())
    json.loads((bundle / "snapshots.json").read_text())
    return manifest


class TestFlightRecorder:
    def test_disarmed_trigger_writes_nothing(self, tmp_path):
        out = tmp_path / "flight"
        with obs.disarmed():
            assert flight_mod.trigger("lock_timeout", {"x": 1}) is None
            flight_mod.tick()
        recorder = obs.FlightRecorder(out)
        # Construction alone must not touch the filesystem either.
        assert not out.exists()
        assert recorder.bundles == []

    def test_trigger_dedupes_per_reason_and_validates(self, tmp_path):
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(face_like(1200, seed=2))
        with obs.armed() as (_, registry):
            recorder = obs.FlightRecorder(tmp_path, snapshot_every_s=0.0)
            recorder.watch(index)
            index.lookup(float(face_like(1200, seed=2)[0]))
            registry.inc("chameleon_probe_total")
            recorder.tick()
            first = recorder.trigger("lock_timeout", {"interval": "(0, 1)"})
            repeat = recorder.trigger("lock_timeout")
            other = recorder.trigger("retrain_failure")
        assert first is not None and other is not None
        assert repeat is None  # dedupe: first fire per reason only
        assert recorder.fired() == {"lock_timeout": 2, "retrain_failure": 1}
        assert recorder.bundles == [first, other]
        manifest = assert_bundle_valid(first, "lock_timeout")
        assert manifest["detail"] == {"interval": "(0, 1)"}
        assert manifest["trace_events"] > 0
        assert parse_prometheus((first / "metrics.prom").read_text())
        assert_bundle_valid(other, "retrain_failure")
        structures = json.loads((first / "structure.json").read_text())
        assert structures and structures[0]["leaves"]
        snapshots = json.loads((first / "snapshots.json").read_text())
        assert snapshots and "counters" in snapshots[0]["metrics"]
        assert recorder.errors == []

    def test_every_known_trigger_fires_exactly_once(self, tmp_path):
        with obs.armed():
            recorder = obs.FlightRecorder(tmp_path)
            for reason in flight_mod.KNOWN_TRIGGERS:
                assert recorder.trigger(reason) is not None
                assert recorder.trigger(reason) is None
        assert len(recorder.bundles) == len(flight_mod.KNOWN_TRIGGERS)

    def test_max_bundles_caps_distinct_reasons(self, tmp_path):
        with obs.armed():
            recorder = obs.FlightRecorder(tmp_path, max_bundles=2)
            assert recorder.trigger("a") is not None
            assert recorder.trigger("b") is not None
            assert recorder.trigger("c") is None  # cap reached
        assert len(recorder.bundles) == 2

    def test_arm_flight_owns_and_restores_sinks(self, tmp_path):
        assert trace_mod.ACTIVE is None and metrics_mod.ACTIVE is None
        recorder = obs.arm_flight(tmp_path)
        assert flight_mod.ACTIVE is recorder
        assert recorder.owns_tracing and recorder.owns_metrics
        assert trace_mod.ACTIVE is not None and metrics_mod.ACTIVE is not None
        assert obs.disarm_flight() is recorder
        assert flight_mod.ACTIVE is None
        assert trace_mod.ACTIVE is None and metrics_mod.ACTIVE is None

    def test_arm_from_env(self, tmp_path):
        obs.arm_from_env({"REPRO_FLIGHT": str(tmp_path)})
        try:
            assert flight_mod.ACTIVE is not None
            assert flight_mod.ACTIVE.directory == tmp_path
        finally:
            obs.disarm_flight()


class TestWiredTriggers:
    def test_chaos_lock_timeout_fires_exactly_one_valid_bundle(self, tmp_path):
        """ISSUE-10 acceptance: seeded chaos run with an injected
        lock-timeout anomaly produces exactly one flight bundle."""
        config = ChaosConfig(
            n_keys=1500,
            n_ops=800,
            sweeps=8,
            fault_probability=0.0,
            update_threshold=4,
            seed=7,
            flight_dir=str(tmp_path),
            inject_lock_timeout_at_sweep=3,
        )
        report = run_chaos(config)
        assert len(report.flight_bundles) == 1
        (bundle_str,) = report.flight_bundles
        bundle = tmp_path / bundle_str.rsplit("/", 1)[-1]
        assert_bundle_valid(bundle, "lock_timeout")
        # The harness disarms on exit and the run stayed correct.
        assert flight_mod.ACTIVE is None
        assert report.wrong_lookups == 0

    def test_retrain_failure_trigger(self, tmp_path):
        manager = IntervalLockManager()
        index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
        index.bulk_load(face_like(1500, seed=5))
        supervisor = SupervisedRetrainer(index, manager, update_threshold=8)
        obs.arm_flight(tmp_path)
        try:
            inj = FaultInjector(seed=0).arm(
                "retrainer.sweep", FaultMode.RAISE, probability=1.0
            )
            with inj.installed():
                assert supervisor.sweep_once() is None
                assert supervisor.sweep_once() is None  # storm: suppressed
            recorder = flight_mod.ACTIVE
            assert len(recorder.bundles) == 1
            assert recorder.fired()["retrain_failure"] == 2
            manifest = assert_bundle_valid(
                recorder.bundles[0], "retrain_failure"
            )
            assert "InjectedFault" in manifest["detail"]["error"]
        finally:
            obs.disarm_flight()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_watchdog_restart_trigger(self, tmp_path):
        manager = IntervalLockManager()
        index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
        keys = face_like(2500, seed=5)
        index.bulk_load(keys[:1500])
        for k in keys[1500:1900]:
            index.insert(float(k))
        supervisor = SupervisedRetrainer(
            index, manager, update_threshold=8, seed=5,
            period_s=0.01, watchdog_period_s=0.02,
        )
        obs.arm_flight(tmp_path)
        try:
            inj = FaultInjector(seed=0).arm(
                "retrainer.sweep", FaultMode.KILL, probability=1.0, max_fires=1
            )
            with inj.installed():
                supervisor.start()
                deadline = time.time() + 5.0
                while (
                    supervisor.stats.watchdog_restarts == 0
                    and time.time() < deadline
                ):
                    time.sleep(0.01)
            supervisor.stop()
            recorder = flight_mod.ACTIVE
            assert supervisor.stats.watchdog_restarts >= 1
            assert len(recorder.bundles) == 1
            assert_bundle_valid(recorder.bundles[0], "watchdog_restart")
        finally:
            obs.disarm_flight()

    def test_wal_scan_truncated_trigger(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir, fsync="always") as wal:
            for i in range(8):
                wal.append_record(OP_INSERT, (float(i), float(i)))
        seg = list_segments(wal_dir)[0]
        buf = bytearray(seg.read_bytes())
        buf[-3] ^= 0xFF  # corrupt the final frame's tail
        seg.write_bytes(bytes(buf))
        obs.arm_flight(tmp_path / "flight")
        try:
            result = scan(wal_dir)
            assert result.truncated
            recorder = flight_mod.ACTIVE
            assert len(recorder.bundles) == 1
            manifest = assert_bundle_valid(
                recorder.bundles[0], "wal_scan_truncated"
            )
            assert manifest["detail"]["recovered_records"] == len(result.records)
        finally:
            obs.disarm_flight()

    def test_recovery_fallback_trigger(self, tmp_path):
        base = tmp_path / "dur"
        durable = DurableIndex(
            ChameleonIndex(strategy="ChaB"), base, fsync="always"
        )
        durable.bulk_load(face_like(400, seed=3))
        durable.checkpoint()
        durable.close()
        manifest = read_manifest(base)
        (base / manifest.snapshot).unlink()  # damage: named snapshot gone
        obs.arm_flight(tmp_path / "flight")
        try:
            index, report = RecoveryManager(
                base, lambda: ChameleonIndex(strategy="ChaB")
            ).recover()
            recorder = flight_mod.ACTIVE
            assert len(recorder.bundles) == 1
            bundle_manifest = assert_bundle_valid(
                recorder.bundles[0], "recovery_fallback"
            )
            assert (
                bundle_manifest["detail"]["missing_snapshot"]
                == manifest.snapshot
            )
            assert len(list(index.items())) == 400  # WAL replay still whole
        finally:
            obs.disarm_flight()


class TestNeutrality:
    def test_armed_flight_counters_bit_identical(self, tmp_path):
        keys = face_like(2000, seed=9)
        with obs.disarmed():
            _, plain_counters, plain_results = _run_obs_workload(keys, 600, 0)
        obs.arm_flight(tmp_path)
        try:
            _, armed_counters, armed_results = _run_obs_workload(keys, 600, 0)
        finally:
            obs.disarm_flight()
        assert plain_counters == armed_counters
        assert plain_results == armed_results

    def test_full_telemetry_stack_bit_identical_and_quiet(self, tmp_path):
        """Trace, metrics, a 5 ms timeline sampler, SLO windows and the
        flight recorder, all armed over the locked mixed workload."""
        keys = face_like(2000, seed=9)
        with obs.disarmed():
            _, plain_counters, plain_results = _run_obs_workload(keys, 600, 0)
        with full_telemetry(tmp_path) as (sampler, flight):
            _, armed_counters, armed_results = _run_obs_workload(keys, 600, 0)
        assert plain_counters == armed_counters
        assert plain_results == armed_results
        assert sampler.errors == []
        assert sampler.samples > 0
        assert flight.bundles == []
        assert list(tmp_path.iterdir()) == []

    def test_disarmed_tick_and_trigger_allocate_nothing(self):
        for _ in range(1_000):  # warm-up: interning, caches
            flight_mod.tick()
            flight_mod.trigger("warm")
        iterations = 20_000
        steps = range(iterations)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in steps:
            flight_mod.tick()
            flight_mod.trigger("x")
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert (after - before) / iterations < 1.0
