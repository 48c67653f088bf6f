"""Chaos harness: mixed workload under injected faults, verified per sweep.

``run_chaos`` drives the paper's mixed read/write workload against a
:class:`~repro.core.index.ChameleonIndex` while a seeded
:class:`~repro.robustness.faults.FaultInjector` fires raise/delay/skip
faults inside the hot paths, and a
:class:`~repro.robustness.supervisor.SupervisedRetrainer` performs guarded
retraining sweeps at a fixed operation cadence. After **every sweep** the
harness asserts the two properties that matter under failure:

* the index still answers every live-key lookup correctly, judged against
  an oracle dict maintained alongside the index (an insert aborted by an
  injected fault is absent from both — the fault-atomicity contract); and
* ``verify_integrity()`` reports zero structural violations, including
  interval-lock quiescence.

The run executes with the interval-lock debug contract layer armed
(``lock_asserts``, default True): every hot-path access is checked against
the calling thread's entry in the race detector's holder table — a
missing hold raises
:class:`~repro.core.interval_lock.LockContractViolation` and kills the
run — and the same detector records every (thread, interval, mode)
event; any query/retrain overlap it reports fails the run via
``ChaosReport.lock_protocol_violations``.

Everything is seeded, so a run replays bit-identically: same faults, same
containments, same recoveries. ``benchmarks/bench_chaos.py`` and
``tests/test_chaos.py`` are thin wrappers over this module.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..baselines.interfaces import DuplicateKeyError
from ..core.index import ChameleonIndex
from ..obs import flight as obs_flight
from ..obs import trace as obs_trace
from ..core.interval_lock import IntervalLockManager
from ..datasets import face_like
from ..workloads.mixed import read_write_workload, split_load_and_pool
from ..workloads.operations import OpKind
from .durability.wal import TornWriteError
from .faults import FaultInjector, FaultMode, InjectedFault
from .integrity import IntegrityViolation
from .supervisor import RetrainerHealth, SupervisedRetrainer

if TYPE_CHECKING:
    from .durability.durable import DurableIndex

#: Default per-point fault modes. Retraining-path points RAISE (exercising
#: containment/backoff/recovery); the lock point DELAYs (stalled waits);
#: the full rebuild SKIPs half the time it fires (shed under pressure).
#: The durability points are armed too but only draw RNG in durable runs
#: (``durability_dir`` set) — a WAL-off run never reaches them, so its
#: fault schedule is bit-identical to pre-durability seeds.
DEFAULT_FAULT_MODES: dict[str, FaultMode] = {
    "index.rebuild_subtree": FaultMode.RAISE,
    "index.rebuild_all": FaultMode.RAISE,
    "retrainer.sweep": FaultMode.RAISE,
    "interval_lock.retrain": FaultMode.DELAY,
    "ebh.insert": FaultMode.RAISE,
    "ebh.expand": FaultMode.RAISE,
    "wal.append": FaultMode.RAISE,
    "wal.short_write": FaultMode.SKIP,
    "wal.fsync": FaultMode.RAISE,
    "checkpoint.write": FaultMode.RAISE,
}


@dataclass
class ChaosConfig:
    """Knobs for one chaos run (all deterministic under ``seed``).

    Attributes:
        n_keys: dataset size (FACE-like, locally skewed).
        load_fraction: fraction bulk-loaded; the rest feeds insertions.
        n_ops: mixed-workload operations to execute.
        write_ratio: #writes / (#reads + #writes) of the stream.
        sweeps: retraining sweeps spread evenly across the run.
        fault_probability: per-call fire probability at every fault point.
        fault_modes: per-point mode override (defaults above).
        fault_delay_s: sleep for DELAY-mode points.
        update_threshold: drift threshold forwarded to the retrainer.
        full_rebuild_fraction: forwarded to the retrainer so the
            ``index.rebuild_all`` fault point is exercised too.
        strategy: index construction strategy (ChaB keeps runs fast).
        seed: master seed for dataset, workload, and injector.
        lock_asserts: arm the interval-lock debug contract layer (ledger
            asserts + race detector) for the run, regardless of the
            ``REPRO_LOCK_ASSERTS`` environment flag.
        durability_dir: when set, all writes go through a
            :class:`~repro.robustness.durability.durable.DurableIndex`
            rooted there (WAL + supervisor-triggered checkpoints), the
            WAL fault points join the storm, and the run ends with a
            recovery cross-check (recover the directory into a fresh
            index and compare against the oracle).
        wal_fsync: WAL fsync policy for durable runs.
        flight_dir: when set, a flight recorder is armed for the run
            (bundles land here), ticked every operation, and pointed at
            the index; any anomaly during the storm dumps a post-mortem
            bundle (``ChaosReport.flight_bundles``).
        inject_lock_timeout_at_sweep: when set, the harness holds query
            locks on every h-th-level interval across that sweep (0-based)
            so each drifted interval's retrain lock times out — a
            deterministic ``lock_timeout`` anomaly for flight-recorder
            tests. The sweep itself just skips the busy intervals.
    """

    n_keys: int = 3000
    load_fraction: float = 0.6
    n_ops: int = 2000
    write_ratio: float = 0.4
    sweeps: int = 20
    fault_probability: float = 0.05
    fault_modes: dict[str, FaultMode] = field(
        default_factory=lambda: dict(DEFAULT_FAULT_MODES)
    )
    fault_delay_s: float = 0.0005
    update_threshold: int = 8
    full_rebuild_fraction: float | None = 0.35
    strategy: str = "ChaB"
    seed: int = 0
    lock_asserts: bool = True
    durability_dir: str | None = None
    wal_fsync: str = "always"
    flight_dir: str | None = None
    inject_lock_timeout_at_sweep: int | None = None


@dataclass
class ChaosReport:
    """Outcome of one chaos run.

    ``ok`` is the headline: zero wrong lookups, zero integrity violations,
    and the retrainer back to HEALTHY once the faults stop.
    """

    ops_executed: int = 0
    sweeps_run: int = 0
    faults_injected: int = 0
    insert_faults: int = 0
    delete_faults: int = 0
    wal_records: int = 0
    checkpoints_triggered: int = 0
    recovery_checked: bool = False
    recovered_equal: bool = True
    contained_sweep_failures: int = 0
    failed_retrains: int = 0
    recoveries: int = 0
    wrong_lookups: int = 0
    violations: list[IntegrityViolation] = field(default_factory=list)
    lock_protocol_violations: list[str] = field(default_factory=list)
    final_health: RetrainerHealth = RetrainerHealth.HEALTHY
    lock_quiescent: bool = True
    live_keys: int = 0
    events: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    flight_bundles: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.wrong_lookups == 0
            and not self.violations
            and not self.lock_protocol_violations
            and self.lock_quiescent
            and self.recovered_equal
            and self.final_health is RetrainerHealth.HEALTHY
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        durability = (
            f", {self.wal_records} WAL records, "
            f"{self.checkpoints_triggered} checkpoints, "
            f"recovery {'OK' if self.recovered_equal else 'DIVERGED'}"
            if self.recovery_checked
            else ""
        )
        return (
            f"chaos {status}: {self.ops_executed} ops, {self.sweeps_run} sweeps, "
            f"{self.faults_injected} faults ({self.insert_faults} on inserts, "
            f"{self.delete_faults} on deletes, "
            f"{self.contained_sweep_failures} contained sweeps, "
            f"{self.failed_retrains} contained retrains), "
            f"{self.recoveries} recoveries, {self.wrong_lookups} wrong lookups, "
            f"{len(self.violations)} violations, "
            f"{len(self.lock_protocol_violations)} lock-protocol violations, "
            f"health={self.final_health.value}{durability}"
        )


def _verify(index: ChameleonIndex, expected: dict[float, float],
            report: ChaosReport, when: str) -> None:
    """Oracle lookups plus structural validation after one sweep."""
    for k, v in expected.items():
        if index.lookup(k) != v:
            report.wrong_lookups += 1
            report.events.append(f"{when}: wrong lookup for {k!r}")
    integrity = index.verify_integrity()
    for violation in integrity.violations:
        report.violations.append(violation)
        report.events.append(f"{when}: {violation}")


def _drifted_intervals(
    index: ChameleonIndex, threshold: int
) -> list[tuple[int, ...]]:
    """h-th-level interval ids whose subtrees crossed the drift threshold."""
    return [
        ids
        for ids, parent, rank in index.h_level_entries()
        if index.subtree_update_count(parent, rank) >= threshold
    ]


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Execute one seeded chaos run; see the module docstring."""
    config = config or ChaosConfig()
    flight_recorder: obs_flight.FlightRecorder | None = None
    if config.flight_dir is not None:
        from .. import obs as obs_pkg

        flight_recorder = obs_pkg.arm_flight(config.flight_dir)
    try:
        report = _run_chaos(config)
    finally:
        if flight_recorder is not None:
            from .. import obs as obs_pkg

            obs_pkg.disarm_flight()
    if flight_recorder is not None:
        report.flight_bundles = [str(path) for path in flight_recorder.bundles]
    return report


def _run_chaos(config: ChaosConfig) -> ChaosReport:
    report = ChaosReport()

    keys = face_like(config.n_keys, seed=config.seed)
    loaded, pool = split_load_and_pool(
        keys, config.load_fraction, seed=config.seed
    )
    manager = IntervalLockManager(debug_asserts=config.lock_asserts)
    index = ChameleonIndex(strategy=config.strategy, lock_manager=manager)

    durable: "DurableIndex | None" = None
    checkpoint_hook: "Callable[[int], None] | None" = None
    if config.durability_dir is not None:
        from .durability.durable import DurableIndex

        durable_index = DurableIndex(
            index, config.durability_dir, fsync=config.wal_fsync
        )
        durable = durable_index
        checkpoint_hook = lambda rebuilt: durable_index.checkpoint()  # noqa: E731

    if durable is not None:
        durable.bulk_load(loaded)
    else:
        index.bulk_load(loaded)
    if obs_flight.ACTIVE is not None:
        obs_flight.ACTIVE.watch(index)
    supervisor = SupervisedRetrainer(
        index,
        manager,
        update_threshold=config.update_threshold,
        full_rebuild_fraction=config.full_rebuild_fraction,
        seed=config.seed,
        checkpoint_hook=checkpoint_hook,
    )
    ops = read_write_workload(
        loaded, pool, config.n_ops, config.write_ratio, seed=config.seed
    )
    expected: dict[float, float] = {float(k): float(k) for k in loaded}

    injector = FaultInjector(seed=config.seed)
    for point, mode in config.fault_modes.items():
        injector.arm(
            point, mode, probability=config.fault_probability,
            delay_s=config.fault_delay_s,
        )

    sweep_every = max(1, len(ops) // max(1, config.sweeps))
    with injector.installed(), obs_trace.span("chaos.run").put("n_ops", len(ops)):
        for i, op in enumerate(ops):
            if i > 0 and i % sweep_every == 0 and report.sweeps_run < config.sweeps:
                if config.inject_lock_timeout_at_sweep == report.sweeps_run:
                    # Hold shared query locks across the sweep: every
                    # drifted interval's retrain lock must time out (the
                    # reader never drains — same thread), firing the
                    # lock_timeout anomaly deterministically.
                    with ExitStack() as stack:
                        for ids in _drifted_intervals(
                            index, config.update_threshold
                        ):
                            # ExitStack guarantees release for a dynamic
                            # number of locks; RL001 only sees the direct
                            # with-statement shape.
                            stack.enter_context(
                                manager.query_lock(ids, index.counters)  # repro-lint: disable=RL001
                            )
                        rebuilt = supervisor.sweep_once()
                else:
                    rebuilt = supervisor.sweep_once()
                report.sweeps_run += 1
                if rebuilt is None:
                    report.events.append(
                        f"sweep {report.sweeps_run}: contained failure "
                        f"({supervisor.stats.last_error})"
                    )
                _verify(index, expected, report, f"sweep {report.sweeps_run}")
            key = float(op.key)
            if op.kind is OpKind.LOOKUP:
                if index.lookup(key) != expected.get(key):
                    report.wrong_lookups += 1
                    report.events.append(f"op {i}: wrong lookup for {key!r}")
            elif op.kind is OpKind.INSERT:
                try:
                    if durable is not None:
                        durable.insert(key)
                    else:
                        index.insert(key)
                except (InjectedFault, TornWriteError):
                    # Fault-atomicity (and, durably, append rollback): the
                    # key landed in neither the index nor the log.
                    report.insert_faults += 1
                    report.events.append(f"op {i}: insert of {key!r} faulted")
                except DuplicateKeyError:
                    report.events.append(f"op {i}: duplicate insert {key!r}")
                else:
                    expected[key] = key
            elif op.kind is OpKind.DELETE:
                try:
                    if durable is not None:
                        removed = durable.delete(key)
                    else:
                        removed = index.delete(key)
                except (InjectedFault, TornWriteError):
                    # Append rollback re-inserted the key; oracle unchanged.
                    report.delete_faults += 1
                    report.events.append(f"op {i}: delete of {key!r} faulted")
                else:
                    if removed != (key in expected):
                        report.wrong_lookups += 1
                        report.events.append(
                            f"op {i}: delete of {key!r} returned {removed}, "
                            f"oracle says {key in expected}"
                        )
                    expected.pop(key, None)
            report.ops_executed += 1
            if obs_flight.ACTIVE is not None:
                obs_flight.ACTIVE.tick()

    # Faults off: the supervisor must heal. A couple of probe sweeps model
    # the daemon's cooldown retries after the failure storm passes.
    for _ in range(3):
        supervisor.sweep_once()
        if supervisor.health is RetrainerHealth.HEALTHY:
            break
    report.sweeps_run += 1
    _verify(index, expected, report, "final")

    report.faults_injected = injector.total_fires()
    report.contained_sweep_failures = supervisor.stats.sweeps_failed
    report.failed_retrains = supervisor.retrainer_stats.failed_retrains
    report.recoveries = supervisor.stats.recoveries
    report.final_health = supervisor.health
    report.lock_quiescent = manager.active_intervals() == 0
    report.lock_protocol_violations = manager.race_report()
    for violation_text in report.lock_protocol_violations:
        report.events.append(f"race detector: {violation_text}")
    if report.lock_protocol_violations and obs_flight.ACTIVE is not None:
        obs_flight.ACTIVE.trigger(
            "lock_protocol_violation",
            {"violations": list(report.lock_protocol_violations)},
        )
    report.live_keys = len(expected)
    report.counters = index.counters.snapshot()

    if durable is not None:
        # Durability cross-check: everything the oracle holds must come
        # back from disk alone. Exact equality is valid because append
        # rollback keeps memory == log for every contained fault.
        from .durability.recovery import RecoveryManager

        durable.close()
        report.wal_records = durable.last_lsn
        report.checkpoints_triggered = supervisor.stats.checkpoints_triggered
        report.recovery_checked = True
        recovered, recovery_report = RecoveryManager(
            durable.directory,
            lambda: ChameleonIndex(strategy=config.strategy),
        ).recover()
        recovered_state = dict(recovered.items())
        report.recovered_equal = (
            recovered_state == expected
            and recovery_report.failed_applies == 0
            and not recovered.verify_integrity().violations
        )
        if not report.recovered_equal:
            missing = len(set(expected) - set(recovered_state))
            extra = len(set(recovered_state) - set(expected))
            report.events.append(
                f"recovery diverged: {missing} missing, {extra} extra keys, "
                f"{recovery_report.failed_applies} failed applies "
                f"({'; '.join(recovery_report.notes[-3:])})"
            )
    if obs_flight.ACTIVE is not None:
        report.flight_bundles = [str(path) for path in obs_flight.ACTIVE.bundles]
    return report
