"""Structural cost counters shared by every index implementation.

The paper reports nanosecond latencies measured on a C++ artifact. A Python
reproduction cannot match those absolute numbers, so every index in this
repository additionally counts the abstract operations that dominate its C++
cost. Benchmarks compare indexes on these machine-independent counters as
well as on wall-clock time; see DESIGN.md section 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar


@dataclass
class Counters:
    """Abstract-operation counters for one index instance.

    Attributes:
        node_hops: inner-node traversal steps (pointer chases).
        comparisons: key comparisons (binary/linear/exponential search work).
        model_evals: learned-model evaluations (linear, hash, kernel, spline).
        slot_probes: hash/gap-array slot inspections in leaf nodes.
        shifts: element moves caused by in-place insertion or deletion.
        splits: structural node splits.
        merges: structural node merges or compactions.
        retrains: model retraining events (any granularity).
        retrain_keys: number of keys touched by retraining work.
        buffer_ops: delta-buffer reads/writes (out-of-place designs).
        lock_acquisitions: interval/node lock acquisitions.
        lock_waits: lock acquisitions that had to wait or retry.

    Fault/recovery telemetry (populated only when a
    :class:`~repro.robustness.faults.FaultInjector` is installed or a
    :class:`~repro.robustness.supervisor.SupervisedRetrainer` is running;
    always zero on the plain query/update paths):
        faults_injected: fault-point activations, any mode.
        fault_delays: activations that injected a delay.
        fault_skips: activations that skipped the guarded operation.
        retrain_failures: retrain attempts contained after an exception.
        retrain_recoveries: supervisor transitions back to HEALTHY.
        watchdog_restarts: dead retrainer threads restarted by the watchdog.
    """

    node_hops: int = 0
    comparisons: int = 0
    model_evals: int = 0
    slot_probes: int = 0
    shifts: int = 0
    splits: int = 0
    merges: int = 0
    retrains: int = 0
    retrain_keys: int = 0
    buffer_ops: int = 0
    lock_acquisitions: int = 0
    lock_waits: int = 0
    faults_injected: int = 0
    fault_delays: int = 0
    fault_skips: int = 0
    retrain_failures: int = 0
    retrain_recoveries: int = 0
    watchdog_restarts: int = 0

    #: Counter field names in declaration order, computed once below the
    #: class: ``dataclasses.fields()`` per call dominated snapshot/restore.
    FIELD_NAMES: ClassVar[tuple[str, ...]] = ()

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in self.FIELD_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of the current counter values."""
        return {name: getattr(self, name) for name in self.FIELD_NAMES}

    def restore(self, snapshot: dict[str, int]) -> None:
        """Reset every counter to an earlier :meth:`snapshot`.

        Lets diagnostic passes (integrity validation) probe the structure
        without perturbing the cost model they run inside of. A name the
        snapshot lacks (one taken before the counter existed) becomes 0.
        """
        for name in self.FIELD_NAMES:
            setattr(self, name, snapshot.get(name, 0))

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Return per-counter deltas relative to an earlier snapshot."""
        return {
            name: getattr(self, name) - earlier.get(name, 0)
            for name in self.FIELD_NAMES
        }

    def total_search_work(self) -> int:
        """Aggregate proxy for per-lookup cost.

        Weighs the operations a lookup performs; used by the structural cost
        model when ranking indexes the way the paper's latency plots do.
        """
        return (
            self.node_hops
            + self.comparisons
            + self.model_evals
            + self.slot_probes
            + self.buffer_ops
        )

    def total_update_work(self) -> int:
        """Aggregate proxy for per-update cost (includes search work)."""
        return (
            self.total_search_work()
            + self.shifts
            + self.splits * 8
            + self.merges * 8
            + self.retrain_keys
        )

    def merge_from(self, other: "Counters") -> None:
        """Accumulate another counter set into this one."""
        for name in self.FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))


Counters.FIELD_NAMES = tuple(f.name for f in fields(Counters))


@dataclass
class CounterScope:
    """Context manager measuring the counter delta across a block.

    Example:
        with CounterScope(index.counters) as scope:
            index.lookup(key)
        cost = scope.delta["comparisons"]
    """

    counters: Counters
    delta: dict[str, int] = field(default_factory=dict)
    _before: dict[str, int] = field(default_factory=dict)

    def __enter__(self) -> "CounterScope":
        self._before = self.counters.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.delta = self.counters.diff(self._before)
