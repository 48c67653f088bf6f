"""Background non-blocking retraining (Section V).

A daemon thread wakes every ``retrain_period_s`` (paper: 10 s) and rebuilds
drifted h-th-level subtrees with TSMDP under the interval's Retraining-Lock.
Queries on other intervals never block; queries on the interval being
swapped wait only for the swap itself.

Drift detection follows the writes, not the index size. Attaching a
retrainer makes the index record every written leaf in one pending set
(seeded by one full scan); each sweep drains that set, resolves the marks
to their h-th-level intervals, and sums the leaf update counters only
there. An interval at or above the threshold is rebuilt and its counters
reset. One skipped on a lock timeout, one whose rebuild failed, and any not
reached before :meth:`RetrainingThread.stop` keep their marks for the next
sweep; one below the threshold drops them, since only a later write — which
marks it again — can push it over.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..robustness import faults
from .index import ChameleonIndex
from .interval_lock import IntervalLockManager
from .node import InnerNode, LeafNode, walk_leaves


@dataclass
class RetrainerStats:
    """Aggregate retraining telemetry.

    Attributes:
        passes: retraining sweeps performed.
        retrained_intervals: subtrees rebuilt.
        retrained_keys: total keys touched by rebuilds.
        skipped_busy: intervals skipped because their lock was contended.
        failed_retrains: rebuild attempts contained after an exception; the
            subtree's update counters are left intact so the next sweep
            retries.
        total_retrain_seconds: wall-clock time inside rebuilds.
    """

    passes: int = 0
    retrained_intervals: int = 0
    retrained_keys: int = 0
    skipped_busy: int = 0
    failed_retrains: int = 0
    full_rebuilds: int = 0
    total_retrain_seconds: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class RetrainingThread(threading.Thread):
    """Periodic TSMDP retrainer guarded by interval locks.

    Args:
        index: the live :class:`ChameleonIndex`. Its ``lock_manager`` must
            be the same instance passed here (or None on the index, in
            which case retraining still locks but queries won't; only do
            that in single-threaded tests).
        lock_manager: the shared interval-lock manager.
        period_s: sweep period; defaults to the index config.
        update_threshold: updates within an interval before it is considered
            drifted; defaults to the index config.
        lock_timeout_s: how long to wait for a busy interval before skipping
            it until the next sweep.
    """

    def __init__(
        self,
        index: ChameleonIndex,
        lock_manager: IntervalLockManager,
        period_s: float | None = None,
        update_threshold: int | None = None,
        lock_timeout_s: float = 0.05,
        full_rebuild_fraction: float | None = None,
    ) -> None:
        super().__init__(daemon=True, name="chameleon-retrainer")
        self.index = index
        self.lock_manager = lock_manager
        self.period_s = (
            index.config.retrain_period_s if period_s is None else float(period_s)
        )
        self.update_threshold = (
            index.config.retrain_update_threshold
            if update_threshold is None
            else int(update_threshold)
        )
        self.lock_timeout_s = float(lock_timeout_s)
        #: When set (e.g. 0.5), a sweep whose accumulated updates exceed
        #: this fraction of the live key count triggers a *full* DARE
        #: reconstruction (Section V's Limitations). The root swap is
        #: atomic for concurrent *readers*; a workload thread must not be
        #: mid-update during the swap, so only enable this when updates
        #: are issued from the thread that also calls sweep_once, or are
        #: quiesced around sweeps (the paper's workloads are sequential).
        self.full_rebuild_fraction = full_rebuild_fraction
        self.stats = RetrainerStats()
        self._stop_event = threading.Event()
        index.track_drift()

    # -- lifecycle ------------------------------------------------------------

    def run(self) -> None:
        while not self._stop_event.wait(self.period_s):
            self.sweep_once()

    def stop(self, join: bool = True, join_timeout_s: float = 5.0) -> None:
        """Signal the thread to exit (and join it by default).

        A wedged thread — still alive after the join timeout, e.g. stuck
        under a lock another thread never releases — is surfaced with a
        RuntimeWarning instead of returning silently.
        """
        self._stop_event.set()
        if join and self.is_alive():
            self.join(timeout=join_timeout_s)
            if self.is_alive():
                warnings.warn(
                    f"{self.name} did not exit within {join_timeout_s:.1f}s "
                    "of stop(); the thread appears wedged",
                    RuntimeWarning,
                    stacklevel=2,
                )

    # -- one sweep --------------------------------------------------------------

    def sweep_once(self) -> int:
        """Drain the index's drift set once; rebuild the drifted intervals.

        Returns the number of intervals rebuilt. Usable synchronously in
        tests and benches without starting the thread. Only intervals
        holding a leaf written since they were last checked are summed at
        all, most recently written first.

        A rebuild that raises is *contained*: the failure is recorded in
        ``stats.failed_retrains`` (and the shared counters), the subtree's
        update counters stay intact and its marks go back into the set, so
        the next sweep simply retries — one poisoned interval cannot kill
        the daemon or starve the healthy ones. Failures outside the
        per-interval scope (e.g. an injected ``retrainer.sweep`` fault)
        still propagate; the
        :class:`~repro.robustness.supervisor.SupervisedRetrainer` is the
        layer that handles those.
        """
        if faults.ACTIVE is not None and faults.ACTIVE.fire(
            "retrainer.sweep", self.index.counters
        ):
            return 0
        with obs_trace.span("retrainer.sweep") as sweep_span:
            rebuilt = 0
            with self.stats._lock:
                self.stats.passes += 1
            if (
                self.full_rebuild_fraction is not None
                and self.index.updates_since_build
                > self.full_rebuild_fraction * max(1, len(self.index))
            ):
                units0 = (
                    self.index.counters.total_update_work()
                    if obs_metrics.ACTIVE is not None or obs_trace.ACTIVE is not None
                    else 0
                )
                started = time.perf_counter()
                try:
                    keys = self.index.rebuild_all()
                except Exception:
                    self._record_failure()
                    return 0
                with self.stats._lock:
                    self.stats.full_rebuilds += 1
                    self.stats.retrained_keys += keys
                    self.stats.total_retrain_seconds += time.perf_counter() - started
                self._observe_rebuild("retrainer.full_rebuild", None, keys, units0)
                sweep_span.put("rebuilt", 1)
                return 1
            # An entry counts as settled once checked; the marks of every
            # unsettled one — left when the loop stops, or when an exception
            # escapes it — go back into the set below.
            entries = self.index.pop_drifted()
            settled = 0
            carry: list[LeafNode] = []
            try:
                for ids, parent, rank, marks in entries:
                    if self._stop_event.is_set():
                        break
                    if self.index.subtree_update_count(parent, rank) >= self.update_threshold:
                        if self._retrain(ids, parent, rank):
                            rebuilt += 1
                        else:
                            carry.extend(marks)
                    settled += 1
            finally:
                for _, _, _, marks in entries[settled:]:
                    carry.extend(marks)
                self.index.mark_drifted(carry)
            sweep_span.put("rebuilt", rebuilt)
            return rebuilt

    def _retrain(self, ids: tuple[int, ...], parent: InnerNode, rank: int) -> bool:
        """Rebuild one drifted interval; False when skipped or failed."""
        units0 = (
            self.index.counters.total_update_work()
            if obs_metrics.ACTIVE is not None or obs_trace.ACTIVE is not None
            else 0
        )
        try:
            with self.lock_manager.retrain_lock(
                ids, self.index.counters, timeout=self.lock_timeout_s
            ) as acquired:
                if not acquired:
                    with self.stats._lock:
                        self.stats.skipped_busy += 1
                    return False
                started = time.perf_counter()
                keys = self.index.rebuild_subtree(parent, rank, ids=ids)
                elapsed = time.perf_counter() - started
                self._reset_update_counts(parent, rank)
        except Exception:
            self._record_failure()
            return False
        with self.stats._lock:
            self.stats.retrained_intervals += 1
            self.stats.retrained_keys += keys
            self.stats.total_retrain_seconds += elapsed
        self._observe_rebuild("retrainer.rebuild", ids, keys, units0)
        return True

    def _observe_rebuild(
        self, name: str, ids: tuple[int, ...] | None, keys: int, units0: int
    ) -> None:
        """Publish one rebuild's structural cost (armed sinks only).

        Retrain duration is reported in structural-cost *units* — the delta
        of ``Counters.total_update_work()`` across the rebuild — so traces
        compare runs on the two-currency model, not the wall clock.
        """
        if obs_metrics.ACTIVE is None and obs_trace.ACTIVE is None:
            return
        units = self.index.counters.total_update_work() - units0
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe("chameleon_retrain_cost_units", units)
        if obs_trace.ACTIVE is not None:
            attrs: dict[str, Any] = {"keys": keys, "cost_units": units}
            if ids is not None:
                attrs["interval"] = str(ids)
            obs_trace.ACTIVE.event(name, attrs)

    def _record_failure(self) -> None:
        with self.stats._lock:
            self.stats.failed_retrains += 1
        self.index.counters.retrain_failures += 1

    def _reset_update_counts(self, parent: InnerNode, rank: int) -> None:
        child = parent.children[rank]
        if child is None:
            return
        for leaf in walk_leaves(child):
            leaf.update_count = 0
