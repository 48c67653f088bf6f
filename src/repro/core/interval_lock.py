"""Interval Lock (Definition 4) and its lock manager.

An interval — an h-th-level node's key range — is identified by its ``IDs``
path (the child ranks from the root, computed with Eq. 1), so two threads
check whether they touch the same interval by comparing tuples, never by
interval-overlap tests (Section V-A).

Semantics follow the paper's protocol: any number of query/update threads
may hold an interval's *query lock* simultaneously (the workloads themselves
are sequential; the lock exists to fence off the retrainer), while the
*retraining lock* is exclusive — it waits for in-flight queries on the same
interval to drain and blocks new ones for the duration of the swap. Queries
on *other* intervals proceed untouched, which is what makes retraining
non-blocking overall (Fig. 7).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from types import TracebackType
from typing import Iterator

from ..baselines.counters import Counters
from ..obs import flight as obs_flight
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..robustness import faults

IntervalIds = tuple[int, ...]

#: Environment flag that arms the debug contract layer (asserts and race
#: detection over one holder table). Read at manager construction;
#: ``debug_asserts=True`` overrides per instance so tests and the chaos
#: harness can arm it without touching the environment.
LOCK_ASSERT_ENV = "REPRO_LOCK_ASSERTS"


def lock_asserts_enabled() -> bool:
    """True when ``REPRO_LOCK_ASSERTS=1`` is set in the environment."""
    return os.environ.get(LOCK_ASSERT_ENV, "") == "1"


class LockContractViolation(AssertionError):
    """A hot-path access ran without the interval lock the protocol requires.

    Subclasses AssertionError deliberately: this *is* an assertion about
    the Section V-A protocol, and test harnesses that catch assertion
    failures keep working unchanged.
    """


class RaceDetector:
    """Lockset-style recorder of (thread, interval, mode) lock events.

    The interval-lock protocol makes query/retrain overlap on one IDs path
    impossible *when every access goes through the locks*. This detector
    exists for the accesses that do not: every acquire/release/access event
    is checked against the live holder table, and any overlap the protocol
    forbids — two concurrent retrains on one interval, a query access while
    another thread retrains the same interval — is recorded as a violation.
    The chaos harness fails a run that ends with a non-empty report. The
    same table answers which modes a thread holds (:meth:`held`), for
    :meth:`IntervalLockManager.assert_interval_locked`.
    """

    #: Mode pairs (held, incoming) that may overlap on one interval.
    _COMPATIBLE = frozenset({("query", "query")})

    def __init__(self, keep_events: int = 4096) -> None:
        self._mutex = threading.Lock()
        #: ids -> {thread ident: modes held, in acquisition order}.
        self._holders: dict[IntervalIds, dict[int, list[str]]] = {}
        self._keep_events = keep_events
        self.events: list[tuple[int, IntervalIds, str, str]] = []
        self.violations: list[str] = []

    def _record(self, action: str, ids: IntervalIds, mode: str) -> None:
        if len(self.events) < self._keep_events:
            self.events.append(
                (threading.get_ident(), ids, mode, action)
            )

    def _conflicts(self, ids: IntervalIds, mode: str, action: str) -> None:
        me = threading.get_ident()
        for thread, modes in self._holders.get(ids, {}).items():
            if thread == me:
                continue
            for held in modes:
                if (held, mode) not in self._COMPATIBLE:
                    self.violations.append(
                        f"{action} in mode {mode!r} on interval {ids} by "
                        f"thread {me} overlaps {held!r} lock held by "
                        f"thread {thread} — query/retrain overlap the "
                        "interval-lock protocol forbids"
                    )

    def on_acquire(self, ids: IntervalIds, mode: str) -> None:
        with self._mutex:
            self._record("acquire", ids, mode)
            self._conflicts(ids, mode, "acquire")
            self._holders.setdefault(ids, {}).setdefault(
                threading.get_ident(), []
            ).append(mode)

    def on_release(self, ids: IntervalIds, mode: str) -> None:
        me = threading.get_ident()
        with self._mutex:
            self._record("release", ids, mode)
            per_thread = self._holders.get(ids)
            if per_thread is not None:
                modes = per_thread.get(me)
                if modes and mode in modes:
                    modes.remove(mode)
                    if not modes:
                        del per_thread[me]
                if not per_thread:
                    del self._holders[ids]

    def held(self, ids: IntervalIds) -> tuple[str, ...]:
        """Modes the calling thread holds on ``ids``, in acquisition order."""
        with self._mutex:
            return tuple(self._holders.get(ids, {}).get(threading.get_ident(), ()))

    def on_access(self, ids: IntervalIds, mode: str, where: str) -> None:
        """An instrumented hot-path access (not a lock transition)."""
        with self._mutex:
            self._record(f"access:{where}", ids, mode)
            self._conflicts(ids, mode, f"access {where!r}")

    def report(self) -> list[str]:
        with self._mutex:
            return list(self.violations)


class _IntervalState:
    """Reader/writer state for one interval.

    ``waiters`` counts the threads inside a wait loop on ``condition``
    (queries behind a retrain, retrains behind readers), so a query
    release notifies only when someone is there to wake.
    """

    __slots__ = ("readers", "retraining", "waiters", "condition")

    def __init__(self, mutex: threading.Lock) -> None:
        self.readers = 0
        self.retraining = False
        self.waiters = 0
        self.condition = threading.Condition(mutex)


class QueryHold:
    """One shared Query-Lock acquisition on an interval.

    Returned by :meth:`IntervalLockManager.query_lock` and used as a
    context manager (``with lm.query_lock(ids):``). The lock is taken on
    ``__enter__`` and released on ``__exit__``, also when the body raises.
    Its own slotted enter/exit, so a locked op pays for the protocol's two
    mutex sections, not for building and resuming a generator frame.
    Single use: every ``query_lock`` call returns a fresh hold.
    """

    __slots__ = ("_manager", "_ids", "_counters", "_state", "_rec", "_t_acq", "_waited")

    def __init__(
        self,
        manager: IntervalLockManager,
        ids: IntervalIds,
        counters: Counters | None,
    ) -> None:
        self._manager = manager
        self._ids = ids
        self._counters = counters

    def __enter__(self) -> None:
        manager = self._manager
        ids = self._ids
        # Sinks are read once per acquisition. The clock is read only for
        # what uses it: the wait histogram (a waited acquisition) and the
        # trace span, so an uncontended acquisition under metrics alone
        # reads no clock.
        rec = obs_trace.ACTIVE
        mreg = obs_metrics.ACTIVE
        t_enter = 0
        with manager._mutex:
            state = manager._state(ids)
            waited = state.retraining
            if waited:
                if rec is not None or mreg is not None:
                    t_enter = time.monotonic_ns()
                state.waiters += 1
                try:
                    while state.retraining:
                        state.condition.wait()
                finally:
                    state.waiters -= 1
            state.readers += 1
        self._state = state
        self._rec = rec
        if rec is not None or (waited and mreg is not None):
            t_acq = time.monotonic_ns()
            if mreg is not None and waited:
                mreg.observe("chameleon_lock_wait_seconds", (t_acq - t_enter) / 1e9)
            # Read back only by a trace span on release.
            self._t_acq = t_acq
            self._waited = waited
        counters = self._counters
        if counters is not None:
            counters.lock_acquisitions += 1
            if waited:
                counters.lock_waits += 1
        if manager._debug:
            manager._on_acquired(ids, "query")

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        manager = self._manager
        if manager._debug:
            manager._on_released(self._ids, "query")
        rec = self._rec
        if rec is not None:
            rec.complete(
                "lock.query", self._t_acq, {"interval": str(self._ids), "waited": self._waited}
            )
        state = self._state
        with manager._mutex:
            state.readers -= 1
            if state.readers == 0 and state.waiters:
                state.condition.notify_all()


class IntervalLockManager:
    """Registry of per-interval reader/writer locks keyed by IDs paths.

    Args:
        debug_asserts: arm the debug contract layer — a
            :class:`RaceDetector` whose holder table also backs the
            :meth:`assert_interval_locked` guards. Defaults to the
            ``REPRO_LOCK_ASSERTS=1`` environment flag; the layer costs a
            few dict operations per lock transition when armed and a
            single attribute read when not, so production paths stay at
            full speed.
    """

    def __init__(self, debug_asserts: bool | None = None) -> None:
        self._mutex = threading.Lock()
        self._states: dict[IntervalIds, _IntervalState] = {}
        self._debug = (
            lock_asserts_enabled() if debug_asserts is None else debug_asserts
        )
        self.race_detector = RaceDetector() if self._debug else None

    @property
    def debug_asserts(self) -> bool:
        """Whether the debug contract layer is armed on this manager."""
        return self._debug

    def _state(self, ids: IntervalIds) -> _IntervalState:
        state = self._states.get(ids)
        if state is None:
            state = _IntervalState(self._mutex)
            self._states[ids] = state
        return state

    def query_lock(
        self, ids: IntervalIds, counters: Counters | None = None
    ) -> QueryHold:
        """Shared Query-Lock on an interval, as a single-use :class:`QueryHold`.

        Blocks only while the same interval is being retrained; concurrent
        queries on the interval (and everything on other intervals) pass.
        Nothing is taken until the hold is entered (``with`` or
        ``ExitStack.enter_context``).
        """
        return QueryHold(self, tuple(ids), counters)

    @contextmanager
    def retrain_lock(
        self,
        ids: IntervalIds,
        counters: Counters | None = None,
        timeout: float | None = None,
    ) -> Iterator[bool]:
        """Exclusive Retraining-Lock on an interval.

        Waits for the interval's in-flight queries to finish (bounded by
        ``timeout`` when given). Yields True when acquired; yields False on
        timeout, in which case the caller must skip the retrain.

        ``timeout`` is a *deadline* on total blocking, not a per-wait
        budget: every release of the interval's last reader notifies a
        waiting retrainer, so a per-wait timeout would restart the clock on
        each wakeup and a stream of short queries could block the retrainer
        indefinitely. The wait loop therefore recomputes the remaining time
        against a ``time.monotonic()`` deadline.

        Unlike :meth:`query_lock` this stays a ``@contextmanager``
        generator: it runs once per swept entry, next to a subtree rebuild
        that costs orders of magnitude more than the generator frame, and
        one straight-line body keeps the deadline loop readable.
        """
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("interval_lock.retrain", counters)
        ids = tuple(ids)
        rec = obs_trace.ACTIVE
        mreg = obs_metrics.ACTIVE
        armed = rec is not None or mreg is not None
        # As in a query hold, the clock is read only for a waited acquisition
        # or an armed trace span.
        t_enter = 0
        acquired = False
        waited = False
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._mutex:
            state = self._state(ids)
            state.waiters += 1
            try:
                while state.retraining or state.readers > 0:
                    if not waited and armed:
                        t_enter = time.monotonic_ns()
                    waited = True
                    if deadline is None:
                        state.condition.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0 or not state.condition.wait(timeout=remaining):
                        break
                else:
                    state.retraining = True
                    acquired = True
            finally:
                state.waiters -= 1
        t_acq = time.monotonic_ns() if armed and (waited or rec is not None) else 0
        if acquired:
            if mreg is not None and waited:
                mreg.observe("chameleon_lock_wait_seconds", (t_acq - t_enter) / 1e9)
        elif rec is not None:
            rec.event("lock.retrain_timeout", {"interval": str(ids)})
        if not acquired and obs_flight.ACTIVE is not None:
            # Anomaly: a retrain could not drain its readers in time. The
            # trigger rides after the trace event so the bundle's ring
            # already contains it; dedupe/suppression happens inside.
            obs_flight.ACTIVE.trigger("lock_timeout", {"interval": str(ids)})
        if counters is not None:
            counters.lock_acquisitions += 1
            if waited:
                counters.lock_waits += 1
        if self._debug and acquired:
            self._on_acquired(ids, "retrain")
        try:
            yield acquired
        finally:
            if acquired:
                if self._debug:
                    self._on_released(ids, "retrain")
                if rec is not None:
                    rec.complete(
                        "lock.retrain", t_acq, {"interval": str(ids), "waited": waited}
                    )
                with self._mutex:
                    state.retraining = False
                    state.condition.notify_all()

    # -- debug contract layer -------------------------------------------------

    def _on_acquired(self, ids: IntervalIds, mode: str) -> None:
        assert self.race_detector is not None
        self.race_detector.on_acquire(ids, mode)

    def _on_released(self, ids: IntervalIds, mode: str) -> None:
        assert self.race_detector is not None
        self.race_detector.on_release(ids, mode)

    def assert_interval_locked(
        self, ids: IntervalIds, mode: str = "query", where: str = ""
    ) -> None:
        """Guard: the calling thread must hold ``ids`` in ``mode`` (or better).

        A no-op unless the debug contract layer is armed (see
        ``REPRO_LOCK_ASSERTS``). When armed, the access is recorded with
        the race detector and checked against the calling thread's entry
        in its holder table; a missing hold raises
        :class:`LockContractViolation`. ``mode`` ``"query"`` is satisfied
        by a retrain hold too — the exclusive lock fences the interval at
        least as strongly as the shared one.
        """
        detector = self.race_detector
        if detector is None:
            return
        ids = tuple(ids)
        detector.on_access(ids, mode, where or "access")
        held = detector.held(ids)
        satisfied = mode in held or (mode == "query" and "retrain" in held)
        if not satisfied:
            raise LockContractViolation(
                f"{where or 'hot-path access'}: interval {ids} accessed in "
                f"mode {mode!r} without holding its "
                f"{'query' if mode == 'query' else 'retraining'} lock "
                f"(thread holds: {held or 'nothing'}) — Section V-A "
                "requires every swap-boundary access to hold the "
                "interval's lock"
            )

    def held_modes(self, ids: IntervalIds) -> tuple[str, ...]:
        """Lock modes the calling thread holds on ``ids`` (debug only)."""
        if self.race_detector is None:
            return ()
        return self.race_detector.held(tuple(ids))

    def race_report(self) -> list[str]:
        """Protocol-overlap violations recorded so far ([] when disarmed)."""
        if self.race_detector is None:
            return []
        return self.race_detector.report()

    def is_retraining(self, ids: IntervalIds) -> bool:
        """True while the interval holds a retraining lock (for tests)."""
        with self._mutex:
            state = self._states.get(tuple(ids))
            return bool(state and state.retraining)

    def active_intervals(self) -> int:
        """Number of intervals with any holder (diagnostics)."""
        with self._mutex:
            return sum(
                1
                for s in self._states.values()
                if s.readers > 0 or s.retraining
            )

    def stuck_intervals(self) -> list[tuple[IntervalIds, tuple[int, bool]]]:
        """Intervals that are not quiescent, as ``(ids, (readers, retraining))``.

        An idle system must return [] — a leftover ``retraining=True`` or a
        phantom reader count means a lock leaked through an exception path.
        Consumed by ``ChameleonIndex.verify_integrity``.
        """
        with self._mutex:
            return [
                (ids, (s.readers, s.retraining))
                for ids, s in self._states.items()
                if s.readers > 0 or s.retraining
            ]
