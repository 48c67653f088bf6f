"""Span/event tracing with a bounded ring buffer and a no-op disarmed path.

The recorder follows the module-level singleton-swap pattern the fault
injector established (:mod:`repro.robustness.faults`): hot paths read
:data:`ACTIVE` once and do nothing when it is None. Disarmed call sites pay
one module-attribute load plus a pointer comparison — :func:`span` returns
a cached singleton whose ``__enter__``/``__exit__``/``put`` methods are
no-ops taking only positional arguments, so no tuple, dict, or span object
is allocated per operation (a tracemalloc micro-bench in
``tests/test_obs.py`` asserts this).

Armed, every span becomes one Chrome-trace "complete" event — name, start,
duration on the monotonic clock (``time.monotonic_ns``), recording thread —
appended to a ``collections.deque(maxlen=capacity)`` ring buffer. The
append is a single atomic deque operation, so recording is thread-safe
without a lock on the hot path; when the ring is full the oldest event is
evicted and :attr:`TraceRecorder.dropped` counts the loss instead of the
buffer growing without bound.

Instrumentation discipline (see docs/observability.md): attribute values
attached to spans/events must be computed *only when armed* (guard with
``if trace.ACTIVE is not None``) or already exist — the disarmed path must
not stringify, allocate, or touch structural Counters (RL013 neutrality).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from types import TracebackType
from typing import Any

#: Environment flag that arms tracing at import of :mod:`repro.obs`.
TRACE_ENV = "REPRO_TRACE"

#: One recorded event: (name, phase, t_rel_ns, dur_ns, tid, attrs).
TraceEvent = tuple[str, str, int, int, int, "dict[str, Any] | None"]


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disarmed.

    A single module-level instance (:data:`NULL_SPAN`) is reused for every
    disarmed :func:`span` call; its methods allocate nothing and return
    immediately.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False

    def put(self, key: str, value: Any) -> "_NullSpan":
        """Discard an attribute (no-op counterpart of :meth:`_Span.put`)."""
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records one complete ("X") event when it exits."""

    __slots__ = ("_recorder", "name", "_t0", "_attrs")

    def __init__(self, recorder: "TraceRecorder", name: str) -> None:
        self._recorder = recorder
        self.name = name
        self._attrs: dict[str, Any] | None = None
        self._t0 = time.monotonic_ns()

    def put(self, key: str, value: Any) -> "_Span":
        """Attach one attribute to the span (shown under ``args``)."""
        if self._attrs is None:
            self._attrs = {}
        self._attrs[key] = value
        return self

    def __enter__(self) -> "_Span":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        t0 = self._t0
        self._recorder.record(self.name, "X", t0, time.monotonic_ns() - t0, self._attrs)
        return False


#: Either span flavour — what :func:`span` returns.
Span = _NullSpan | _Span


class TraceRecorder:
    """Bounded, thread-aware span/event recorder.

    Args:
        capacity: ring-buffer size in events; the oldest events are evicted
            (and counted in :attr:`dropped`) once the buffer is full.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._events: deque[TraceEvent] = deque(maxlen=self.capacity)
        self.dropped = 0
        #: Recorder epoch on the monotonic clock; timestamps are relative.
        self.t0_ns = time.monotonic_ns()
        self._thread_names: dict[int, str] = {}

    # -- recording ----------------------------------------------------------

    def record(
        self,
        name: str,
        phase: str,
        t_ns: int,
        dur_ns: int,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        """Append one event (``t_ns`` absolute monotonic; stored relative)."""
        tid = threading.get_ident()
        if tid not in self._thread_names:
            self._thread_names[tid] = threading.current_thread().name
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append((name, phase, t_ns - self.t0_ns, dur_ns, tid, attrs))

    def span(self, name: str) -> _Span:
        """Start a span bound to this recorder (see module-level :func:`span`)."""
        return _Span(self, name)

    def event(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        """Record an instant event at the current time."""
        self.record(name, "i", time.monotonic_ns(), 0, attrs)

    def complete(self, name: str, start_ns: int, attrs: dict[str, Any] | None = None) -> None:
        """Record a complete event spanning ``start_ns`` (absolute) to now."""
        now = time.monotonic_ns()
        self.record(name, "X", start_ns, now - start_ns, attrs)

    # -- reading ------------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._events)

    def thread_names(self) -> dict[int, str]:
        """Thread ident -> name for every thread that recorded here."""
        return dict(self._thread_names)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


#: The armed recorder, or None (disarmed — the default). Swapped by
#: :func:`repro.obs.arm_tracing` / :func:`repro.obs.disarm_tracing`.
ACTIVE: TraceRecorder | None = None


def span(name: str) -> Span:
    """A span on the armed recorder, or the shared no-op when disarmed.

    Usable directly as a context manager::

        with trace.span("index.lookup"):
            ...

    and chainable with :meth:`put` for attributes whose values already
    exist (no computation on the disarmed path)::

        with trace.span("index.lookup_batch").put("n", m):
            ...
    """
    recorder = ACTIVE
    if recorder is None:
        return NULL_SPAN
    return _Span(recorder, name)


def event(name: str, attrs: dict[str, Any] | None = None) -> None:
    """Record an instant event on the armed recorder (no-op when disarmed)."""
    recorder = ACTIVE
    if recorder is not None:
        recorder.event(name, attrs)
