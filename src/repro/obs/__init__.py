"""repro.obs — structured tracing and metrics across the reproduction.

Three parts (docs/observability.md is the full guide):

* :mod:`~repro.obs.trace` — span/event recorder (bounded ring buffer,
  monotonic clock, thread-aware), exportable as Chrome trace-event JSON
  (loads in Perfetto) or JSONL via :mod:`~repro.obs.export`;
* :mod:`~repro.obs.metrics` — counters/gauges/histograms with Prometheus
  text exposition and a JSON dump;
* arming discipline — everything is **disarmed by default** through the
  same module-level singleton swap the fault injector uses: hot paths read
  ``trace.ACTIVE`` / ``metrics.ACTIVE`` once and do nothing when None.
  Arm via ``REPRO_TRACE=1`` / ``REPRO_METRICS=1`` in the environment
  (read once at import) or programmatically::

      from repro import obs

      recorder = obs.arm_tracing()
      registry = obs.arm_metrics()
      ...
      obs.disarm_tracing(); obs.disarm_metrics()

      # or scoped:
      with obs.armed() as (recorder, registry):
          ...

  Instrumentation is counter-neutral: structural Counters and results are
  bit-identical armed vs. disarmed (RL013; pinned by tests/test_obs.py and
  the CI trace-smoke job).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from . import export, flight, log, metrics, slo, structure, timeline, trace
from .flight import FLIGHT_ENV, FlightRecorder
from .log import get_logger
from .metrics import METRICS_ENV, MetricsRegistry
from .slo import SLO_ENV, SloTracker
from .timeline import TimelineSampler
from .trace import TRACE_ENV, TraceRecorder

__all__ = [
    "export",
    "flight",
    "log",
    "metrics",
    "slo",
    "structure",
    "timeline",
    "trace",
    "get_logger",
    "FlightRecorder",
    "MetricsRegistry",
    "SloTracker",
    "TimelineSampler",
    "TraceRecorder",
    "TRACE_ENV",
    "METRICS_ENV",
    "FLIGHT_ENV",
    "SLO_ENV",
    "arm_tracing",
    "disarm_tracing",
    "arm_metrics",
    "disarm_metrics",
    "arm_flight",
    "disarm_flight",
    "arm_slo",
    "disarm_slo",
    "arm_from_env",
    "armed",
    "disarmed",
]


def arm_tracing(recorder: TraceRecorder | None = None) -> TraceRecorder:
    """Install ``recorder`` (or a fresh one) as the active trace sink."""
    trace.ACTIVE = recorder if recorder is not None else TraceRecorder()
    return trace.ACTIVE


def disarm_tracing() -> TraceRecorder | None:
    """Swap the no-op recorder back in; returns the previous recorder."""
    previous = trace.ACTIVE
    trace.ACTIVE = None
    return previous


def arm_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the active metrics sink."""
    metrics.ACTIVE = registry if registry is not None else MetricsRegistry()
    return metrics.ACTIVE


def disarm_metrics() -> MetricsRegistry | None:
    """Disarm metrics; returns the previous registry."""
    previous = metrics.ACTIVE
    metrics.ACTIVE = None
    return previous


def arm_flight(
    directory: str | Path,
    recorder: FlightRecorder | None = None,
) -> FlightRecorder:
    """Install a flight recorder as the active anomaly sink.

    The flight recorder needs history to dump, so trace and metrics are
    armed too if they are not already; :func:`disarm_flight` restores
    whatever this call armed on the flight recorder's behalf.
    """
    if recorder is None:
        recorder = FlightRecorder(directory)
    if trace.ACTIVE is None:
        arm_tracing()
        recorder.owns_tracing = True
    if metrics.ACTIVE is None:
        arm_metrics()
        recorder.owns_metrics = True
    flight.ACTIVE = recorder
    return recorder


def disarm_flight() -> FlightRecorder | None:
    """Disarm the flight recorder (and any sinks it armed); returns it."""
    previous = flight.ACTIVE
    flight.ACTIVE = None
    if previous is not None and previous.owns_tracing:
        disarm_tracing()
    if previous is not None and previous.owns_metrics:
        disarm_metrics()
    return previous


def arm_slo(tracker: SloTracker | None = None) -> SloTracker:
    """Install ``tracker`` (or a fresh one) as the active SLO sink."""
    slo.ACTIVE = tracker if tracker is not None else SloTracker()
    return slo.ACTIVE


def disarm_slo() -> SloTracker | None:
    """Disarm the SLO tracker; returns the previous tracker."""
    previous = slo.ACTIVE
    slo.ACTIVE = None
    return previous


def arm_from_env(
    environ: Mapping[str, str] | None = None,
) -> tuple[TraceRecorder | None, MetricsRegistry | None]:
    """Arm whichever sinks the environment requests (idempotent).

    ``REPRO_TRACE=1`` arms tracing, ``REPRO_METRICS=1`` arms metrics,
    ``REPRO_SLO=1`` arms the SLO tracker, and ``REPRO_FLIGHT=<dir>``
    arms the flight recorder (bundles land in ``<dir>``); already-armed
    sinks are left in place. Called once at import of this package, so
    ``REPRO_TRACE=1 python -m ...`` traces without any code change.
    """
    env = os.environ if environ is None else environ
    if env.get(TRACE_ENV, "") == "1" and trace.ACTIVE is None:
        arm_tracing()
    if env.get(METRICS_ENV, "") == "1" and metrics.ACTIVE is None:
        arm_metrics()
    if env.get(SLO_ENV, "") == "1" and slo.ACTIVE is None:
        arm_slo()
    flight_dir = env.get(FLIGHT_ENV, "")
    if flight_dir and flight.ACTIVE is None:
        arm_flight(flight_dir)
    return trace.ACTIVE, metrics.ACTIVE


@contextmanager
def armed(
    tracing: bool = True,
    metering: bool = True,
    recorder: TraceRecorder | None = None,
    registry: MetricsRegistry | None = None,
) -> Iterator[tuple[TraceRecorder | None, MetricsRegistry | None]]:
    """Scoped arming; restores the previous sinks on exit."""
    prev_recorder, prev_registry = trace.ACTIVE, metrics.ACTIVE
    try:
        if tracing:
            arm_tracing(recorder)
        if metering:
            arm_metrics(registry)
        yield trace.ACTIVE, metrics.ACTIVE
    finally:
        trace.ACTIVE = prev_recorder
        metrics.ACTIVE = prev_registry


@contextmanager
def disarmed() -> Iterator[None]:
    """Scoped disarming of every sink; restores them on exit."""
    prev_recorder, prev_registry = trace.ACTIVE, metrics.ACTIVE
    prev_flight, prev_slo = flight.ACTIVE, slo.ACTIVE
    trace.ACTIVE = None
    metrics.ACTIVE = None
    flight.ACTIVE = None
    slo.ACTIVE = None
    try:
        yield
    finally:
        trace.ACTIVE = prev_recorder
        metrics.ACTIVE = prev_registry
        flight.ACTIVE = prev_flight
        slo.ACTIVE = prev_slo


arm_from_env()
