"""Counters, gauges, and histograms with Prometheus text exposition.

Same arming discipline as :mod:`repro.obs.trace`: hot paths guard on the
module-level :data:`ACTIVE` registry being non-None, so disarmed code pays
one attribute load and a pointer comparison — no instrument lookups, no
allocation. These instruments are *observability* state, deliberately
separate from the structural :class:`~repro.baselines.counters.Counters`
cost model: observing a value never touches the shared Counters, and the
instrumented sites never let metric work change what the cost model counts
(the RL013 neutrality contract, pinned by tests/test_obs.py).

The registry knows the canonical Chameleon instruments (probe length,
descent depth, lock waits, retrain cost units, per-leaf gauges) so call
sites can observe by name without carrying bucket layouts around; unknown
names are created on first use with default buckets.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterable, Sequence

#: Environment flag that arms metrics at import of :mod:`repro.obs`.
METRICS_ENV = "REPRO_METRICS"

#: Fallback histogram buckets (powers of two — probe/depth shaped).
DEFAULT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Canonical histograms: name -> (bucket upper bounds, help text).
KNOWN_HISTOGRAMS: dict[str, tuple[tuple[float, ...], str]] = {
    "chameleon_probe_length_slots": (
        (1, 2, 4, 8, 16, 32, 64, 128),
        "EBH slots inspected per lookup (scalar and batch paths)",
    ),
    "chameleon_descent_depth_levels": (
        (1, 2, 3, 4, 6, 8, 12, 16),
        "Inner-node levels walked per point lookup",
    ),
    "chameleon_lock_wait_seconds": (
        (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
        "Time blocked acquiring an interval lock (waited acquisitions only)",
    ),
    "chameleon_retrain_cost_units": (
        (1e2, 1e3, 1e4, 1e5, 1e6, 1e7),
        "Structural-cost units (total_update_work delta) per subtree rebuild",
    ),
    "chameleon_fsync_seconds": (
        (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
        "WAL fsync latency per sync (policy always: one per append)",
    ),
    "chameleon_checkpoint_seconds": (
        (1e-3, 1e-2, 1e-1, 1.0, 10.0),
        "End-to-end checkpoint duration (snapshot + manifest + truncation)",
    ),
    "chameleon_recovery_seconds": (
        (1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0),
        "Crash-recovery duration (checkpoint restore + WAL tail replay)",
    ),
}


class CounterMetric:
    """Monotonic counter (Prometheus ``counter``)."""

    __slots__ = ("name", "help_text", "value", "_mutex")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self.value = 0.0
        self._mutex = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._mutex:
            self.value += amount


class GaugeMetric:
    """Point-in-time value (Prometheus ``gauge``)."""

    __slots__ = ("name", "help_text", "value", "_mutex")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self.value = 0.0
        self._mutex = threading.Lock()

    def set(self, value: float) -> None:
        with self._mutex:
            self.value = float(value)


class HistogramMetric:
    """Fixed-bucket histogram (Prometheus ``histogram``).

    ``bounds`` are the finite bucket upper edges; an implicit ``+Inf``
    bucket catches the tail. Observation keeps per-bucket counts (not
    cumulative — exposition cumulates on the way out), a running sum, and
    the observation count.
    """

    __slots__ = ("name", "help_text", "bounds", "bucket_hits", "total", "n_observed", "_mutex")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        help_text: str = "",
    ) -> None:
        self.name = name
        self.help_text = help_text
        # Observability must never crash the host process: unusable
        # bounds (empty, or not coercible to float) degrade to the
        # default buckets instead of raising out of an observe() call.
        try:
            cleaned = tuple(sorted(float(b) for b in bounds))
        except (TypeError, ValueError):
            cleaned = ()
        self.bounds: tuple[float, ...] = cleaned or DEFAULT_BUCKETS
        self.bucket_hits = [0] * (len(self.bounds) + 1)  # +Inf last
        self.total = 0.0
        self.n_observed = 0
        self._mutex = threading.Lock()

    def observe(self, value: float) -> None:
        with self._mutex:
            self.bucket_hits[bisect_left(self.bounds, value)] += 1
            self.total += value
            self.n_observed += 1

    def observe_many(self, values: Iterable[float]) -> None:
        with self._mutex:
            bounds = self.bounds
            hits = self.bucket_hits
            for value in values:
                hits[bisect_left(bounds, value)] += 1
                self.total += value
                self.n_observed += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        edges = (*self.bounds, float("inf"))
        for edge, hits in zip(edges, self.bucket_hits):
            running += hits
            out.append((edge, running))
        return out


class MetricsRegistry:
    """Named instruments with JSON dump and Prometheus text exposition."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._counters: dict[str, CounterMetric] = {}
        self._gauges: dict[str, GaugeMetric] = {}
        self._histograms: dict[str, HistogramMetric] = {}

    # -- instrument access (get-or-create) ----------------------------------

    def counter(self, name: str, help_text: str = "") -> CounterMetric:
        with self._mutex:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = CounterMetric(name, help_text)
            return metric

    def gauge(self, name: str, help_text: str = "") -> GaugeMetric:
        with self._mutex:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = GaugeMetric(name, help_text)
            return metric

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] | None = None,
        help_text: str = "",
    ) -> HistogramMetric:
        with self._mutex:
            metric = self._histograms.get(name)
            if metric is None:
                if bounds is None:
                    known_bounds, known_help = KNOWN_HISTOGRAMS.get(
                        name, (DEFAULT_BUCKETS, help_text)
                    )
                    bounds = known_bounds
                    help_text = help_text or known_help
                metric = self._histograms[name] = HistogramMetric(name, bounds, help_text)
            return metric

    # -- one-call observation shorthands ------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        self.histogram(name).observe_many(values)

    # -- exposition ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dump consumed by bench/baseline.py and visualize."""
        with self._mutex:
            return {
                "counters": {n: m.value for n, m in sorted(self._counters.items())},
                "gauges": {n: m.value for n, m in sorted(self._gauges.items())},
                "histograms": {
                    n: {
                        "buckets": [
                            [edge, count] for edge, count in m.cumulative_buckets()
                        ],
                        "sum": m.total,
                        "count": m.n_observed,
                    }
                    for n, m in sorted(self._histograms.items())
                },
            }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4) of every instrument."""
        lines: list[str] = []
        with self._mutex:
            for name, counter in sorted(self._counters.items()):
                if counter.help_text:
                    lines.append(f"# HELP {name} {counter.help_text}")
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_fmt(counter.value)}")
            for name, gauge in sorted(self._gauges.items()):
                if gauge.help_text:
                    lines.append(f"# HELP {name} {gauge.help_text}")
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_fmt(gauge.value)}")
            for name, hist in sorted(self._histograms.items()):
                if hist.help_text:
                    lines.append(f"# HELP {name} {hist.help_text}")
                lines.append(f"# TYPE {name} histogram")
                for edge, cumulative in hist.cumulative_buckets():
                    le = "+Inf" if edge == float("inf") else _fmt(edge)
                    lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
                lines.append(f"{name}_sum {_fmt(hist.total)}")
                lines.append(f"{name}_count {hist.n_observed}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Float formatting without losing int-ness (``3`` not ``3.0``)."""
    return str(int(value)) if float(value).is_integer() else repr(float(value))


#: The armed registry, or None (disarmed — the default). Swapped by
#: :func:`repro.obs.arm_metrics` / :func:`repro.obs.disarm_metrics`.
ACTIVE: MetricsRegistry | None = None
