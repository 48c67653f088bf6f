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

Armed writes are cheap: ``inc`` and ``observe`` append to the
instrument's pending buffer and return; the buffer is folded into the
totals when it reaches :data:`FOLD_SIZE` values and by every read, so a
reader always sees every write made before it.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Iterable, Sequence

import numpy as np

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


#: Pending values an instrument holds before the observing thread folds
#: them into its totals; bounds each instrument's memory at 8 bytes a
#: value. A reader folds whatever is pending first, so no reader sees a
#: stale value. A fold costs a fixed ~10 us plus ~15 ns a value, paid by
#: the one operation that triggers it, so a large batch keeps folds out
#: of the p99: at 8192, about one operation in 3,000 pays one.
FOLD_SIZE = 8192


class _Folded:
    """Append-now, fold-later instrument state.

    A write is one ``array.append`` of a C double, atomic under the
    interpreter lock; no mutex, no bucket search and no retained Python
    object sit on the calling thread. A fold copies the first ``n``
    pending values and deletes exactly those ``n`` under the instrument
    mutex, so an append that races a fold stays pending for the next one
    and no update is lost.
    """

    __slots__ = ("name", "help_text", "_pending", "_mutex")

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help_text = help_text
        self._pending = array("d")
        self._mutex = threading.Lock()

    def _take(self) -> array[float]:
        """Remove and return the pending values (caller holds the mutex)."""
        pending = self._pending
        n = len(pending)
        batch = pending[:n]
        del pending[:n]
        return batch

    def _fold(self) -> None:
        with self._mutex:
            batch = self._take()
            if batch:
                self._absorb(np.frombuffer(batch, dtype=np.float64))

    def _absorb(self, values: np.ndarray) -> None:
        raise NotImplementedError


def _running_sum(start: float, values: np.ndarray) -> float:
    """``start`` plus ``values`` added left to right, as a running += would.

    ``accumulate`` adds in order (``sum`` would add pairwise); like +=, it
    turns inf + -inf into NaN without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


class CounterMetric(_Folded):
    """Monotonic counter (Prometheus ``counter``)."""

    __slots__ = ("_value",)

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pending = self._pending
        pending.append(amount)
        if len(pending) >= FOLD_SIZE:
            self._fold()

    def _absorb(self, values: np.ndarray) -> None:
        self._value = _running_sum(self._value, values)

    @property
    def value(self) -> float:
        self._fold()
        return self._value


class GaugeMetric:
    """Point-in-time value (Prometheus ``gauge``); a set is one store."""

    __slots__ = ("name", "help_text", "value")

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class HistogramMetric(_Folded):
    """Fixed-bucket histogram (Prometheus ``histogram``).

    ``bounds`` are the finite bucket upper edges; an implicit ``+Inf``
    bucket catches the tail. The folded state is per-bucket counts (not
    cumulative — exposition cumulates on the way out), a running sum, and
    the observation count; a fold buckets its batch in bulk and adds to
    the sum in observation order, so the state equals a per-value
    ``bisect_left`` loop's over the values as doubles.
    """

    __slots__ = ("bounds", "_edges", "_hits", "_total", "_count")

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        help_text: str = "",
    ) -> None:
        super().__init__(name, help_text)
        # Observability must never crash the host process: unusable
        # bounds (empty, or not coercible to float) degrade to the
        # default buckets instead of raising out of an observe() call.
        try:
            cleaned = tuple(sorted(float(b) for b in bounds))
        except (TypeError, ValueError):
            cleaned = ()
        self.bounds: tuple[float, ...] = cleaned or DEFAULT_BUCKETS
        self._edges = np.asarray(self.bounds, dtype=np.float64)
        self._hits = [0] * (len(self.bounds) + 1)  # +Inf last
        self._total = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= FOLD_SIZE:
            self._fold()

    def observe_many(self, values: Iterable[float]) -> None:
        batch = array("d", values)
        with self._mutex:
            batch = self._take() + batch
            if batch:
                self._absorb(np.frombuffer(batch, dtype=np.float64))

    def _absorb(self, values: np.ndarray) -> None:
        buckets = np.searchsorted(self._edges, values, side="left")
        # bisect_left puts NaN first (every comparison with it is false);
        # searchsorted puts it last.
        buckets[np.isnan(values)] = 0
        counts = np.bincount(buckets, minlength=len(self._hits)).tolist()
        self._hits = [h + c for h, c in zip(self._hits, counts)]
        self._total = _running_sum(self._total, values)
        self._count += len(values)

    @property
    def bucket_hits(self) -> list[int]:
        """Per-bucket counts, ``+Inf`` last."""
        self._fold()
        return self._hits

    @property
    def total(self) -> float:
        self._fold()
        return self._total

    @property
    def n_observed(self) -> int:
        self._fold()
        return self._count

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
    # An existing instrument comes from a plain dict read; the mutex guards
    # only creation, so two threads cannot create one name twice.

    def counter(self, name: str, help_text: str = "") -> CounterMetric:
        metric = self._counters.get(name)
        if metric is None:
            with self._mutex:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = CounterMetric(name, help_text)
        return metric

    def gauge(self, name: str, help_text: str = "") -> GaugeMetric:
        metric = self._gauges.get(name)
        if metric is None:
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
        metric = self._histograms.get(name)
        if metric is None:
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
