"""Sliding-window latency SLOs: p50/p95/p99 over lookup/insert/delete.

The async front door (ROADMAP) needs *recent* tail latency — a process-
lifetime histogram dilutes a regression that started seconds ago. The
:class:`SloTracker` keeps a ring of fixed-width time windows per
operation kind, each a fixed-bucket latency histogram; quantiles merge
the live window with the ring and interpolate inside the winning bucket,
so memory stays O(windows x buckets) while the estimate tracks the last
``window_s * windows`` seconds only.

Arming follows the :data:`ACTIVE` singleton-swap pattern: the index hot
paths read ``slo.ACTIVE`` once per operation and skip the clock reads
entirely when disarmed (``REPRO_SLO=1`` or :func:`repro.obs.arm_slo`
arms it). Observation is ``no_raise`` and touches no structural Counters
(RL013).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any

from ..analysis.contracts import declared_contract
from . import metrics as metrics_mod

#: Environment flag that arms the SLO tracker at import of :mod:`repro.obs`.
SLO_ENV = "REPRO_SLO"

#: Operation kinds instrumented in :class:`~repro.core.index.ChameleonIndex`.
DEFAULT_KINDS = ("lookup", "insert", "delete")

#: Latency bucket upper edges in seconds (sub-us to 1 s, ~log-spaced).
DEFAULT_BOUNDS: tuple[float, ...] = (
    1e-6,
    2e-6,
    5e-6,
    1e-5,
    2e-5,
    5e-5,
    1e-4,
    2e-4,
    5e-4,
    1e-3,
    2e-3,
    5e-3,
    1e-2,
    2e-2,
    5e-2,
    1e-1,
    2.5e-1,
    5e-1,
    1.0,
)

#: Quantiles exposed as gauges by :meth:`SloTracker.publish`.
PUBLISHED_QUANTILES = (0.50, 0.95, 0.99)


class _Window:
    """One time window: per-bucket hit counts for one operation kind."""

    __slots__ = ("index", "hits", "count")

    def __init__(self, index: int, n_buckets: int) -> None:
        self.index = index
        self.hits = [0] * n_buckets
        self.count = 0


class SloTracker:
    """Windowed latency quantiles per operation kind.

    Args:
        window_s: width of one window in seconds.
        windows: closed windows retained (the live window rides on top, so
            quantiles cover up to ``window_s * (windows + 1)`` seconds).
        bounds: histogram bucket upper edges in seconds (+Inf implied).
        kinds: operation kinds tracked; unknown kinds are created on
            first observation.
    """

    def __init__(
        self,
        *,
        window_s: float = 1.0,
        windows: int = 10,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        kinds: tuple[str, ...] = DEFAULT_KINDS,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.window_s = float(window_s)
        self.windows = max(1, int(windows))
        self.bounds: tuple[float, ...] = tuple(sorted(float(b) for b in bounds)) or DEFAULT_BOUNDS
        self._n_buckets = len(self.bounds) + 1  # +Inf tail
        self._window_ns = int(self.window_s * 1e9)
        self._t0_ns = time.monotonic_ns()
        self._mutex = threading.Lock()
        self._live: dict[str, _Window] = {}
        self._closed: dict[str, deque[_Window]] = {}
        for kind in kinds:
            self._live[kind] = _Window(0, self._n_buckets)
            self._closed[kind] = deque(maxlen=self.windows)
        #: Observations recorded over the tracker's lifetime, per kind.
        self.observed: dict[str, int] = {kind: 0 for kind in kinds}
        #: Contained internal failures (``repr`` strings); never raised.
        self.errors: list[str] = []

    # -- recording -----------------------------------------------------------

    @declared_contract("no_raise")
    def observe(self, kind: str, dur_ns: int) -> None:
        """Record one operation latency (nanoseconds). Never raises."""
        try:
            now_index = (time.monotonic_ns() - self._t0_ns) // self._window_ns
            seconds = dur_ns / 1e9
            bucket = bisect_left(self.bounds, seconds)
            with self._mutex:
                live = self._live.get(kind)
                if live is None:
                    live = self._live[kind] = _Window(now_index, self._n_buckets)
                    self._closed[kind] = deque(maxlen=self.windows)
                    self.observed[kind] = 0
                if now_index > live.index:
                    if live.count:
                        self._closed[kind].append(live)
                    live = self._live[kind] = _Window(now_index, self._n_buckets)
                live.hits[bucket] += 1
                live.count += 1
                self.observed[kind] += 1
        except Exception as exc:
            self._note(exc)

    def _note(self, exc: Exception) -> None:
        try:
            self.errors.append(repr(exc))
        except Exception:
            return

    # -- reading -------------------------------------------------------------

    def _merged(self, kind: str) -> tuple[list[int], int]:
        """Merged bucket hits + total count across live and retained windows."""
        with self._mutex:
            live = self._live.get(kind)
            if live is None:
                return [0] * self._n_buckets, 0
            horizon = (time.monotonic_ns() - self._t0_ns) // self._window_ns - self.windows
            merged = list(live.hits)
            total = live.count
            for window in self._closed[kind]:
                if window.index < horizon:
                    continue  # aged out of the sliding horizon
                for i, hits in enumerate(window.hits):
                    merged[i] += hits
                total += window.count
            return merged, total

    def quantile(self, kind: str, q: float) -> float | None:
        """Latency quantile ``q`` in seconds over the sliding horizon.

        Linear interpolation inside the winning bucket; ``None`` when no
        observations fall inside the horizon.
        """
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        merged, total = self._merged(kind)
        if total == 0:
            return None
        target = max(1, math.ceil(q * total))
        edges = (*self.bounds, self.bounds[-1])  # +Inf bucket clamps to last edge
        cumulative = 0
        lower = 0.0
        for edge, hits in zip(edges, merged):
            if hits and cumulative + hits >= target:
                fraction = (target - cumulative) / hits
                return lower + fraction * (edge - lower)
            cumulative += hits
            lower = edge
        return self.bounds[-1]

    def window_count(self, kind: str) -> int:
        """Observations inside the current sliding horizon."""
        return self._merged(kind)[1]

    def kinds(self) -> list[str]:
        with self._mutex:
            return sorted(self._live)

    def snapshot(self) -> dict[str, dict[str, float | int | None]]:
        """All published quantiles + window counts, per kind."""
        out: dict[str, dict[str, float | int | None]] = {}
        for kind in self.kinds():
            row: dict[str, float | int | None] = {
                f"p{int(q * 100)}_seconds": self.quantile(kind, q) for q in PUBLISHED_QUANTILES
            }
            row["window_ops"] = self.window_count(kind)
            out[kind] = row
        return out

    # -- exposition ----------------------------------------------------------

    @declared_contract("no_raise")
    def publish(self, registry: metrics_mod.MetricsRegistry | None = None) -> None:
        """Export quantile gauges (``chameleon_slo_<kind>_p99_seconds``...).

        Writes into ``registry`` or the armed metrics sink; silently does
        nothing when both are absent. Never raises.
        """
        try:
            registry = registry if registry is not None else metrics_mod.ACTIVE
            if registry is None:
                return
            for kind, row in self.snapshot().items():
                for name, value in row.items():
                    if value is None:
                        continue
                    registry.set_gauge(f"chameleon_slo_{kind}_{name}", float(value))
        except Exception as exc:
            self._note(exc)


#: The armed SLO tracker, or None (disarmed — the default). Swapped by
#: :func:`repro.obs.arm_slo` / :func:`repro.obs.disarm_slo`.
ACTIVE: SloTracker | None = None


@declared_contract("no_raise")
def observe(kind: str, dur_ns: int) -> None:
    """Record a latency on the armed tracker (no-op when disarmed)."""
    tracker = ACTIVE
    if tracker is not None:
        tracker.observe(kind, dur_ns)


def snapshot() -> dict[str, Any]:
    """Quantile snapshot of the armed tracker ({} when disarmed)."""
    tracker = ACTIVE
    return {} if tracker is None else dict(tracker.snapshot())
