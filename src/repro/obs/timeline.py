"""Time-series telemetry: a background sampler over the metrics registry.

Chameleon's premise is that *local* skew moves; a single metrics scrape or
one `leaf_heatmap` cannot show that. :class:`TimelineSampler` runs on its
own daemon thread (or synchronously via :meth:`sample_once` for
deterministic tests) and records **delta-encoded** frames of the armed
registry — counter increments and changed gauge values only, so a quiet
series costs nothing per frame — plus periodic per-leaf heat snapshots of
a watched index for the hotspot-drift figure
(:func:`repro.bench.visualize.leaf_heatmap_timeline`).

Exports: :meth:`to_json` (frames verbatim), :meth:`to_csv` (long-format
``t_rel_ns,kind,name,value`` rows), and :meth:`chrome_counter_events` —
Chrome trace ``"C"`` counter events that merge into the existing Perfetto
trace so counters render as tracks under the spans.

Discipline: sampling reads observability state only — never structural
Counters (RL013) — and the sampler thread is plain ``threading``.
Public surfaces are ``no_raise``: a sample that races a concurrent tree
mutation drops the frame instead of taking down the host.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any

from ..analysis.contracts import declared_contract
from . import metrics as metrics_mod
from .log import get_logger
from .structure import sample_index

_logger = get_logger("obs.timeline")


class TimelineSampler:
    """Delta-encoded time-series of registry counters/gauges + leaf heat.

    Args:
        registry: registry to sample; defaults to the armed
            :data:`repro.obs.metrics.ACTIVE` at each sample.
        index: optional Chameleon-shaped index; every ``leaf_every``-th
            frame also records its per-leaf structure (heat snapshot).
        interval_s: sampling period of the background thread.
        capacity: frame ring size (oldest evicted, counted in
            :attr:`dropped`).
        leaf_every: take a leaf-heat snapshot every N-th frame (0 = never).
    """

    def __init__(
        self,
        registry: metrics_mod.MetricsRegistry | None = None,
        index: Any = None,
        *,
        interval_s: float = 0.05,
        capacity: int = 4096,
        leaf_every: int = 10,
    ) -> None:
        self.registry = registry
        self.index = index
        self.interval_s = float(interval_s)
        self.leaf_every = int(leaf_every)
        self._frames: deque[dict[str, Any]] = deque(maxlen=max(1, capacity))
        self._leaf_frames: deque[tuple[int, list[dict[str, Any]]]] = deque(
            maxlen=max(1, capacity)
        )
        self._last_counters: dict[str, float] = {}
        self._last_gauges: dict[str, float] = {}
        self._t0_ns = time.monotonic_ns()
        self._mutex = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        #: Frames taken (including any later evicted from the ring).
        self.samples = 0
        #: Frames evicted from the ring because it was full.
        self.dropped = 0
        #: Contained internal failures (``repr`` strings); never raised.
        self.errors: list[str] = []

    # -- sampling ------------------------------------------------------------

    @declared_contract("no_raise")
    def sample_once(self) -> dict[str, Any] | None:
        """Take one frame now; returns it (or None when nothing to sample).

        Safe to call concurrently with the workload: a sample that loses a
        race (e.g. walking leaves mid-rebuild) is dropped, not raised.
        """
        try:
            registry = self.registry if self.registry is not None else metrics_mod.ACTIVE
            if registry is None:
                return None
            t_rel_ns = time.monotonic_ns() - self._t0_ns
            dump = registry.to_dict()
            flat: dict[str, float] = dict(dump["counters"])
            for name, hist in dump["histograms"].items():
                flat[f"{name}_count"] = float(hist["count"])
                flat[f"{name}_sum"] = float(hist["sum"])
            with self._mutex:
                deltas = {
                    name: value - self._last_counters.get(name, 0.0)
                    for name, value in flat.items()
                    if value != self._last_counters.get(name, 0.0)
                }
                gauges = {
                    name: value
                    for name, value in dump["gauges"].items()
                    if self._last_gauges.get(name) != value
                }
                self._last_counters = flat
                self._last_gauges = dict(dump["gauges"])
                frame = {"t_rel_ns": t_rel_ns, "counters": deltas, "gauges": gauges}
                if len(self._frames) == self._frames.maxlen:
                    self.dropped += 1
                self._frames.append(frame)
                self.samples += 1
                want_leaves = (
                    self.index is not None
                    and self.leaf_every > 0
                    and (self.samples - 1) % self.leaf_every == 0
                )
            if want_leaves:
                records = sample_index(self.index, registry=registry)
                with self._mutex:
                    self._leaf_frames.append((t_rel_ns, records))
            return frame
        except Exception as exc:
            self._note(exc)
            return None

    @declared_contract("no_raise")
    def start(self) -> None:
        """Start the background sampler thread (idempotent)."""
        try:
            with self._mutex:
                if self._thread is not None:
                    return
                self._stop = threading.Event()
                self._thread = threading.Thread(
                    target=self._run, name="repro-timeline", daemon=True
                )
                thread = self._thread
            thread.start()
        except Exception as exc:
            self._note(exc)

    @declared_contract("no_raise")
    def stop(self, timeout: float = 2.0) -> None:
        """Stop the background thread and take one final frame."""
        try:
            with self._mutex:
                thread = self._thread
                self._thread = None
            if thread is None:
                return
            self._stop.set()
            thread.join(timeout)
            self.sample_once()
        except Exception as exc:
            self._note(exc)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def _note(self, exc: Exception) -> None:
        try:
            self.errors.append(repr(exc))
            _logger.warning("timeline sampler suppressed: %r", exc)
        except Exception:
            return

    # -- reading -------------------------------------------------------------

    def frames(self) -> list[dict[str, Any]]:
        """Snapshot of the delta frames, oldest first."""
        with self._mutex:
            return list(self._frames)

    def leaf_frames(self) -> list[tuple[int, list[dict[str, Any]]]]:
        """Leaf-heat snapshots, oldest first: ``(t_rel_ns, records)``."""
        with self._mutex:
            return list(self._leaf_frames)

    def series_names(self) -> tuple[list[str], list[str]]:
        """``(counter_names, gauge_names)`` seen across all frames."""
        counters: set[str] = set()
        gauges: set[str] = set()
        for frame in self.frames():
            counters.update(frame["counters"])
            gauges.update(frame["gauges"])
        return sorted(counters), sorted(gauges)

    def counter_series(self, name: str) -> list[tuple[int, float]]:
        """Cumulative ``(t_rel_ns, value)`` series for one counter."""
        out: list[tuple[int, float]] = []
        running = 0.0
        for frame in self.frames():
            running += frame["counters"].get(name, 0.0)
            out.append((frame["t_rel_ns"], running))
        return out

    def gauge_series(self, name: str) -> list[tuple[int, float]]:
        """Sampled ``(t_rel_ns, value)`` series for one gauge (held flat)."""
        out: list[tuple[int, float]] = []
        current: float | None = None
        for frame in self.frames():
            if name in frame["gauges"]:
                current = frame["gauges"][name]
            if current is not None:
                out.append((frame["t_rel_ns"], current))
        return out

    # -- exports -------------------------------------------------------------

    def to_json(self) -> str:
        """Self-describing JSON document of the full timeline."""
        doc = {
            "schema": "repro-timeline/v1",
            "interval_s": self.interval_s,
            "samples": self.samples,
            "dropped": self.dropped,
            "frames": self.frames(),
            "leaf_frames": [
                {"t_rel_ns": t, "leaves": records} for t, records in self.leaf_frames()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        """Long-format CSV: ``t_rel_ns,kind,name,value`` (counters are deltas)."""
        lines = ["t_rel_ns,kind,name,value"]
        for frame in self.frames():
            t = frame["t_rel_ns"]
            for name, value in sorted(frame["counters"].items()):
                lines.append(f"{t},counter_delta,{name},{metrics_mod._fmt(value)}")
            for name, value in sorted(frame["gauges"].items()):
                lines.append(f"{t},gauge,{name},{metrics_mod._fmt(value)}")
        return "\n".join(lines) + "\n"

    def chrome_counter_events(self, pid: int = 1) -> list[dict[str, Any]]:
        """Chrome trace ``"C"`` counter events for every sampled series.

        Counters are emitted as cumulative running totals (the natural
        counter track); gauges as their sampled values. Merge into a
        recorder document with
        ``repro.obs.export.chrome_trace(recorder, extra_events=...)``.
        """
        events: list[dict[str, Any]] = []
        running: dict[str, float] = {}
        for frame in self.frames():
            ts = frame["t_rel_ns"] / 1_000.0
            for name, delta in frame["counters"].items():
                running[name] = running.get(name, 0.0) + delta
                events.append(
                    {
                        "name": name,
                        "cat": "repro",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": running[name]},
                    }
                )
            for name, value in frame["gauges"].items():
                events.append(
                    {
                        "name": name,
                        "cat": "repro",
                        "ph": "C",
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {"value": value},
                    }
                )
        return events
