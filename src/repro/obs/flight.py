"""Flight recorder: always-cheap rings that dump a post-mortem on anomaly.

The flight recorder keeps the last few seconds of history — the trace
ring's recent spans/events plus periodic metric snapshots — and writes a
self-contained **post-mortem bundle** to disk the first time an anomaly
trigger fires: lock timeout, watchdog restart, retrain failure, WAL scan
truncation, recovery fallback, or a chaos lock-protocol violation (see
docs/observability.md for the full trigger table).

Arming discipline matches :mod:`repro.obs.trace`: the module-level
:data:`ACTIVE` singleton is ``None`` by default and every trigger site
reads it once — the disarmed path is one attribute load plus a pointer
comparison, allocating nothing (a tracemalloc micro-bench in
``tests/test_flight.py`` pins it, as ``tests/test_obs.py`` does the null
span path). Arm via
``REPRO_FLIGHT=<dir>`` in the environment or
:func:`repro.obs.arm_flight`.

Containment contract: a diagnostics layer must never take down the host
process, so every public surface here is ``@declared_contract("no_raise")``
— the whole body runs under ``except Exception`` and failures land in
:attr:`FlightRecorder.errors` instead of escaping (RL012 proves this on
every CI run). Nothing touches structural Counters (RL013).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

from ..analysis.contracts import declared_contract
from . import export as export_mod
from . import metrics as metrics_mod
from . import trace as trace_mod
from .log import get_logger
from .structure import sample_index

#: Environment variable that arms the flight recorder at import of
#: :mod:`repro.obs`; its value is the bundle output directory.
FLIGHT_ENV = "REPRO_FLIGHT"

#: Anomaly trigger reasons the wired call sites use (open set — any
#: string works; these are the ones the reproduction fires today).
KNOWN_TRIGGERS = (
    "lock_timeout",
    "watchdog_restart",
    "retrain_failure",
    "wal_scan_truncated",
    "recovery_fallback",
    "lock_protocol_violation",
)

_logger = get_logger("obs.flight")


class FlightRecorder:
    """Bounded recent-history recorder with anomaly-triggered dumps.

    Args:
        directory: where bundles are written (created on first dump).
        recorder: trace ring to dump; defaults to the armed
            :data:`repro.obs.trace.ACTIVE` at dump time.
        registry: metrics registry to scrape; defaults to the armed
            :data:`repro.obs.metrics.ACTIVE` at dump time.
        snapshot_every_s: minimum spacing of periodic metric snapshots
            taken by :meth:`tick`.
        max_snapshots: snapshot ring size (oldest evicted).
        max_bundles: hard cap on bundles written over the recorder's
            lifetime (the per-reason dedupe usually binds first).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        recorder: trace_mod.TraceRecorder | None = None,
        registry: metrics_mod.MetricsRegistry | None = None,
        snapshot_every_s: float = 0.25,
        max_snapshots: int = 64,
        max_bundles: int = 16,
    ) -> None:
        self.directory = Path(directory)
        self._recorder = recorder
        self._registry = registry
        self._snapshot_every_ns = max(0, int(snapshot_every_s * 1e9))
        self.max_bundles = int(max_bundles)
        self._snapshots: deque[tuple[int, dict[str, Any]]] = deque(maxlen=max(1, max_snapshots))
        self._t0_ns = time.monotonic_ns()
        self._last_snapshot_ns = 0
        self._watched: list[Any] = []
        self._fired: dict[str, int] = {}
        self._seq = 0
        self._mutex = threading.Lock()
        #: Bundle directories written so far, oldest first.
        self.bundles: list[Path] = []
        #: Contained internal failures (``repr`` strings); never raised.
        self.errors: list[str] = []
        #: Whether :func:`repro.obs.arm_flight` armed trace/metrics on
        #: this recorder's behalf (so ``disarm_flight`` restores them).
        self.owns_tracing = False
        self.owns_metrics = False

    # -- wiring --------------------------------------------------------------

    def watch(self, index: Any) -> None:
        """Register an index whose structure each bundle should sample."""
        with self._mutex:
            if not any(existing is index for existing in self._watched):
                self._watched.append(index)

    def unwatch(self, index: Any) -> None:
        """Drop a previously watched index (no-op if unknown)."""
        with self._mutex:
            self._watched = [e for e in self._watched if e is not index]

    def trace_recorder(self) -> trace_mod.TraceRecorder | None:
        return self._recorder if self._recorder is not None else trace_mod.ACTIVE

    def metrics_registry(self) -> metrics_mod.MetricsRegistry | None:
        return self._registry if self._registry is not None else metrics_mod.ACTIVE

    # -- recording -----------------------------------------------------------

    @declared_contract("no_raise")
    def tick(self) -> None:
        """Take a rate-limited metrics snapshot into the bounded ring.

        Cheap enough to call per operation: between snapshots it is one
        monotonic read and a comparison. Never raises.
        """
        try:
            registry = self.metrics_registry()
            if registry is None:
                return
            now = time.monotonic_ns()
            if now - self._last_snapshot_ns < self._snapshot_every_ns:
                return
            self._last_snapshot_ns = now
            snapshot = registry.to_dict()
            with self._mutex:
                self._snapshots.append((now - self._t0_ns, snapshot))
        except Exception as exc:
            self._note(exc)

    @declared_contract("no_raise")
    def trigger(self, reason: str, detail: dict[str, Any] | None = None) -> Path | None:
        """Dump a post-mortem bundle for ``reason`` (first fire only).

        The first fire per reason writes a bundle directory and returns
        its path; repeat fires of the same reason (and fires past
        ``max_bundles``) are counted but suppressed, so an anomaly storm
        cannot flood the disk. Never raises: any internal failure is
        recorded in :attr:`errors` and ``None`` is returned.
        """
        try:
            with self._mutex:
                seen = self._fired.get(reason, 0)
                self._fired[reason] = seen + 1
                if seen or len(self.bundles) >= self.max_bundles:
                    return None
                seq = self._seq
                self._seq += 1
                watched = list(self._watched)
            bundle = self._dump(seq, reason, detail, watched)
            with self._mutex:
                self.bundles.append(bundle)
            return bundle
        except Exception as exc:
            self._note(exc)
            return None

    # -- inspection ----------------------------------------------------------

    def fired(self) -> dict[str, int]:
        """Trigger fire counts per reason (including suppressed fires)."""
        with self._mutex:
            return dict(self._fired)

    def snapshots(self) -> list[tuple[int, dict[str, Any]]]:
        """Snapshot ring contents, oldest first: ``(t_rel_ns, metrics)``."""
        with self._mutex:
            return list(self._snapshots)

    # -- internals -----------------------------------------------------------

    def _note(self, exc: Exception) -> None:
        try:
            self.errors.append(repr(exc))
            _logger.warning("flight recorder suppressed: %r", exc)
        except Exception:
            return

    def _dump(
        self,
        seq: int,
        reason: str,
        detail: dict[str, Any] | None,
        watched: list[Any],
    ) -> Path:
        safe_reason = "".join(c if c.isalnum() or c in "-_" else "_" for c in reason) or "anomaly"
        bundle = self.directory / f"flight-{seq:03d}-{safe_reason}"
        bundle.mkdir(parents=True, exist_ok=True)

        recorder = self.trace_recorder()
        if recorder is not None:
            doc = export_mod.chrome_trace(recorder)
            (bundle / "trace.json").write_text(json.dumps(doc) + "\n")
            (bundle / "trace.jsonl").write_text(export_mod.to_jsonl(recorder))
        registry = self.metrics_registry()
        if registry is not None:
            (bundle / "metrics.prom").write_text(registry.to_prometheus())
        structures = [
            {
                "index": ordinal,
                "type": type(index).__name__,
                "leaves": sample_index(index, registry=registry),
            }
            for ordinal, index in enumerate(watched)
        ]
        (bundle / "structure.json").write_text(json.dumps(structures, indent=2) + "\n")
        (bundle / "snapshots.json").write_text(
            json.dumps(
                [{"t_rel_ns": t, "metrics": snap} for t, snap in self.snapshots()],
                indent=2,
            )
            + "\n"
        )
        (bundle / "manifest.json").write_text(json.dumps(self._manifest(reason, detail)) + "\n")
        return bundle

    def _manifest(self, reason: str, detail: dict[str, Any] | None) -> dict[str, Any]:
        recorder = self.trace_recorder()
        return {
            "schema": "repro-flight-bundle/v1",
            "reason": reason,
            "detail": detail or {},
            "t_rel_ns": time.monotonic_ns() - self._t0_ns,
            "unix_time": time.time(),
            "pid": os.getpid(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": list(sys.argv),
            "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
            "trace_events": 0 if recorder is None else len(recorder),
            "trace_dropped": 0 if recorder is None else recorder.dropped,
            "errors": list(self.errors),
        }


#: The armed flight recorder, or None (disarmed — the default). Swapped
#: by :func:`repro.obs.arm_flight` / :func:`repro.obs.disarm_flight`.
ACTIVE: FlightRecorder | None = None


@declared_contract("no_raise")
def tick() -> None:
    """Snapshot metrics on the armed flight recorder (no-op disarmed)."""
    flight = ACTIVE
    if flight is not None:
        flight.tick()


@declared_contract("no_raise")
def trigger(reason: str, detail: dict[str, Any] | None = None) -> Path | None:
    """Fire an anomaly trigger on the armed recorder (no-op disarmed).

    Call sites that must build a ``detail`` dict should guard on
    :data:`ACTIVE` themselves so the disarmed path allocates nothing.
    """
    flight = ACTIVE
    if flight is not None:
        return flight.trigger(reason, detail)
    return None
