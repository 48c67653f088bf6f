"""Per-layer spans recorded from outside the program, for the traced run.

:class:`Tracer` replaces each layer's public entry points with thin wrappers
for the duration of the traced run and puts the originals back afterwards;
nothing under ``src/`` changes. Each wrapped call records one span (name,
thread, start, end, parent span) into per-thread in-memory arrays. A layer's
self time is the time of its spans minus the time of their child spans, so
the layers' self times on the client thread plus the driver's own time
between calls add up to the phase's wall time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.baselines.interfaces import BaseIndex
from repro.core import builder as builder_mod
from repro.core import index as index_mod
from repro.core.batch_plan import BatchQueryPlan
from repro.core.builder import ChameleonBuilder
from repro.core.ebh import ErrorBoundedHash
from repro.core.index import ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.core.retrainer import RetrainingThread
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.robustness.durability import wal as wal_mod
from repro.robustness.durability.checkpoint import CheckpointManager
from repro.robustness.durability.durable import DurableIndex
from repro.robustness.durability.recovery import RecoveryManager
from repro.robustness.durability.wal import WriteAheadLog

#: Span-name prefix -> layer, in the order the breakdown is printed.
LAYERS = {
    "durable.": "durable",
    "checkpoint": "durable",
    "recovery.": "durable",
    "wal.": "wal",
    "index.": "index",
    "lock.": "interval_lock",
    "plan.": "batch_plan",
    "ebh.": "ebh",
    "builder.": "builder",
    "retrainer.": "retrainer",
    "obs.": "obs",
}

#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "index.self_us_per_key": "us",
    "index.node_hops_per_key": "count",
    "index.model_evals_per_key": "count",
    "index.splits": "count",
    "ebh.self_us_per_key": "us",
    "ebh.slot_probes_per_key": "count",
    "ebh.rehash_calls": "count",
    "ebh.rehash_s": "s",
    "batch_plan.self_us_per_key": "us",
    "batch_plan.builds": "count",
    "batch_plan.build_s": "s",
    "batch_plan.reuse_ratio": "ratio",
    "interval_lock.acquires_per_key": "count",
    "interval_lock.query_us_per_key": "us",
    "interval_lock.waits": "count",
    "interval_lock.retrain_wait_s": "s",
    "retrainer.sweeps": "count",
    "retrainer.busy_share": "ratio",
    "retrainer.rebuilds": "count",
    "retrainer.rebuild_kept_ratio": "ratio",
    "retrainer.skipped_busy": "count",
    "builder.build_s": "s",
    "builder.self_us_per_key": "us",
    "builder.tsmdp_calls": "count",
    "builder.tsmdp_s": "s",
    "durable.self_us_per_call": "us",
    "wal.self_us_per_key": "us",
    "wal.appends_per_key": "count",
    "wal.append_us": "us",
    "wal.fsyncs": "count",
    "wal.fsync_s": "s",
    "wal.bytes_per_user_byte": "ratio",
    "checkpoint.s": "s",
    "recovery.replay_us_per_record": "us",
    "obs.us_per_op": "us",
    "driver.us_per_key": "us",
    "trace.closure": "ratio",
    "trace.overhead_ratio": "ratio",
    "calibration.loop_s": "s",
}

OnResult = Callable[[int, Any], None]

_POINT_OPS = ("lookup", "insert", "delete", "lookup_batch", "insert_batch", "delete_batch")


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS.items():
        if name.startswith(prefix):
            return layer
    return "unmapped"


class _Buffer:
    """One thread's spans, as parallel arrays; parents index this buffer."""

    __slots__ = ("tid", "name", "parent", "start", "end", "stack")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []

    def open(self, nid: int) -> int:
        i = len(self.start)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()


class _TimedContext:
    """Times a context manager's entry and exit as two separate spans."""

    __slots__ = ("tracer", "cm", "enter_id", "exit_id")

    def __init__(self, tracer: "Tracer", cm: Any, enter_id: int, exit_id: int) -> None:
        self.tracer, self.cm = tracer, cm
        self.enter_id, self.exit_id = enter_id, exit_id

    def __enter__(self) -> Any:
        buf = self.tracer.buffer()
        i = buf.open(self.enter_id)
        try:
            return self.cm.__enter__()
        finally:
            buf.close(i)

    def __exit__(self, *exc: Any) -> Any:
        buf = self.tracer.buffer()
        i = buf.open(self.exit_id)
        try:
            return self.cm.__exit__(*exc)
        finally:
            buf.close(i)


class _FsyncOs:
    """The ``os`` module as the WAL sees it, with ``fsync`` wrapped."""

    def __init__(self, fsync: Callable[[int], None]) -> None:
        self.fsync = fsync

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)


class Spans:
    """All recorded spans as numpy arrays with global parent indices."""

    def __init__(self, names: list[str], buffers: list[_Buffer]) -> None:
        self.names = names
        offsets = np.cumsum([0] + [len(b.start) for b in buffers])
        empty = [np.zeros(0, np.int64)]
        self.name = np.concatenate([np.frombuffer(b.name, np.int32) for b in buffers] or empty)
        self.tid = np.concatenate([np.full(len(b.start), b.tid) for b in buffers] or empty)
        self.start = np.concatenate([np.frombuffer(b.start, np.int64) for b in buffers] or empty)
        self.end = np.concatenate([np.frombuffer(b.end, np.int64) for b in buffers] or empty)
        parents = [np.frombuffer(b.parent, np.int64) for b in buffers]
        self.parent = np.concatenate(
            [np.where(p >= 0, p + off, -1) for p, off in zip(parents, offsets)] or empty
        )
        self.dur = np.where(self.end > 0, self.end - self.start, 0)
        child = np.zeros(self.dur.size, np.int64)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_ns = self.dur - child

    def select(
        self, names: str | tuple[str, ...], t0: int, t1: int, tid: int | None = None
    ) -> np.ndarray:
        """Mask of closed spans started in ``[t0, t1)`` whose name is one of
        ``names``; a name ending in ``.`` matches as a prefix."""
        if isinstance(names, str):
            names = (names,)
        ids = [
            i
            for i, n in enumerate(self.names)
            if any(n == w or (w.endswith(".") and n.startswith(w)) for w in names)
        ]
        mask = np.isin(self.name, ids) & (self.start >= t0) & (self.start < t1) & (self.end > 0)
        if tid is not None:
            mask &= self.tid == tid
        return mask

    def total_s(self, mask: np.ndarray) -> float:
        return float(self.dur[mask].sum()) / 1e9

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            tid=self.tid,
            start=self.start,
            end=self.end,
            parent=self.parent,
        )


class Tracer:
    """Installs the span wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        #: Start times of rebuilds whose candidate was swapped in.
        self.kept_rebuilds: list[int] = []

    def buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrapped(
        self, fn: Callable[..., Any], name: str, on_result: OnResult | None = None
    ) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call; ``on_result``
        receives the span's start time and the call's result."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = tracer.buffer()
            i = buf.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(i)
            if on_result is not None:
                on_result(buf.start[i], result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap(self, owner: Any, attr: str, name: str, on_result: OnResult | None = None) -> None:
        self._set(owner, attr, self.wrapped(getattr(owner, attr), name, on_result))

    def _wrap_context(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        enter_id = self._name_id(f"{name}.enter")
        exit_id = self._name_id(f"{name}.exit")
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> _TimedContext:
            return _TimedContext(tracer, original(*args, **kwargs), enter_id, exit_id)

        self._set(cls, attr, traced)

    def _note_rebuild(self, start: int, retrained_keys: Any) -> None:
        if retrained_keys:
            self.kept_rebuilds.append(start)

    def install(self) -> None:
        for op in _POINT_OPS:
            self._wrap(DurableIndex, op, f"durable.{op}")
            self._wrap(ChameleonIndex, op, f"index.{op}")
            self._wrap(ErrorBoundedHash, op, f"ebh.{op}")
        self._wrap(DurableIndex, "bulk_load", "durable.bulk_load")
        self._wrap(ErrorBoundedHash, "rehash", "ebh.rehash")
        for op in ("lookup", "insert", "delete"):
            self._wrap(BatchQueryPlan, op, f"plan.{op}")
        self._wrap(index_mod, "build_plan", "plan.build")
        self._wrap_context(IntervalLockManager, "query_lock", "lock.query")
        self._wrap_context(IntervalLockManager, "retrain_lock", "lock.retrain")
        self._wrap(RetrainingThread, "sweep_once", "retrainer.sweep")
        self._wrap(ChameleonIndex, "rebuild_subtree", "retrainer.rebuild", self._note_rebuild)
        self._wrap(ChameleonBuilder, "build", "builder.build")
        # Both modules call TSMDP refinement through their own global name.
        tsmdp = self.wrapped(builder_mod.refine_with_tsmdp, "builder.tsmdp")
        self._set(builder_mod, "refine_with_tsmdp", tsmdp)
        self._set(index_mod, "refine_with_tsmdp", tsmdp)
        self._wrap(WriteAheadLog, "append_record", "wal.append")
        self._wrap(WriteAheadLog, "sync", "wal.sync")
        self._set(wal_mod, "os", _FsyncOs(self.wrapped(os.fsync, "wal.fsync")))
        self._wrap(CheckpointManager, "checkpoint", "checkpoint")
        self._wrap(RecoveryManager, "recover", "recovery.recover")
        load = BaseIndex.__dict__["load"]
        load = classmethod(self.wrapped(load.__func__, "recovery.snapshot_load"))
        self._set(BaseIndex, "load", load)
        self._wrap(SloTracker, "observe", "obs.slo_observe")
        for op in ("inc", "set_gauge", "observe", "observe_many"):
            self._wrap(MetricsRegistry, op, f"obs.{op}")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def spans(self) -> Spans:
        with self._lock:
            buffers = list(self._buffers)
        return Spans(list(self.names), buffers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    sp: Spans,
    client: int,
    setup: tuple[int, int],
    timed: tuple[int, int],
    run: tuple[int, int],
    keys: int,
    calls: int,
    counters: dict[str, int],
    kept_rebuilds: list[int],
    extra: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run.

    ``setup``, ``timed`` and ``run`` are ``[start, end)`` windows in
    ``perf_counter_ns`` time: stack set-up, the timed phase, and the whole
    traced run. Per-key figures divide by the keys the timed phase served.
    Returns ``(metrics, breakdown)``, where the breakdown is every layer's
    self time on the client thread in µs per key, plus the driver's own time.
    """
    p0, p1 = timed
    wall_ns = p1 - p0
    in_timed = (sp.start >= p0) & (sp.start < p1) & (sp.end > 0)
    on_client = in_timed & (sp.tid == client)

    breakdown: dict[str, float] = {}
    for layer in dict.fromkeys(list(LAYERS.values()) + ["unmapped"]):
        ids = [i for i, n in enumerate(sp.names) if layer_of(n) == layer]
        mask = on_client & np.isin(sp.name, ids)
        breakdown[layer] = float(sp.self_ns[mask].sum()) / 1e3 / keys
    roots = on_client & (sp.parent < 0)
    driver_ns = wall_ns - int(sp.dur[roots].sum())
    breakdown["driver"] = driver_ns / 1e3 / keys
    closure = sum(breakdown.values()) * keys * 1e3 / wall_ns

    def self_us_per_key(prefixes: tuple[str, ...]) -> float:
        return float(sp.self_ns[sp.select(prefixes, p0, p1, client)].sum()) / 1e3 / keys

    rebuild = sp.select("retrainer.rebuild", p0, p1)
    sweeps = sp.select("retrainer.sweep", p0, p1)
    kept = sum(1 for t in kept_rebuilds if p0 <= t < p1)

    plan_builds = sp.select("plan.build", p0, p1)
    plan_calls = int(sp.select(("plan.lookup", "plan.insert", "plan.delete"), p0, p1).sum())
    n_builds = int(plan_builds.sum())

    tsmdp = sp.select("builder.tsmdp", run[0], run[1])
    tsmdp_id = sp.names.index("builder.tsmdp")
    has_parent = sp.parent >= 0
    nested = np.zeros(sp.name.size, dtype=bool)
    nested[has_parent] = sp.name[sp.parent[has_parent]] == tsmdp_id
    tsmdp_top = tsmdp & ~nested

    durable_roots = roots & sp.select("durable.", p0, p1)
    appends = sp.select("wal.append", p0, p1)
    fsyncs = sp.select("wal.fsync", p0, p1)
    checkpoints = sp.select("checkpoint", run[0], run[1])
    recovers = sp.select("recovery.recover", run[0], run[1])
    loads = sp.select("recovery.snapshot_load", run[0], run[1])
    replayed = extra["replayed_records"] * int(recovers.sum())
    obs_calls = sp.select("obs.", p0, p1, client)

    metrics = {
        "index.self_us_per_key": self_us_per_key(("index.",)),
        "index.node_hops_per_key": counters["node_hops"] / keys,
        "index.model_evals_per_key": counters["model_evals"] / keys,
        "index.splits": counters["splits"],
        "ebh.self_us_per_key": self_us_per_key(("ebh.",)),
        "ebh.slot_probes_per_key": counters["slot_probes"] / keys,
        "ebh.rehash_calls": int(sp.select("ebh.rehash", p0, p1).sum()),
        "ebh.rehash_s": sp.total_s(sp.select("ebh.rehash", p0, p1)),
        "batch_plan.self_us_per_key": self_us_per_key(("plan.",)),
        "batch_plan.builds": n_builds,
        "batch_plan.build_s": sp.total_s(plan_builds),
        "batch_plan.reuse_ratio": max(0.0, _ratio(plan_calls - n_builds, plan_calls)),
        "interval_lock.acquires_per_key": counters["lock_acquisitions"] / keys,
        "interval_lock.query_us_per_key": self_us_per_key(("lock.query.",)),
        "interval_lock.waits": counters["lock_waits"],
        "interval_lock.retrain_wait_s": sp.total_s(sp.select("lock.retrain.enter", p0, p1)),
        "retrainer.sweeps": int(sweeps.sum()),
        "retrainer.busy_share": sp.total_s(sweeps) * 1e9 / wall_ns,
        "retrainer.rebuilds": int(rebuild.sum()),
        "retrainer.rebuild_kept_ratio": _ratio(kept, int(rebuild.sum())),
        "retrainer.skipped_busy": extra["skipped_busy"],
        "builder.build_s": sp.total_s(sp.select("builder.build", setup[0], setup[1])),
        "builder.self_us_per_key": self_us_per_key(("builder.",)),
        "builder.tsmdp_calls": int(tsmdp_top.sum()),
        "builder.tsmdp_s": sp.total_s(tsmdp_top),
        "durable.self_us_per_call": _ratio(
            float(sp.self_ns[sp.select(("durable.",), p0, p1, client)].sum()) / 1e3,
            int(durable_roots.sum()),
        ),
        "wal.self_us_per_key": self_us_per_key(("wal.",)),
        "wal.appends_per_key": int(appends.sum()) / keys,
        "wal.append_us": _ratio(float(sp.dur[appends].sum()) / 1e3, int(appends.sum())),
        "wal.fsyncs": int(fsyncs.sum()),
        "wal.fsync_s": sp.total_s(fsyncs),
        "wal.bytes_per_user_byte": _ratio(extra["wal_bytes"], extra["user_bytes"]),
        "checkpoint.s": _ratio(sp.total_s(checkpoints), int(checkpoints.sum())),
        "recovery.replay_us_per_record": _ratio(
            (sp.total_s(recovers) - sp.total_s(loads)) * 1e6, replayed
        ),
        "obs.us_per_op": float(sp.self_ns[obs_calls].sum()) / 1e3 / calls,
        "driver.us_per_key": breakdown["driver"],
        "trace.closure": closure,
    }
    return metrics, breakdown
