"""ChameleonIndex — the public index API (Section III).

Lookups descend precise inner nodes (Eq. 1, no secondary search) and finish
with a bounded EBH probe. Inserts go in place; a leaf that exceeds its load
bound rehashes to a larger Theorem 1 capacity, and a leaf that outgrows the
split threshold becomes a subtree. A background retrainer (see
:mod:`repro.core.retrainer`) restructures drifted h-th-level subtrees with
TSMDP under interval locks without blocking queries.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..analysis.contracts import declared_contract
from ..baselines.interfaces import (
    ABSENT,
    BaseIndex,
    Capabilities,
    EmptyIndexError,
    Key,
    Value,
    as_key_value_arrays,
)
from ..obs import metrics as obs_metrics
from ..obs import slo as obs_slo
from ..obs import trace as obs_trace
from ..robustness import faults
from .batch_plan import BatchQueryPlan, build_plan
from .builder import ChameleonBuilder, make_leaf, refine_with_tsmdp
from .config import ChameleonConfig
from .node import InnerNode, LeafNode, Node, subtree_stats, walk_leaves

if TYPE_CHECKING:
    from ..robustness.integrity import IntegrityReport

#: Leaf-growth factor applied when a leaf rehashes to a larger capacity.
LEAF_GROWTH = 1.5

#: Below this batch size building/consulting the flattened plan costs more
#: than the scalar loop; both paths count identically, so the switch is
#: purely a wall-clock decision.
_FUSED_MIN = 32


class ChameleonIndex(BaseIndex):
    """Updatable learned index with EBH leaves and MARL-built structure.

    Args:
        config: hyper-parameters; defaults to :class:`ChameleonConfig`.
        strategy: construction strategy — "ChaB", "ChaDA" (DARE only), or
            "ChaDATS" (DARE + TSMDP, the full system).
        builder: optional pre-configured builder (e.g. with trained agents).
        lock_manager: optional
            :class:`~repro.core.interval_lock.IntervalLockManager`; when
            set, every operation takes a query lock on its h-th-level
            interval, enabling non-blocking background retraining.
    """

    capabilities = Capabilities(
        name="Chameleon",
        construction_direction="TD",
        construction_strategy="MARL",
        inner_search="LIM",
        leaf_search="Hash+LS",
        insertion_strategy="In-place",
        retraining="non-Blocking",
        skew_strategy="Use Hash",
        skew_support=3,
        supports_updates=True,
    )

    def __init__(
        self,
        config: ChameleonConfig | None = None,
        strategy: str = "ChaDATS",
        builder: ChameleonBuilder | None = None,
        lock_manager: "IntervalLockManager | None" = None,
    ) -> None:
        super().__init__()
        self.config = config or ChameleonConfig()
        self.builder = builder or ChameleonBuilder(self.config, strategy=strategy)
        self.strategy = self.builder.strategy
        self.lock_manager = lock_manager
        self._root: Node | None = None
        self._n = 0
        #: Lazily built flattened-tree snapshot for fused batch operations;
        #: rebuilt when the topology epoch moves (see :meth:`_plan_version`).
        self._batch_plan: BatchQueryPlan | None = None
        #: Bumped whenever nodes are added, removed, or re-hung: bulk load,
        #: full rebuild, a subtree swap, and a leaf split.
        self._topology_epoch = 0
        #: Leaves written outside the plan executors while a plan exists;
        #: the plan re-reads their state before its next op. Every write
        #: path below that touches a leaf's EBH records the leaf here.
        self._written_leaves: set[LeafNode] = set()
        #: Leaves written since the retrainer last drained them (insertion-
        #: ordered, values unused); None until :meth:`track_drift` attaches
        #: a retrainer, so untracked write paths pay one ``is None`` check.
        self._drift: dict[LeafNode, None] | None = None
        #: Updates since the last full (re)construction — drives the
        #: DARE-triggered rebuild described in Section V's Limitations.
        self.updates_since_build = 0

    # -- loading -------------------------------------------------------------------

    def bulk_load(self, keys: Iterable[Key], values: Iterable[Value] | None = None) -> None:
        key_list, value_list = as_key_value_arrays(keys, values)
        if not key_list:
            raise ValueError("bulk_load requires at least one key")
        arr = np.asarray(key_list, dtype=np.float64)
        result = self.builder.build(arr, value_list, self.counters)
        self._root = result.root
        self._topology_epoch += 1
        self._n = len(key_list)
        self.updates_since_build = 0

    # -- point operations ------------------------------------------------------------

    def lookup(self, key: Key) -> Value | None:
        # SLO timing brackets the whole operation (span + locks included);
        # disarmed cost is one attribute load and a pointer comparison.
        slo = obs_slo.ACTIVE
        t0 = time.monotonic_ns() if slo is not None else 0
        result = self._lookup_op(float(key))
        if slo is not None:
            slo.observe("lookup", time.monotonic_ns() - t0)
        return result

    def _lookup_op(self, key_f: float) -> Value | None:
        with obs_trace.span("index.lookup"):
            if self._root is None:
                raise EmptyIndexError("index is empty; bulk_load first")
            if self.lock_manager is None:
                leaf, path = self._descend_lower(key_f, ())
                if obs_metrics.ACTIVE is not None:
                    obs_metrics.ACTIVE.observe(
                        "chameleon_descent_depth_levels", len(path)
                    )
                return leaf.ebh.lookup(key_f)
            # Faithful protocol: descend the (immutable) upper h-1 levels
            # once, acquire the interval's query lock, then continue below
            # the lock boundary — the retrainer may only swap subtrees
            # under it.
            ids, path = self._descend_upper(key_f)
            with self.lock_manager.query_lock(ids, self.counters):
                self.lock_manager.assert_interval_locked(ids, where="lookup")
                leaf, full_path = self._descend_lower(key_f, path)
                if obs_metrics.ACTIVE is not None:
                    obs_metrics.ACTIVE.observe(
                        "chameleon_descent_depth_levels", len(full_path)
                    )
                return leaf.ebh.lookup(key_f)

    def insert(self, key: Key, value: Value | None = None) -> None:
        if self._root is None:
            raise EmptyIndexError("bulk_load before inserting")
        key_f = float(key)
        stored = key_f if value is None else value
        slo = obs_slo.ACTIVE
        t0 = time.monotonic_ns() if slo is not None else 0
        self._insert_op(key_f, stored)
        if slo is not None:
            slo.observe("insert", time.monotonic_ns() - t0)

    def _insert_op(self, key_f: float, stored: Value) -> None:
        with obs_trace.span("index.insert"):
            if self.lock_manager is None:
                self._insert_locked(key_f, stored)
                return
            ids, upper = self._descend_upper(key_f)
            with self.lock_manager.query_lock(ids, self.counters):
                self.lock_manager.assert_interval_locked(ids, where="insert")
                self._insert_locked(key_f, stored, upper)

    def _insert_locked(
        self, key: Key, value: Value, upper: Sequence[tuple[InnerNode, int]] = ()
    ) -> None:
        """Insert below ``upper``, the already-charged upper path (the
        lock-boundary walk of :meth:`_descend_upper`; empty: from the root)."""
        # Fault point before any mutation: an injected raise aborts the
        # insert cleanly (the key simply is not stored). SKIP is ignored
        # here — silently dropping a write would corrupt callers' oracles.
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("ebh.insert", self.counters)
        leaf, path = self._descend_lower(key, upper)
        self._insert_at_leaf(key, value, leaf, path)

    def _insert_at_leaf(
        self,
        key: Key,
        value: Value,
        leaf: LeafNode,
        path: list[tuple[InnerNode, int]],
    ) -> tuple[LeafNode, bool, bool]:
        """Post-descent half of the scalar insert (shared with batch paths).

        Runs the load-trigger maintenance and the EBH insert for a key whose
        descent has already been counted. ``path`` only needs the final
        ``(parent, rank)`` slot (what :meth:`_split_leaf` consumes); a
        successful split re-descends from the root exactly as the scalar
        stream does. Returns ``(landed_leaf, split, rehashed)`` so batch
        executors can invalidate their plan state.
        """
        if self._batch_plan is not None:
            self._written_leaves.add(leaf)
        ebh = leaf.ebh
        split_done = False
        rehash_done = False
        if (ebh.n_keys + 1) / ebh.capacity > self.config.max_leaf_load:
            # Structural maintenance happens only at load-trigger points,
            # so its cost amortises over the inserts in between. A split is
            # attempted first for over-full leaves; if refinement decides
            # hashing absorbs the density better (its guards fire), the
            # leaf simply grows its Theorem 1 capacity in place.
            if ebh.n_keys + 1 > self.config.leaf_split_keys:
                if self._split_leaf(leaf, path):
                    split_done = True
                    leaf, path = self._descend_lower(key, ())
                    ebh = leaf.ebh
            if (ebh.n_keys + 1) / ebh.capacity > self.config.max_leaf_load:
                # Fault point before the rehash: raising here leaves the
                # leaf full but consistent, and the insert aborts cleanly.
                if faults.ACTIVE is not None:
                    faults.ACTIVE.fire("ebh.expand", self.counters)
                grown = max(ebh.n_keys + 1, int(ebh.n_keys * LEAF_GROWTH) + 1)
                ebh.rehash(self.config.theorem1_capacity(grown), refit=True)
                rehash_done = True
        ebh.insert(key, value)
        leaf.update_count += 1
        if self._drift is not None:
            self._drift[leaf] = None
        self._n += 1
        self.updates_since_build += 1
        return leaf, split_done, rehash_done

    def delete(self, key: Key) -> bool:
        if self._root is None:
            return False
        key_f = float(key)
        slo = obs_slo.ACTIVE
        t0 = time.monotonic_ns() if slo is not None else 0
        removed = self._delete_op(key_f) is not ABSENT
        if slo is not None:
            slo.observe("delete", time.monotonic_ns() - t0)
        return removed

    def pop(self, key: Key, default: Value = None) -> Value:
        """:meth:`delete` that returns the removed value (``default`` if
        absent): the same walk, lock, probe and counters."""
        if self._root is None:
            return default
        key_f = float(key)
        slo = obs_slo.ACTIVE
        t0 = time.monotonic_ns() if slo is not None else 0
        value = self._delete_op(key_f)
        if slo is not None:
            slo.observe("delete", time.monotonic_ns() - t0)
        return default if value is ABSENT else value

    def _delete_op(self, key_f: float) -> Value:
        with obs_trace.span("index.delete"):
            if self.lock_manager is None:
                return self._delete_at_leaf(self._descend_lower(key_f, ())[0], key_f)
            ids, upper = self._descend_upper(key_f)
            with self.lock_manager.query_lock(ids, self.counters):
                self.lock_manager.assert_interval_locked(ids, where="delete")
                leaf, _ = self._descend_lower(key_f, upper)
                return self._delete_at_leaf(leaf, key_f)

    def _delete_at_leaf(self, leaf: LeafNode, key: Key) -> Value:
        """Post-descent half of the scalar delete (shared with the plan).

        Returns the removed value, or
        :data:`~repro.baselines.interfaces.ABSENT`.
        """
        value = leaf.ebh.pop(key, ABSENT)
        if value is not ABSENT:
            leaf.update_count += 1
            if self._drift is not None:
                self._drift[leaf] = None
            self._n -= 1
            self.updates_since_build += 1
            if self._batch_plan is not None:
                self._written_leaves.add(leaf)
        return value

    # -- batch operations --------------------------------------------------------------

    def lookup_batch(self, keys: "Sequence[Key] | np.ndarray") -> list[Value | None]:
        """Batch lookup; results aligned with ``keys`` (see docs/cost_model.md).

        Without a lock manager, batches of at least ``_FUSED_MIN`` keys run
        through the fused :class:`BatchQueryPlan`; every other batch runs
        the scalar body per key through :meth:`_stream`, in key order.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if m == 0:
            return []
        if self._root is None:
            raise EmptyIndexError("index is empty; bulk_load first")
        with obs_trace.span("index.lookup_batch").put("n", m):
            if self.lock_manager is None and m >= _FUSED_MIN:
                return self._current_plan().lookup(self, karr)
            keys_l: list[float] = karr.tolist()
            out: list[Value | None] = [None] * m

            def lookup(i: int, upper: list[tuple[InnerNode, int]]) -> None:
                out[i] = self._descend_lower(keys_l[i], upper)[0].ebh.lookup(keys_l[i])

            # Lookups change no key, so key order gives the scalar loop's
            # results and counters, and one run per touched interval.
            self._stream(keys_l, lookup, "lookup_batch", np.argsort(karr).tolist())
            return out

    def insert_batch(
        self,
        keys: "Sequence[Key] | np.ndarray",
        values: "Sequence[Value] | None" = None,
    ) -> None:
        """Insert a key vector with exact scalar accounting.

        Without a lock manager, batches of at least ``_FUSED_MIN`` keys run
        through the flattened plan: one gathered descent groups keys by
        leaf, collision-free keys scatter into their home slots in bulk,
        and only the colliding or load-triggering residue replays the
        scalar trigger logic — splits and rehashes still fire at exactly
        the sequential load trajectory's points, so counters stay
        bit-identical to the one-at-a-time stream. Every other batch
        (smaller ones, locked ones, and every batch while faults are
        armed: they fire per key in an order the plan cannot replicate)
        runs the scalar insert per key through :meth:`_stream`. A ``None``
        value stores the key, as :meth:`insert` does. On a duplicate key
        the batch raises with exactly the preceding keys landed.
        """
        if self._root is None:
            raise EmptyIndexError("bulk_load before inserting")
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        vals: list[Value] | None = None
        if values is not None:
            if len(values) != karr.size:
                raise ValueError(
                    f"keys and values length mismatch: {karr.size} != {len(values)}"
                )
            vals = [k if v is None else v for k, v in zip(karr.tolist(), values)]
        with obs_trace.span("index.insert_batch").put("n", int(karr.size)):
            if (
                self.lock_manager is None
                and karr.size >= _FUSED_MIN
                and faults.ACTIVE is None
            ):
                self._current_plan().insert(self, karr, vals)
                return
            keys_l: list[float] = karr.tolist()
            stored = keys_l if vals is None else vals

            def insert(i: int, upper: list[tuple[InnerNode, int]]) -> None:
                self._insert_locked(keys_l[i], stored[i], upper)

            self._stream(keys_l, insert, "insert_batch")

    def delete_batch(self, keys: "Sequence[Key] | np.ndarray") -> list[bool]:
        """Batch delete; flags aligned positionally with ``keys``.

        Without a lock manager, duplicate-free batches of at least
        ``_FUSED_MIN`` keys run through the fused plan; every other batch
        runs the scalar delete per key through :meth:`_stream`, so a
        repeated key observes its first occurrence's clear.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if m == 0:
            return []
        if self._root is None:
            return [False] * m
        with obs_trace.span("index.delete_batch").put("n", m):
            if (
                self.lock_manager is None
                and m >= _FUSED_MIN
                and np.unique(karr).size == m
            ):
                return self._current_plan().delete(self, karr)
            keys_l: list[float] = karr.tolist()
            out = [False] * m

            def delete(i: int, upper: list[tuple[InnerNode, int]]) -> None:
                k = keys_l[i]
                out[i] = self._delete_at_leaf(self._descend_lower(k, upper)[0], k) is not ABSENT

            self._stream(keys_l, delete, "delete_batch")
            return out

    def _stream(
        self,
        keys: list[float],
        body: Callable[[int, list[tuple[InnerNode, int]]], None],
        where: str,
        order: Sequence[int] | None = None,
    ) -> None:
        """Run the scalar ``body`` per batch position, in ``order``.

        ``body(i, upper)`` is the rest of the scalar op for position ``i``
        below ``upper``, its lock-boundary path. ``order`` is the sequence
        of positions to visit, batch order by default; a read-only batch
        passes key order. Without a lock manager ``upper`` is empty and the
        body walks (and charges) from the root. Under one, each key's
        counter-free :meth:`_upper_walk` runs just before its body and is
        charged as :meth:`_descend_upper` charges it, and one query lock is
        held across each run of consecutive keys whose walk ends in the
        same interval. So every counter but the lock traffic is the scalar
        stream's, and a duplicate raises with exactly the keys before it
        landed. A split above the lock boundary needs no special case: the
        next key walks after it.
        """
        lm = self.lock_manager
        seq = range(len(keys)) if order is None else order
        m = len(seq)
        if lm is None or m == 0:
            for i in seq:
                body(i, [])
            return
        counters = self.counters
        n = 0
        i = seq[0]
        ids, upper = self._upper_walk(keys[i])
        while n < m:
            run = ids
            with lm.query_lock(run, counters):
                lm.assert_interval_locked(run, where=where)
                while True:
                    counters.node_hops += len(upper)
                    counters.model_evals += len(upper)
                    body(i, upper)
                    n += 1
                    if n == m:
                        break
                    i = seq[n]
                    ids, upper = self._upper_walk(keys[i])
                    if ids != run:
                        break

    def _plan_version(self) -> int:
        """Cache key of the fused batch plan: the topology epoch.

        The plan flattens which nodes exist and where they hang, so only
        the events that change that shape move the key — ``bulk_load``,
        ``rebuild_all``, a ``rebuild_subtree`` swap, and a leaf split.
        Writes between batches keep the plan: they land in the leaves'
        views of the plan store, a rehashed leaf is served as *detached*,
        a child materialised from ``None`` takes the plan's hole path, and
        the plan re-reads the state of the leaves written outside it
        before its next fused op (see :mod:`repro.core.batch_plan`).
        """
        return self._topology_epoch

    def _current_plan(self) -> BatchQueryPlan:
        """The flattened snapshot for the live tree (rebuilt lazily)."""
        assert self._root is not None
        version = self._plan_version()
        plan = self._batch_plan
        if plan is None or plan.version != version:
            plan = build_plan(self._root, version)
            self._batch_plan = plan
        elif self._written_leaves:
            plan.sync_leaves(self._written_leaves)
        self._written_leaves.clear()
        return plan

    # -- bulk reads --------------------------------------------------------------------

    def range_query(self, low: Key, high: Key) -> list[tuple[Key, Value]]:
        if self._root is None:
            return []
        # Keys outside the bulk-loaded interval are clamped into the edge
        # subtrees by Eq. 1's routing, so the extreme nodes must be treated
        # as unbounded when pruning.
        root_low = self._root.low_key
        root_high = self._root.high_key
        out: list[tuple[Key, Value]] = []
        stack: list[Node] = [self._root]
        while stack:
            node = stack.pop()
            node_low = float("-inf") if node.low_key <= root_low else node.low_key
            node_high = float("inf") if node.high_key >= root_high else node.high_key
            if isinstance(node, LeafNode):
                if node_high >= low and node_low <= high:
                    # Hashed leaves are unordered: a scan reads every slot.
                    self.counters.slot_probes += node.ebh.capacity
                    out.extend(
                        (k, v) for k, v in node.items() if low <= k <= high
                    )
                continue
            if node_high < low or node_low > high:
                continue
            self.counters.node_hops += 1
            for child in node.children:
                if child is not None:
                    stack.append(child)
        out.sort()
        return out

    def items(self) -> Iterator[tuple[Key, Value]]:
        if self._root is None:
            return iter(())
        return (
            pair for leaf in walk_leaves(self._root) for pair in leaf.items()
        )

    def __len__(self) -> int:
        return self._n

    # -- structure accessors --------------------------------------------------------------

    def size_bytes(self) -> int:
        if self._root is None:
            return 0
        return int(subtree_stats(self._root)["size_bytes"])

    def height_stats(self) -> tuple[int, float]:
        if self._root is None:
            return 0, 0.0
        stats = subtree_stats(self._root)
        return int(stats["max_height"]), float(stats["avg_height"])

    def node_count(self) -> int:
        if self._root is None:
            return 0
        return int(subtree_stats(self._root)["n_nodes"])

    def error_stats(self) -> tuple[float, float]:
        if self._root is None:
            return 0.0, 0.0
        stats = subtree_stats(self._root)
        return float(stats["max_error"]), float(stats["avg_error"])

    # -- retrainer integration ----------------------------------------------------------

    def h_level_entries(self) -> list[tuple[tuple[int, ...], InnerNode, int]]:
        """All h-th-level attachment points as ``(ids, parent, rank)``.

        The h-th level is the boundary the retrainer operates on: subtrees
        hanging below these slots may be swapped; everything above is
        immutable after bulk load (Section V-A).
        """
        if self._root is None or isinstance(self._root, LeafNode):
            return []
        entries: list[tuple[tuple[int, ...], InnerNode, int]] = []
        boundary = self.config.h - 1  # parent depth of h-th-level nodes
        stack: list[tuple[InnerNode, tuple[int, ...], int]] = [(self._root, (), 1)]
        while stack:
            node, ids, depth = stack.pop()
            for rank, child in enumerate(node.children):
                if child is None:
                    continue
                child_ids = ids + (rank,)
                if depth >= boundary or isinstance(child, LeafNode):
                    entries.append((child_ids, node, rank))
                else:
                    stack.append((child, child_ids, depth + 1))
        return entries

    def track_drift(self) -> None:
        """Record every written leaf for the retrainer from now on.

        Seeds the pending set with one full scan — every leaf whose update
        counter is non-zero — so writes made before the retrainer attached
        are not missed. Afterwards each write site adds its leaf *after*
        bumping the leaf's counter, and :meth:`pop_drifted` drains the set.
        """
        drift = {} if self._drift is None else self._drift
        if self._root is not None:
            for leaf in walk_leaves(self._root):
                if leaf.update_count:
                    drift[leaf] = None
        self._drift = drift

    def pop_drifted(
        self,
    ) -> list[tuple[tuple[int, ...], InnerNode, int, list[LeafNode]]]:
        """Drain the pending set into h-th-level entries.

        Returns ``(ids, parent, rank, leaves)`` per entry holding at least
        one marked leaf, most recently marked first — the order is fixed by
        the write history, so a replayed program sweeps identically.
        ``leaves`` are the marks that resolved to it, for
        :meth:`mark_drifted` to put back when the entry is not retrained.
        Each mark is popped atomically, at most as many as the set held on
        entry, so a concurrent writer's later mark stays for the next drain
        — and since writers mark after bumping the counter, a popped mark's
        count is visible to the caller's subsequent read. Marks resolve
        with the counter-free :meth:`_upper_walk` at the midpoint of the
        leaf's routing interval; a leaf that was since split or swapped
        away resolves to whatever entry now covers its interval.
        """
        drift = self._drift
        if drift is None:
            return []
        marks: list[LeafNode] = []
        for _ in range(len(drift)):
            try:
                leaf, _ = drift.popitem()
            except KeyError:
                break
            marks.append(leaf)
        entries: dict[tuple[int, ...], tuple[InnerNode, int, list[LeafNode]]] = {}
        for leaf in marks:
            low, high = leaf.route_low, leaf.route_high
            ids, path = self._upper_walk(low + (high - low) / 2 if high > low else low)
            if not path:
                continue  # a root leaf has no h-th-level entry to retrain
            entry = entries.get(ids)
            if entry is None:
                parent, rank = path[-1]
                entries[ids] = (parent, rank, [leaf])
            else:
                entry[2].append(leaf)
        return [(ids, parent, rank, leaves) for ids, (parent, rank, leaves) in entries.items()]

    def mark_drifted(self, leaves: Iterable[LeafNode]) -> None:
        """Put drained marks back (an entry skipped, failed, or unreached)."""
        drift = self._drift
        if drift is not None:
            for leaf in leaves:
                drift[leaf] = None

    def subtree_update_count(self, parent: InnerNode, rank: int) -> int:
        """Total leaf update counters beneath one h-th-level slot."""
        child = parent.children[rank]
        if child is None:
            return 0
        if isinstance(child, LeafNode):
            return child.update_count
        return sum(leaf.update_count for leaf in walk_leaves(child))

    def rebuild_subtree(
        self,
        parent: InnerNode,
        rank: int,
        ids: tuple[int, ...] | None = None,
    ) -> int:
        """Rebuild one h-th-level subtree from its live keys via TSMDP.

        The rebuilt candidate replaces the old subtree only when its
        modelled cost is no worse — refinement must never regress the
        structure it tends. Returns the number of keys retrained (0 when
        the candidate was discarded). The caller must hold the interval's
        retraining lock; passing the interval's ``ids`` lets the debug
        contract layer (``REPRO_LOCK_ASSERTS=1``) verify that before the
        swap instead of trusting it.
        """
        from .costs import measured_structure_cost

        if ids is not None and self.lock_manager is not None:
            self.lock_manager.assert_interval_locked(
                ids, mode="retrain", where="rebuild_subtree"
            )
        with obs_trace.span("index.rebuild_subtree") as sp:
            if obs_trace.ACTIVE is not None and ids is not None:
                sp.put("interval", str(ids))
            # Fault point before the rebuild starts: RAISE models a retrain
            # crashing mid-flight (the old subtree stays live and
            # consistent), SKIP models a rebuild intentionally shed under
            # pressure.
            if faults.ACTIVE is not None and faults.ACTIVE.fire(
                "index.rebuild_subtree", self.counters
            ):
                return 0
            child = parent.children[rank]
            if child is None:
                return 0
            pairs = sorted(
                pair for leaf in walk_leaves(child) for pair in leaf.items()
            )
            low, high = parent.child_interval(rank)
            keys = np.asarray([p[0] for p in pairs], dtype=np.float64)
            values = [p[1] for p in pairs]
            agent = self.builder._ensure_tsmdp()
            new_child = refine_with_tsmdp(
                keys, values, low, high, agent, self.config, self.counters
            )
            w_q, w_m = self.config.w_query, self.config.w_memory
            old_q, old_m = measured_structure_cost(child, self.config)
            new_q, new_m = measured_structure_cost(new_child, self.config)
            if w_q * new_q + w_m * new_m <= w_q * old_q + w_m * old_m:
                parent.children[rank] = new_child
                self._topology_epoch += 1
                n = len(pairs)
                self.counters.retrains += 1
                self.counters.retrain_keys += n
                sp.put("retrained_keys", n)
                return n
            sp.put("retrained_keys", 0)
            return 0

    # -- integrity -------------------------------------------------------------------

    def _verify_structure(self, report: IntegrityReport) -> None:
        """Chameleon-specific invariants (see ``verify_integrity``).

        * key-order / linkage: every child's routing interval matches its
          parent's ``child_interval`` slot exactly;
        * leaf placement: each stored key routes back (via Eq. 1) to the
          leaf holding it, and sits within the leaf's conflict-degree
          window (otherwise lookups would miss it);
        * live-count: per-leaf slot occupancy matches ``n_keys`` and the
          tree-wide total matches ``len(self)``;
        * lock-state quiescence: no interval left with ``retraining=True``
          or phantom readers once the system is idle.
        """
        import math

        for check in ("linkage", "leaf-placement", "lock-state"):
            report.ran(check)
        if self._root is None:
            if self._n != 0:
                report.add("live-count", "root", f"empty tree but len()={self._n}")
            return
        tol = 1e-9
        total_keys = 0
        stack: list[tuple[Node, str]] = [(self._root, "root")]
        while stack:
            node, where = stack.pop()
            if isinstance(node, LeafNode):
                ebh = node.ebh
                live_slots = ebh._live_slots()
                occupied = int(live_slots.size)
                total_keys += ebh.n_keys
                if occupied != ebh.n_keys:
                    report.add(
                        "live-count", where,
                        f"{occupied} occupied slots but n_keys={ebh.n_keys}",
                    )
                for slot in live_slots.tolist():
                    k = float(ebh._keys[slot])
                    if ebh.offset_of(slot) > ebh.conflict_degree:
                        report.add(
                            "leaf-placement", where,
                            f"key {k!r} at offset {ebh.offset_of(slot)} "
                            f"beyond conflict degree {ebh.conflict_degree}",
                        )
                    owner = self._locate_leaf(float(k))
                    if owner is not node:
                        report.add(
                            "leaf-placement", where,
                            f"key {k!r} routes to a different leaf "
                            f"({owner!r}) than the one storing it",
                        )
                continue
            if node.high_key <= node.low_key:
                report.add(
                    "linkage", where,
                    f"degenerate interval [{node.low_key}, {node.high_key})",
                )
            if len(node.children) != node.fanout:
                report.add(
                    "linkage", where,
                    f"{len(node.children)} children but fanout={node.fanout}",
                )
            for rank, child in enumerate(node.children):
                if child is None:
                    continue
                child_where = f"{where}.{rank}"
                c_low, c_high = node.child_interval(rank)
                if not (
                    math.isclose(child.low_key, c_low, rel_tol=1e-12, abs_tol=tol)
                    and math.isclose(child.high_key, c_high, rel_tol=1e-12, abs_tol=tol)
                ):
                    report.add(
                        "linkage", child_where,
                        f"child interval [{child.low_key}, {child.high_key}) "
                        f"does not match parent slot [{c_low}, {c_high})",
                    )
                stack.append((child, child_where))
        if total_keys != self._n:
            report.add(
                "live-count", "root",
                f"leaves hold {total_keys} keys but len()={self._n}",
            )
        if self.lock_manager is not None:
            stuck = self.lock_manager.stuck_intervals()
            for ids, state in stuck:
                report.add(
                    "lock-state", f"interval {ids}",
                    f"not quiescent: readers={state[0]}, retraining={state[1]}",
                )

    @declared_contract("counter_neutral")
    def _locate_leaf(
        self, key: float, upper: Sequence[tuple[InnerNode, int]] = ()
    ) -> LeafNode | None:
        """Pure Eq. 1 descent — no lock, no materialisation, no counters.

        Starts at the root, or, given ``upper`` (an :meth:`_upper_walk`
        path), at its last ``(parent, rank)`` slot, re-read here because a
        retrain may have swapped the subtree under it. A hole reads None.
        """
        if upper:
            parent, rank = upper[-1]
            node: Node | None = parent.children[rank]
        else:
            node = self._root
        while isinstance(node, InnerNode):
            node = node.children[node.raw_route(key)]
        return node

    @declared_contract("counter_neutral")
    def peek(self, key: Key) -> Value | None:
        """:meth:`lookup` without counters, SLO samples, metrics or spans.

        Under a lock manager the walk below the lock boundary holds the
        interval's query lock (uncounted), so a concurrent writer's rehash
        is never read half-done; it continues from the boundary slot the
        upper walk reached, as every locked op does.
        """
        key_f = float(key)
        if self.lock_manager is None:
            return self._peek_leaf(key_f)
        ids, upper = self._upper_walk(key_f)
        with self.lock_manager.query_lock(ids):
            return self._peek_leaf(key_f, upper)

    @declared_contract("counter_neutral")
    def peek_batch(self, keys: "Sequence[Key]") -> list[Value | None]:
        """:meth:`peek` per key; under a lock manager, in key order with one
        (uncounted) query lock per touched interval, as :meth:`lookup_batch`
        holds them."""
        keys_l = [float(k) for k in keys]
        lm = self.lock_manager
        m = len(keys_l)
        if lm is None or m == 0:
            return [self._peek_leaf(k) for k in keys_l]
        out: list[Value | None] = [None] * m
        seq = sorted(range(m), key=keys_l.__getitem__)
        n = 0
        i = seq[0]
        ids, upper = self._upper_walk(keys_l[i])
        while n < m:
            run = ids
            with lm.query_lock(run):
                while True:
                    out[i] = self._peek_leaf(keys_l[i], upper)
                    n += 1
                    if n == m:
                        break
                    i = seq[n]
                    ids, upper = self._upper_walk(keys_l[i])
                    if ids != run:
                        break
        return out

    @declared_contract("counter_neutral")
    def _peek_leaf(
        self, key: float, upper: Sequence[tuple[InnerNode, int]] = ()
    ) -> Value | None:
        leaf = self._locate_leaf(key, upper)
        return None if leaf is None else leaf.ebh.peek(key)

    # -- persistence -----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop runtime-only attachments before pickling (save/load)."""
        state = self.__dict__.copy()
        state["lock_manager"] = None
        state["_batch_plan"] = None  # cache; duplicates the tree's arrays
        state["_written_leaves"] = set()
        state["_drift"] = None  # tracking belongs to an attached retrainer
        return state

    def __setstate__(self, state: dict) -> None:
        # Snapshots written before these attributes existed lack them; any
        # start value is sound because the plan cache is never pickled.
        state.setdefault("_topology_epoch", 0)
        state.setdefault("_written_leaves", set())
        state.setdefault("_drift", None)
        self.__dict__.update(state)

    def rebuild_all(self) -> int:
        """Full DARE reconstruction from the live key set.

        The paper's Section V Limitations: once accumulated updates push
        the structure far from the optimum, any learned index must be
        rebuilt, and Chameleon triggers DARE for the whole index. The new
        tree is built aside and swapped in with one (atomic) root-pointer
        store, so in-flight readers of the old tree stay consistent.

        Returns the number of keys rebuilt.
        """
        with obs_trace.span("index.rebuild_all") as sp:
            if faults.ACTIVE is not None and faults.ACTIVE.fire(
                "index.rebuild_all", self.counters
            ):
                return 0
            if self._root is None:
                return 0
            pairs = sorted(self.items())
            if not pairs:
                return 0
            keys = np.asarray([p[0] for p in pairs], dtype=np.float64)
            values = [p[1] for p in pairs]
            result = self.builder.build(keys, values, self.counters)
            self._root = result.root
            self._topology_epoch += 1
            n = len(pairs)
            self._n = n
            self.updates_since_build = 0
            self.counters.retrains += 1
            self.counters.retrain_keys += n
            sp.put("retrained_keys", n)
            return n

    # -- internals ---------------------------------------------------------------------

    def _descend_upper(
        self, key: Key
    ) -> tuple[tuple[int, ...], list[tuple[InnerNode, int]]]:
        """Walk the immutable upper h-1 levels; return (ids, path).

        The retrainer never modifies nodes above the lock boundary
        (Section V-A), so this walk is safe without any lock. Charges one
        node hop and one model evaluation per level walked.
        """
        ids, path = self._upper_walk(key)
        self.counters.node_hops += len(path)
        self.counters.model_evals += len(path)
        return ids, path

    def _upper_walk(
        self, key: Key
    ) -> tuple[tuple[int, ...], list[tuple[InnerNode, int]]]:
        """:meth:`_descend_upper` without counter traffic.

        Eq. 1 is computed inline, with the exact expression and clamp of
        :meth:`InnerNode.raw_route`, so the ranks are bit-identical to a
        walk of per-node calls; every locked op pays this walk.
        """
        node = self._root
        ranks: list[int] = []
        path: list[tuple[InnerNode, int]] = []
        boundary = self.config.h - 1  # >= 1: the config rejects h < 2
        while isinstance(node, InnerNode):
            fanout = node.fanout
            rank = int(fanout * (key - node.low_key) / (node.high_key - node.low_key))
            if rank < 0:
                rank = 0
            elif rank >= fanout:
                rank = fanout - 1
            ranks.append(rank)
            path.append((node, rank))
            if len(ranks) == boundary:
                break
            node = node.children[rank]
        return tuple(ranks), path

    def _descend_lower(
        self, key: Key, upper_path: Sequence[tuple[InnerNode, int]]
    ) -> tuple[LeafNode, list[tuple[InnerNode, int]]]:
        """Continue from the lock boundary to the leaf (under the lock).

        Re-reads the boundary child pointer, because the retrainer may have
        swapped the subtree between the upper walk and lock acquisition.
        An empty ``upper_path`` walks (and charges) the whole path from the
        root, as every write without a lock manager does.
        """
        path = list(upper_path)
        if path:
            parent, rank = path[-1]
            node: Node | None = parent.children[rank]
            if node is None:
                low, high = parent.child_interval(rank)
                node = make_leaf(
                    np.empty(0), [], low, high, self.config, self.counters
                )
                parent.children[rank] = node
        else:
            node = self._root
        while isinstance(node, InnerNode):
            self.counters.node_hops += 1
            rank = node.route(key)
            path.append((node, rank))
            child = node.children[rank]
            if child is None:
                low, high = node.child_interval(rank)
                child = make_leaf(
                    np.empty(0), [], low, high, self.config, self.counters
                )
                node.children[rank] = child
            node = child
        return node, path

    def _split_leaf(
        self, leaf: LeafNode, path: list[tuple[InnerNode, int]]
    ) -> bool:
        """Split an over-full leaf into a refined subtree in place.

        Refinement applies the TSMDP policy with its structural guards
        (concentration and probe-cost checks), so a leaf whose density the
        fitted hash already flattens is *not* split — the caller grows it
        instead. Returns True when the leaf was actually replaced.
        """
        pairs = leaf.ebh.sorted_items()
        keys = np.asarray([p[0] for p in pairs], dtype=np.float64)
        values = [p[1] for p in pairs]
        low, high = leaf.low_key, leaf.high_key
        if high <= low:
            high = low + 1.0
        agent = self.builder._ensure_tsmdp()
        subtree = refine_with_tsmdp(
            keys, values, low, high, agent, self.config, self.counters
        )
        if isinstance(subtree, LeafNode):
            return False  # guards fired: hashing handles this density
        self.counters.splits += 1
        if path:
            parent, rank = path[-1]
            parent.children[rank] = subtree
        else:
            self._root = subtree
        self._topology_epoch += 1
        return True
