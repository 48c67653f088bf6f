"""Flattened-tree execution plan for fused batch lookups and writes.

A per-key (or per-node grouped) descent spends its wall-clock in Python
bookkeeping when a batch fans out across many small leaves — the common
Chameleon shape is thousands of EBH leaves holding a handful of keys
each, so a 1024-key batch lands well under one key per leaf. This module
flattens the tree into numpy arrays once and then executes the whole key
vector with a few full-vector operations:

* **descent** — one gathered Eq. 1 evaluation per tree *level* rather
  than per node: every key carries its current node id, node parameters
  are gathered from per-node arrays, and the float expression replicates
  the scalar :meth:`InnerNode.route` operation-for-operation, so the
  routing decision (and therefore the visited leaf) is bit-identical;
* **leaf probing** — the visited leaves' slot arrays live in one
  concatenated store with per-leaf base offsets, so Eq. 2 home slots and
  the cd-window probes run across *all* keys at once regardless of which
  leaf each landed in. Probe *counts* use the closed forms of the scalar
  outward scan (match at ``+o`` costs ``2o`` probes — ``1`` at
  ``o == 0`` — match at ``-o`` costs ``2o + 1``, a miss scans the whole
  deduplicated window);
* **writes** — building a plan rebinds each leaf's slot arrays onto
  views of the concatenated store, so the write executors
  (:meth:`BatchQueryPlan.insert`, :meth:`BatchQueryPlan.delete`) scatter
  and clear slots for *all* leaves with single vector operations that
  update the live tree directly. Keys whose placement the scalar stream
  would have made interesting — an occupied home slot, a second batch
  key aimed at the same slot, a load-trigger point, a leaf that rehashed
  or split mid-batch — fall back to the scalar per-key logic in stream
  order, so splits, rehashes, conflict-degree growth, and every counter
  land exactly as the one-at-a-time stream would.

The plan is a cache, not part of the structure: it is rebuilt lazily
whenever the index's topology epoch moves (bulk load, full rebuild,
subtree swap, leaf split — see :meth:`ChameleonIndex._plan_version`).
Everything else leaves the plan valid. Writes, scalar or batched, land in
the leaves' views of the plan store; a leaf whose storage a rehash
replaced is marked *detached* and served by the scalar per-leaf logic
until the next rebuild; keys that reach a missing (``None``) child take
the scalar per-key walk, which re-reads the live pointer and materialises
the empty leaf exactly as :meth:`ChameleonIndex._descend_lower` would. The
per-leaf state the fused probes depend on (``n_keys``, conflict degree,
detached or not) is re-read before each fused op for exactly the leaves
written outside the plan since its last op (see
:meth:`BatchQueryPlan.sync_leaves`). Only the index's current plan may
execute writes — building a new plan rebinds the leaves' storage onto the
new store.

Counter totals are identical to the scalar loop by construction; the
equivalence tests in tests/test_batch_ops.py pin this property.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from ..analysis.contracts import declared_contract
from ..baselines.interfaces import ABSENT, DuplicateKeyError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .node import InnerNode, LeafNode, Node

if TYPE_CHECKING:
    from ..baselines.counters import Counters
    from .ebh import ErrorBoundedHash
    from .index import ChameleonIndex

#: ``child_table`` encoding: inner node -> id + 1 (positive), leaf node ->
#: -(id + 1) (negative), missing child -> 0.
_HOLE = 0


class BatchQueryPlan:
    """Immutable flattened snapshot of one Chameleon tree.

    Built by :func:`build_plan` and executed by the batch entry points of
    :class:`ChameleonIndex` when no lock manager is attached. Under a lock
    manager batches run the scalar stream instead (writes in batch order,
    lookups in key order), one query lock per run of consecutive keys in
    the same interval: building a
    plan rebinds every leaf's slot arrays onto one store, so with
    concurrent writers a build would need every interval's lock at once.

    The *topology* arrays are immutable; ``store_keys``/``store_values``
    are the live leaf storage (leaves hold views into them), and
    ``leaf_n``/``leaf_cd``/``leaf_detached`` mirror the live leaves: the
    write executors maintain them for their own writes, and
    :meth:`sync_leaves` re-reads them after writes made elsewhere, so one
    plan serves every read/write batch until the topology changes.
    """

    __slots__ = (
        "version",
        "inners",
        "leaves",
        "node_low",
        "node_span",
        "node_fan_f",
        "node_fan_i",
        "node_child_base",
        "child_table",
        "root_code",
        "leaf_low",
        "leaf_span",
        "leaf_cap",
        "leaf_alpha",
        "leaf_cd",
        "leaf_off",
        "leaf_parent",
        "leaf_rank",
        "leaf_n",
        "leaf_detached",
        "leaf_ebhs",
        "leaf_ids",
        "store_keys",
        "store_values",
    )

    version: int
    inners: list[InnerNode]
    leaves: list[LeafNode]
    node_low: np.ndarray
    node_span: np.ndarray
    node_fan_f: np.ndarray
    node_fan_i: np.ndarray
    node_child_base: np.ndarray
    child_table: np.ndarray
    root_code: int
    leaf_low: np.ndarray
    leaf_span: np.ndarray
    leaf_cap: np.ndarray
    leaf_alpha: np.ndarray
    leaf_cd: np.ndarray
    leaf_off: np.ndarray
    leaf_parent: np.ndarray
    leaf_rank: np.ndarray
    leaf_n: np.ndarray
    leaf_detached: np.ndarray
    leaf_ebhs: "list[ErrorBoundedHash]"
    leaf_ids: dict[int, int]
    store_keys: np.ndarray
    store_values: np.ndarray

    def __init__(self, version: int) -> None:
        self.version = version
        self.inners: list[InnerNode] = []
        self.leaves: list[LeafNode] = []
        self.leaf_ebhs = []
        self.root_code = _HOLE

    def sync_leaves(self, written: Iterable[LeafNode]) -> None:
        """Re-read the live state of plan leaves written outside the plan.

        Scalar writes land in the leaves directly: they change
        a leaf's ``n_keys`` and conflict degree, and a rehash detaches it.
        A stale conflict degree would make the probe window miss stored
        keys, and a stale ``n_keys`` would move the insert load trigger.
        ``written`` may hold leaves outside the plan; they are skipped.
        """
        ids = self.leaf_ids
        store = self.store_keys
        for leaf in written:
            lid = ids.get(id(leaf))
            if lid is None:
                continue
            e = leaf.ebh
            self.leaf_n[lid] = e.n_keys
            self.leaf_cd[lid] = e.conflict_degree
            # A rehash swaps in new arrays: the leaf stops aliasing the store.
            self.leaf_detached[lid] = e._keys.base is not store

    # -- raw primitives (counter-neutral) -------------------------------------

    @declared_contract("counter_neutral")
    def _raw_descend(
        self, karr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gathered Eq. 1 descent without counter traffic.

        Returns ``(cur, depth, hole_parent, hole_rank)`` where ``cur`` is
        each key's final node code (negative = leaf id, ``_HOLE`` = missing
        child), ``depth`` the number of inner nodes on its path — exactly
        the node hops (and routing model evaluations) the scalar walk
        charges — and the hole arrays record where a missing child was hit.
        """
        m = int(karr.size)
        cur = np.full(m, self.root_code, dtype=np.int64)
        depth = np.zeros(m, dtype=np.int64)
        hole_parent = np.full(m, -1, dtype=np.int64)
        hole_rank = np.zeros(m, dtype=np.int64)
        act = np.flatnonzero(cur > 0)
        while act.size:
            nid = cur[act] - 1
            depth[act] += 1
            k = karr[act]
            rank = np.trunc(
                self.node_fan_f[nid] * (k - self.node_low[nid]) / self.node_span[nid]
            ).astype(np.int64)
            rank = np.minimum(np.maximum(rank, 0), self.node_fan_i[nid] - 1)
            nxt = self.child_table[self.node_child_base[nid] + rank]
            hole = nxt == _HOLE
            if hole.any():
                hole_parent[act[hole]] = nid[hole]
                hole_rank[act[hole]] = rank[hole]
            cur[act] = nxt
            act = act[nxt > 0]
        return cur, depth, hole_parent, hole_rank

    @declared_contract("counter_neutral")
    def _raw_locate(
        self, karr: np.ndarray, sel: np.ndarray, lids: np.ndarray
    ) -> tuple[
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
    ]:
        """Fused Eq. 2 + cd-window probe for keys that reached a leaf.

        Counter-free: callers charge the scalar outward scan's closed-form
        probe counts themselves. Returns ``(found, abs_slot, match_off,
        match_minus, homes, limits, caps, offs)`` — ``abs_slot`` is each
        hit's position in the concatenated store (undefined for misses),
        ``homes`` the per-leaf home slot, and the last three the per-key
        probe geometry needed for the closed forms.
        """
        k = karr[sel]
        r = int(sel.size)
        low = self.leaf_low[lids]
        span = self.leaf_span[lids]
        caps = self.leaf_cap[lids]
        den = np.where(span > 0.0, span, 1.0)
        scaled = caps * (k - low) / den
        homes = np.floor(self.leaf_alpha[lids] * scaled).astype(np.int64) % caps
        homes = np.where(span > 0.0, homes, 0)
        limits = np.minimum(self.leaf_cd[lids], caps // 2)
        offs = self.leaf_off[lids]
        store = self.store_keys
        found = np.zeros(r, dtype=bool)
        abs_slot = np.zeros(r, dtype=np.int64)
        match_off = np.zeros(r, dtype=np.int64)
        match_minus = np.zeros(r, dtype=bool)
        for o in range(int(limits.max()) + 1 if r else 0):
            active = ~found & (limits >= o)
            if not active.any():
                break
            plus_slot = (homes + o) % caps
            hitp = active & (store[offs + plus_slot] == k)
            if hitp.any():
                found |= hitp
                match_off[hitp] = o
                abs_slot[hitp] = (offs + plus_slot)[hitp]
            if o:
                # The minus probe exists unless the ring apex (2o == c)
                # folds it onto the plus slot already inspected above.
                live = active & ~hitp & (2 * o != caps)
                minus_slot = (homes - o) % caps
                hitm = live & (store[offs + minus_slot] == k)
                if hitm.any():
                    found |= hitm
                    match_off[hitm] = o
                    match_minus[hitm] = True
                    abs_slot[hitm] = (offs + minus_slot)[hitm]
        return found, abs_slot, match_off, match_minus, homes, limits, caps, offs

    # -- execution ------------------------------------------------------------

    def lookup(self, index: "ChameleonIndex", karr: np.ndarray) -> list[Any | None]:
        """Fused lookup of a key vector; results aligned with ``karr``.

        Increments the index's counters by exactly the totals the scalar
        per-key loop would: one node hop and one model evaluation per
        inner node on each key's path, one model evaluation per Eq. 2
        home-slot computation, and the scalar outward scan's probe count.
        """
        counters = index.counters
        m = int(karr.size)
        out: list[Any | None] = [None] * m
        with obs_trace.span("plan.lookup").put("n", m):
            return self._lookup_fused(index, karr, counters, m, out)

    def _lookup_fused(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        counters: "Counters",
        m: int,
        out: list[Any | None],
    ) -> list[Any | None]:
        cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
        d = int(depth.sum())
        counters.node_hops += d
        counters.model_evals += d
        sel = np.flatnonzero(cur < 0)
        if sel.size:
            lids = -cur[sel] - 1
            det = self.leaf_detached[lids]
            if det.any():
                # A rehashed leaf no longer aliases the plan store; its
                # keys run the live scalar probe instead (identical
                # accounting, the descent is already charged).
                for i, lid in zip(sel[det].tolist(), lids[det].tolist()):
                    out[i] = self.leaves[lid].ebh.lookup(float(karr[i]))
                keep = ~det
                sel = sel[keep]
                lids = lids[keep]
            if sel.size:
                self._probe_leaves(index, karr, sel, lids, out)
        for i in np.flatnonzero(cur == _HOLE).tolist():
            # The plan recorded no leaf here when it was built. The scalar
            # walk below the slot re-reads the live pointer: a scalar walk
            # (or a retrainer swap) may have filled it since, otherwise it
            # materialises the empty leaf exactly as the scalar descent
            # does. Counting stays exact — the fused loop already charged
            # the hops down to this node.
            k = float(karr[i])
            leaf, _ = index._descend_lower(k, self._slot(hole_parent[i], hole_rank[i]))
            out[i] = leaf.ebh.lookup(k)
        return out

    def _slot(self, parent: Any, rank: Any) -> list[tuple[InnerNode, int]]:
        """The one-slot upper path that resumes a scalar walk below ``parent``."""
        return [(self.inners[int(parent)], int(rank))]

    def _probe_leaves(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        sel: np.ndarray,
        lids: np.ndarray,
        out: list[Any | None],
    ) -> None:
        """Fused Eq. 2 + cd-window probe for keys that reached a leaf."""
        counters = index.counters
        r = int(sel.size)
        counters.model_evals += r
        found, abs_slot, match_off, match_minus, _, limits, caps, _ = (
            self._raw_locate(karr, sel, lids)
        )
        miss_probes = 1 + 2 * limits - ((2 * limits == caps) & (limits > 0))
        probes = np.where(
            found,
            np.where(match_minus, 2 * match_off + 1, np.maximum(1, 2 * match_off)),
            miss_probes,
        )
        counters.slot_probes += int(probes.sum())
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe_many(
                "chameleon_probe_length_slots", probes.tolist()
            )
        if found.any():
            hit_idx = sel[found]
            vals = self.store_values[abs_slot[found]]
            for i, v in zip(hit_idx.tolist(), vals.tolist()):
                out[i] = v

    def insert(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        vals: "list[Any] | None",
    ) -> None:
        """Fused insert of a key vector, counter-identical to the stream.

        One gathered descent routes every key and one vectorised Eq. 2
        pass computes every home slot; placement then replays the scalar
        outward scan in stream order against the shared store — an
        occupancy *simulation* like :meth:`ErrorBoundedHash.place`, but
        probing slot values directly so duplicate detection,
        nearest-free-slot choice, probe totals, and conflict-degree growth
        are the scalar loop's, operation for operation. Per-leaf
        bookkeeping (``n_keys``, ``update_count``, the plan's load/cd
        state) accumulates in plain dicts and is flushed once per leaf.

        Keys the fast path cannot take — a load-trigger point, a leaf
        that rehashed (detached) or split (dirty) earlier in the batch, a
        hole in the plan — drop to the scalar per-key logic at their turn
        in the stream, with their pending leaf state flushed first, so
        splits and rehashes happen at exactly the scalar stream's points.
        A duplicate key raises mid-batch with every earlier key applied
        and exactly the scalar stream's counter prefix.
        """
        counters = index.counters
        m = int(karr.size)
        with obs_trace.span("plan.insert").put("n", m):
            cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
            sel = np.flatnonzero(cur < 0)
            all_lids = -cur[sel] - 1
            detached = self.leaf_detached
            att = ~detached[all_lids]
            asel = sel[att]
            alids = all_lids[att]
            homes_full = np.zeros(m, dtype=np.int64)
            if asel.size:
                k = karr[asel]
                low = self.leaf_low[alids]
                span = self.leaf_span[alids]
                caps = self.leaf_cap[alids]
                den = np.where(span > 0.0, span, 1.0)
                h = np.floor(
                    self.leaf_alpha[alids] * (caps * (k - low) / den)
                ).astype(np.int64) % caps
                homes_full[asel] = np.where(span > 0.0, h, 0)
            # Duplicate certificate: a stored key always sits within its
            # leaf's cd window (cd is the max placement offset since the
            # last rehash), so batch uniqueness plus a window check per
            # key proves no insert in this batch can raise. Certified
            # batches may then reorder across leaves — per-leaf streams
            # are independent in every observable — which unlocks the
            # vectorised first-key lane. The lane's own scan covers its
            # keys' windows as it probes, so only the residue needs the
            # counter-neutral pre-probe here; anything uncertified
            # replays the exact stream (mid-batch raise with the scalar
            # prefix applied).
            ks = np.sort(karr)
            certified = int(sel.size) == m and not (ks[1:] == ks[:-1]).any()
            if certified:
                # First occurrence per leaf, batch order: scatter positions
                # reversed so the earliest write wins per leaf id.
                pos = np.full(len(self.leaves), -1, dtype=np.int64)
                pos[all_lids[::-1]] = np.arange(m - 1, -1, -1, dtype=np.int64)
                first = pos[all_lids] == np.arange(m)
                trig = (
                    self.leaf_n[all_lids] + 1
                ) / self.leaf_cap[all_lids] > index.config.max_leaf_load
                vect = first & att & ~trig
                sidx = np.flatnonzero(~vect)
                satt = sidx[att[sidx]]
                if satt.size:
                    found = self._raw_locate(karr, satt, all_lids[satt])[0]
                    certified = not found.any()
                if certified:
                    for j in sidx[~att[sidx]].tolist():
                        lid = int(all_lids[j])
                        if (self.leaves[lid].ebh._keys == karr[j]).any():
                            certified = False
                            break
                if certified and self._insert_certified(
                    index, karr, vals, cur, depth, hole_parent, hole_rank,
                    homes_full, all_lids, vect,
                ):
                    return
            self._insert_stream(
                index, karr, vals, cur, depth, hole_parent, hole_rank,
                homes_full, all_lids,
            )

    def _insert_certified(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        vals: "list[Any] | None",
        cur: np.ndarray,
        depth: np.ndarray,
        hole_parent: np.ndarray,
        hole_rank: np.ndarray,
        homes_full: np.ndarray,
        all_lids: np.ndarray,
        vect: np.ndarray,
    ) -> bool:
        """Vectorised lane for a duplicate-certified, hole-free batch.

        Each leaf's first key — the bulk of a batch spread over many
        leaves — runs through one offset-synchronous replay of the scalar
        outward scan against the store (exact probe counts, first-free
        choice, and cd growth), committed with one scatter. Later keys of
        a leaf, load-trigger points, and detached leaves fall through to
        the scalar sim afterwards, preserving each leaf's stream order —
        the only order the scalar observables depend on. The scan doubles
        as the lane's duplicate check (it covers every cd window it
        probes); finding one aborts before anything is written and the
        caller replays the exact stream — returns False in that case.
        """
        counters = index.counters
        leaves = self.leaves
        vidx = np.flatnonzero(vect)
        r = int(vidx.size)
        if r:
            lids_v = all_lids[vidx]
            caps_v = self.leaf_cap[lids_v]
            offs_v = self.leaf_off[lids_v]
            cds_v = self.leaf_cd[lids_v]
            homes_v = homes_full[vidx]
            kv = karr[vidx]
            store = self.store_keys
            free_slot = np.full(r, -1, dtype=np.int64)
            free_off = np.full(r, -1, dtype=np.int64)
            probes = np.zeros(r, dtype=np.int64)
            act = np.arange(r)
            offset = 0
            # Offset-synchronous scan: every still-running key probes its
            # plus (and deduplicated minus) slot at this offset, locks in
            # the first free slot it sees, and stops once a free slot is
            # known and the cd window is cleared — the scalar loop's exact
            # probe schedule, one offset at a time across the batch. A
            # gathered slot equal to its key is a duplicate: nothing has
            # been written yet, so the lane can still abort cleanly.
            while act.size:
                h = homes_v[act]
                c = caps_v[act]
                o = offs_v[act]
                s = (h + offset) % c
                g = store[o + s]
                if (g == kv[act]).any():
                    return False
                probes[act] += 1
                nf = free_slot[act] < 0
                hit = nf & (g != g)
                if hit.any():
                    ai = act[hit]
                    free_slot[ai] = s[hit]
                    free_off[ai] = offset
                if offset:
                    mm = 2 * offset != c
                    if mm.any():
                        am = act[mm]
                        c2 = caps_v[am]
                        s2 = (homes_v[am] - offset) % c2
                        g2 = store[offs_v[am] + s2]
                        if (g2 == kv[am]).any():
                            return False
                        probes[am] += 1
                        nf2 = free_slot[am] < 0
                        hit2 = nf2 & (g2 != g2)
                        if hit2.any():
                            ai2 = am[hit2]
                            free_slot[ai2] = s2[hit2]
                            free_off[ai2] = offset
                done = (free_slot[act] >= 0) & (offset >= cds_v[act])
                act = act[~done]
                offset += 1
            abs_slots = offs_v + free_slot
            store[abs_slots] = karr[vidx]
            vvals = np.empty(r, dtype=object)
            if vals is None:
                vvals[:] = karr[vidx].tolist()
            else:
                for i, j in enumerate(vidx.tolist()):
                    vvals[i] = vals[j]
            self.store_values[abs_slots] = vvals
            counters.node_hops += int(depth[vidx].sum())
            counters.model_evals += int(depth[vidx].sum()) + r
            counters.slot_probes += int(probes.sum())
            self.leaf_n[lids_v] += 1
            grew = free_off > cds_v
            self.leaf_cd[lids_v] = np.maximum(cds_v, free_off)
            ebhs = self.leaf_ebhs
            for lid in lids_v.tolist():
                ebhs[lid].n_keys += 1
                leaves[lid].update_count += 1
            drift = index._drift
            if drift is not None:
                for lid in lids_v.tolist():
                    drift[leaves[lid]] = None
            for i in np.flatnonzero(grew).tolist():
                ebhs[int(lids_v[i])].conflict_degree = int(free_off[i])
            index._n += r
            index.updates_since_build += r
        slow = np.flatnonzero(~vect)
        if slow.size:
            vals_s = (
                None if vals is None else [vals[j] for j in slow.tolist()]
            )
            self._insert_stream(
                index, karr[slow], vals_s, cur[slow], depth[slow],
                hole_parent[slow], hole_rank[slow], homes_full[slow],
                all_lids[slow],
            )
        return True

    def _insert_stream(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        vals: "list[Any] | None",
        cur: np.ndarray,
        depth: np.ndarray,
        hole_parent: np.ndarray,
        hole_rank: np.ndarray,
        homes_full: np.ndarray,
        all_lids: np.ndarray,
    ) -> None:
        counters = index.counters
        leaves = self.leaves
        max_load = index.config.max_leaf_load
        keys_l = karr.tolist()
        codes = cur.tolist()
        depth_l = depth.tolist()
        homes_l = homes_full.tolist()
        detached = self.leaf_detached
        # Per-leaf simulation state. The placement loop probes each leaf's
        # own arrays (for attached leaves those are views into the plan
        # store, so the fused gather paths see every write), which lets
        # detached leaves sim exactly like attached ones — their home slots
        # just come from the live model instead of the precomputed vector
        # (``stale_home``).
        ka_d: dict[int, np.ndarray] = {}
        va_d: dict[int, np.ndarray] = {}
        if all_lids.size:
            ulids = np.unique(all_lids)
            att_u = ulids[~detached[ulids]]
            al = att_u.tolist()
            cap_d = dict(zip(al, self.leaf_cap[att_u].tolist()))
            cd_d = dict(zip(al, self.leaf_cd[att_u].tolist()))
            n_d = dict(zip(al, self.leaf_n[att_u].tolist()))
            stale_home = set(ulids[detached[ulids]].tolist())
            for lid in stale_home:
                e = leaves[lid].ebh
                cap_d[lid] = e.capacity
                cd_d[lid] = e.conflict_degree
                n_d[lid] = e.n_keys
            for lid in ulids.tolist():
                e = leaves[lid].ebh
                ka_d[lid] = e._keys
                va_d[lid] = e._values
        else:
            cap_d = cd_d = n_d = {}
            stale_home = set()
        base_n = dict(n_d)
        blocked: set[int] = set()
        # Local counter accumulators: flushed exactly once, including on
        # the duplicate-raise path, so totals match the scalar prefix.
        hops = 0
        evals = 0
        probes_acc = 0
        landed = 0

        ebhs = self.leaf_ebhs

        def flush_leaf(lid: int) -> None:
            nonlocal landed
            e = ebhs[lid]
            delta = n_d[lid] - base_n[lid]
            if delta:
                e.n_keys += delta
                leaves[lid].update_count += delta
                if index._drift is not None:
                    index._drift[leaves[lid]] = None
                landed += delta
            if cd_d[lid] != e.conflict_degree:
                e.conflict_degree = cd_d[lid]

        try:
            for j in range(int(karr.size)):
                code = codes[j]
                key = keys_l[j]
                value = key if vals is None else vals[j]
                if code < 0:
                    lid = -code - 1
                    if lid not in blocked:
                        cap = cap_d[lid]
                        n0 = n_d[lid]
                        if (n0 + 1) / cap <= max_load:
                            # Scalar ebh.insert, replayed on the leaf's
                            # arrays: dup check before free check at every
                            # probed slot, plus-then-minus within each
                            # offset, stop once a free slot is known and
                            # the cd window is cleared.
                            d = depth_l[j]
                            hops += d
                            evals += d + 1
                            if lid in stale_home:
                                home = leaves[lid].ebh._raw_home_slot(key)
                            else:
                                home = homes_l[j]
                            ka = ka_d[lid]
                            va = va_d[lid]
                            cd = cd_d[lid]
                            probes = 0
                            free_slot = -1
                            free_offset = -1
                            for offset in range(cap // 2 + 1):
                                s = (home + offset) % cap
                                probes += 1
                                stored = ka[s]
                                if stored == key:
                                    probes_acc += probes
                                    raise DuplicateKeyError(
                                        f"key already present: {key!r}"
                                    )
                                if free_slot < 0 and stored != stored:
                                    free_slot, free_offset = s, offset
                                if offset and 2 * offset != cap:
                                    s2 = (home - offset) % cap
                                    probes += 1
                                    stored = ka[s2]
                                    if stored == key:
                                        probes_acc += probes
                                        raise DuplicateKeyError(
                                            f"key already present: {key!r}"
                                        )
                                    if free_slot < 0 and stored != stored:
                                        free_slot, free_offset = s2, offset
                                if free_slot >= 0 and offset >= cd:
                                    break
                            probes_acc += probes
                            ka[free_slot] = key
                            va[free_slot] = value
                            n_d[lid] = n0 + 1
                            if free_offset > cd:
                                cd_d[lid] = free_offset
                            continue
                        # Load trigger: sync this leaf's pending state and
                        # run the scalar maintenance + insert at its exact
                        # stream position. Unless the leaf split away, the
                        # sim resumes from the leaf's post-maintenance
                        # state — a rehashed leaf continues on its new
                        # arrays with live-model home slots.
                        flush_leaf(lid)
                        del n_d[lid], base_n[lid]
                        hops += depth_l[j]
                        evals += depth_l[j]
                        p = int(self.leaf_parent[lid])
                        path = (
                            []
                            if p < 0
                            else [(self.inners[p], int(self.leaf_rank[lid]))]
                        )
                        _, split_done, rehash_done = index._insert_at_leaf(
                            key, value, leaves[lid], path
                        )
                        if split_done:
                            blocked.add(lid)
                            continue
                        e = leaves[lid].ebh
                        if rehash_done:
                            self.leaf_detached[lid] = True
                            stale_home.add(lid)
                            ka_d[lid] = e._keys
                            va_d[lid] = e._values
                        else:
                            self.leaf_cd[lid] = e.conflict_degree
                            self.leaf_n[lid] = e.n_keys
                        cap_d[lid] = e.capacity
                        cd_d[lid] = e.conflict_degree
                        n_d[lid] = base_n[lid] = e.n_keys
                        continue
                    # Split earlier in the batch: the plan's leaf routing
                    # is stale, so continue from the recorded parent slot.
                    p = int(self.leaf_parent[lid])
                    if p < 0:
                        # A root leaf became a subtree: full re-descent,
                        # whose pre-charged depth was zero.
                        index._insert_locked(key, value)
                        continue
                    slot = self._slot(p, self.leaf_rank[lid])
                else:
                    slot = self._slot(hole_parent[j], hole_rank[j])
                # The fused descent pre-charged the hops down to the slot;
                # the scalar walk below it charges the rest.
                hops += depth_l[j]
                evals += depth_l[j]
                leaf, path = index._descend_lower(key, slot)
                index._insert_at_leaf(key, value, leaf, path)
        finally:
            counters.node_hops += hops
            counters.model_evals += evals
            counters.slot_probes += probes_acc
            for lid in n_d:
                flush_leaf(lid)
                if not detached[lid]:
                    self.leaf_n[lid] = n_d[lid]
                    if cd_d[lid] != self.leaf_cd[lid]:
                        self.leaf_cd[lid] = cd_d[lid]
            if landed:
                index._n += landed
                index.updates_since_build += landed

    def delete(self, index: "ChameleonIndex", karr: np.ndarray) -> list[bool]:
        """Fused delete of a (duplicate-free) key vector.

        One gathered descent plus one fused window probe locate every
        key's slot; the hits are cleared with one vector store. Deletes
        never trigger maintenance and never change the conflict degree,
        so the whole batch fuses — only detached leaves and plan holes
        run the scalar continuation. Counter totals match the scalar
        stream exactly (the closed-form probe counts of the outward
        scan); flags are positionally aligned with ``karr``.
        """
        counters = index.counters
        m = int(karr.size)
        out = np.zeros(m, dtype=bool)
        with obs_trace.span("plan.delete").put("n", m):
            cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
            d = int(depth.sum())
            counters.node_hops += d
            counters.model_evals += d
            sel = np.flatnonzero(cur < 0)
            if sel.size:
                lids = -cur[sel] - 1
                det = self.leaf_detached[lids]
                if det.any():
                    for i, lid in zip(sel[det].tolist(), lids[det].tolist()):
                        k = float(karr[i])
                        out[i] = index._delete_at_leaf(self.leaves[lid], k) is not ABSENT
                    keep = ~det
                    sel = sel[keep]
                    lids = lids[keep]
            if sel.size:
                r = int(sel.size)
                counters.model_evals += r
                found, abs_slot, match_off, match_minus, _, limits, caps, _ = (
                    self._raw_locate(karr, sel, lids)
                )
                miss_probes = 1 + 2 * limits - ((2 * limits == caps) & (limits > 0))
                probes = np.where(
                    found,
                    np.where(
                        match_minus, 2 * match_off + 1, np.maximum(1, 2 * match_off)
                    ),
                    miss_probes,
                )
                counters.slot_probes += int(probes.sum())
                if found.any():
                    hit_slots = abs_slot[found]
                    self.store_keys[hit_slots] = np.nan
                    self.store_values[hit_slots] = None
                    out[sel[found]] = True
                    cnt = np.bincount(lids[found], minlength=len(self.leaves))
                    hit_lids = np.flatnonzero(cnt)
                    self.leaf_n[hit_lids] -= cnt[hit_lids]
                    ebhs = self.leaf_ebhs
                    leaves = self.leaves
                    for lid, rem in zip(
                        hit_lids.tolist(), cnt[hit_lids].tolist()
                    ):
                        ebhs[lid].n_keys -= rem
                        leaves[lid].update_count += rem
                    drift = index._drift
                    if drift is not None:
                        for lid in hit_lids.tolist():
                            drift[leaves[lid]] = None
                    removed = int(found.sum())
                    index._n -= removed
                    index.updates_since_build += removed
            for i in np.flatnonzero(cur == _HOLE).tolist():
                k = float(karr[i])
                leaf, _ = index._descend_lower(k, self._slot(hole_parent[i], hole_rank[i]))
                out[i] = index._delete_at_leaf(leaf, k) is not ABSENT
            return out.tolist()


def build_plan(root: Node, version: int) -> BatchQueryPlan:
    """Flatten ``root`` into a :class:`BatchQueryPlan` snapshot."""
    with obs_trace.span("plan.build") as sp:
        plan = _build_plan(root, version)
        if obs_trace.ACTIVE is not None:
            sp.put("inners", len(plan.inners)).put("leaves", len(plan.leaves))
        return plan


def _build_plan(root: Node, version: int) -> BatchQueryPlan:
    plan = BatchQueryPlan(version)
    inners = plan.inners
    leaves = plan.leaves
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            leaves.append(node)
        else:
            inners.append(node)
            stack.extend(c for c in node.children if c is not None)

    ni = len(inners)
    nl = len(leaves)
    fanouts = np.fromiter((n.fanout for n in inners), dtype=np.int64, count=ni)
    child_base = np.zeros(ni, dtype=np.int64)
    if ni > 1:
        np.cumsum(fanouts[:-1], out=child_base[1:])
    table = np.zeros(int(fanouts.sum()) if ni else 0, dtype=np.int64)
    inner_ids = {id(n): i for i, n in enumerate(inners)}
    leaf_ids = plan.leaf_ids = {id(n): i for i, n in enumerate(leaves)}
    leaf_parent = np.full(nl, -1, dtype=np.int64)
    leaf_rank = np.zeros(nl, dtype=np.int64)
    for i, n in enumerate(inners):
        base = int(child_base[i])
        for rank, child in enumerate(n.children):
            if child is None:
                continue
            if isinstance(child, InnerNode):
                table[base + rank] = inner_ids[id(child)] + 1
            else:
                lid = leaf_ids[id(child)]
                table[base + rank] = -(lid + 1)
                leaf_parent[lid] = i
                leaf_rank[lid] = rank
    plan.node_low = np.fromiter((n.low_key for n in inners), dtype=np.float64, count=ni)
    plan.node_span = np.fromiter(
        (n.high_key - n.low_key for n in inners), dtype=np.float64, count=ni
    )
    plan.node_fan_f = fanouts.astype(np.float64)
    plan.node_fan_i = fanouts
    plan.node_child_base = child_base
    plan.child_table = table
    plan.root_code = 1 if isinstance(root, InnerNode) else -1

    caps = np.fromiter((lf.ebh.capacity for lf in leaves), dtype=np.int64, count=nl)
    leaf_off = np.zeros(nl, dtype=np.int64)
    if nl > 1:
        np.cumsum(caps[:-1], out=leaf_off[1:])
    plan.leaf_cap = caps
    plan.leaf_off = leaf_off
    plan.leaf_parent = leaf_parent
    plan.leaf_rank = leaf_rank
    plan.leaf_low = np.fromiter(
        (lf.ebh.low_key for lf in leaves), dtype=np.float64, count=nl
    )
    plan.leaf_span = np.fromiter(
        (lf.ebh.high_key - lf.ebh.low_key for lf in leaves),
        dtype=np.float64,
        count=nl,
    )
    plan.leaf_alpha = np.fromiter(
        (float(lf.ebh.alpha) for lf in leaves), dtype=np.float64, count=nl
    )
    plan.leaf_cd = np.fromiter(
        (lf.ebh.conflict_degree for lf in leaves), dtype=np.int64, count=nl
    )
    plan.leaf_n = np.fromiter(
        (lf.ebh.n_keys for lf in leaves), dtype=np.int64, count=nl
    )
    plan.leaf_detached = np.zeros(nl, dtype=bool)
    plan.leaf_ebhs = [lf.ebh for lf in leaves]
    if nl:
        plan.store_keys = np.concatenate([lf.ebh._keys for lf in leaves])
        plan.store_values = np.concatenate([lf.ebh._values for lf in leaves])
        # Rebind each leaf's slot arrays onto views of the concatenated
        # store: the write executors' vector scatters then update the
        # live tree directly, and scalar EBH operations keep writing
        # through. A rehash replaces the leaf's arrays wholesale, which
        # detaches it naturally; numpy views pickle (and deepcopy) as
        # standalone copies, so persistence is unaffected.
        for lid, lf in enumerate(leaves):
            off = int(leaf_off[lid])
            cap = int(caps[lid])
            lf.ebh._keys = plan.store_keys[off : off + cap]
            lf.ebh._values = plan.store_values[off : off + cap]
    else:
        plan.store_keys = np.empty(0, dtype=np.float64)
        plan.store_values = np.empty(0, dtype=object)
    return plan
