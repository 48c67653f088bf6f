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
  concatenated store with per-leaf base offsets, so Eq. 2 home slots run
  across *all* keys at once regardless of which leaf each landed in, and
  one ragged gather reads every key's own cd window (``1 + 2·min(cd,
  c // 2)`` slots, less the ring apex) in the scalar scan's probe order
  (+0, +1, −1, +2, …): a batch pays the sum of its keys' windows, not
  its widest window times its size. Probe *counts* use the closed forms
  of the scalar outward scan (match at ``+o`` costs ``2o`` probes — ``1``
  at ``o == 0`` — match at ``-o`` costs ``2o + 1``, a miss scans the
  whole deduplicated window);
* **writes** — building a plan rebinds each leaf's slot arrays onto
  views of the concatenated store, so the write executors
  (:meth:`BatchQueryPlan.insert`, :meth:`BatchQueryPlan.delete`) scatter
  and clear slots for *all* leaves with single vector operations that
  update the live tree directly. Every key a vector lane does not take —
  a cd window with no free slot, a second batch key in the same leaf, a
  load-trigger point, a detached leaf, a hole — resumes the scalar op
  below the ``(parent, rank)`` slot where the fused descent stopped, in
  stream order, so splits, rehashes, conflict-degree growth, and every
  counter land exactly as the one-at-a-time stream would.

The plan is a cache, not part of the structure: it is rebuilt lazily
whenever the index's topology epoch moves (bulk load, full rebuild,
subtree swap, leaf split, reclaim — see
:meth:`ChameleonIndex._plan_version`). Everything else leaves the plan
valid. Writes, scalar or batched, land in the leaves' views of the plan
store; a leaf whose storage a rehash replaced is *detached*, and its
keys resume the scalar op until the next rebuild; so do keys that reach
a missing (``None``) child, whose scalar walk re-reads the live pointer:
a leaf an insert has made there since is served, a hole still empty
answers "absent" to a lookup or delete, and only an insert makes a leaf
in it, exactly as the scalar ops do. A delete that empties a non-root
leaf turns its slot back into a hole (the fused delete does so for every
leaf its batch empties), which moves the epoch. The per-leaf state the
fused probes depend on (``n_keys``, conflict degree, detached or not) is
re-read before each fused op for exactly the leaves a scalar write —
the plan's own continuation included — has touched since its last op
(see :meth:`BatchQueryPlan.sync_leaves`). Only the index's current plan may
execute writes — building a new plan rebinds the leaves' storage onto the
new store.

Counter totals are identical to the scalar loop by construction; the
equivalence tests in tests/test_batch_ops.py pin this property.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from ..analysis.contracts import declared_contract
from ..baselines.interfaces import ABSENT
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .node import InnerNode, LeafNode, Node

if TYPE_CHECKING:
    from .ebh import ErrorBoundedHash
    from .index import ChameleonIndex

#: ``child_table`` encoding: inner node -> id + 1 (positive), leaf node ->
#: -(id + 1) (negative), missing child -> 0.
_HOLE = 0


def _window_len(limits: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Distinct slots in each key's cd window: ``1 + 2·lim``, less the ring
    apex (``2·lim == c``) where the minus probe folds onto the plus one.
    This is also the probe count of a miss."""
    return 1 + 2 * limits - ((2 * limits == caps) & (limits > 0))


def _probe_counts(
    found: np.ndarray,
    match_off: np.ndarray,
    match_minus: np.ndarray,
    limits: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """The scalar outward scan's probe count per key, in closed form: a hit
    at ``+o`` costs ``2o`` (``1`` at ``o == 0``), at ``-o`` ``2o + 1``, and a
    miss its whole window."""
    hit = np.where(match_minus, 2 * match_off + 1, np.maximum(1, 2 * match_off))
    return np.where(found, hit, _window_len(limits, caps))


def _windows(
    homes: np.ndarray, caps: np.ndarray, limits: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every key's cd window as one ragged vector, key after key.

    Within a key, window position ``p`` is the scalar outward scan's
    ``p``-th probe (+0, +1, −1, +2, −2, …): offset ``(p + 1) >> 1``, on the
    minus side when ``p`` is even and nonzero. Returns ``(kid, off,
    minus, slot, w)``: per position the key's index, offset, side and
    leaf-local slot, and per key its window length.
    """
    w = _window_len(limits, caps)
    kid = np.repeat(np.arange(w.size), w)
    p = np.arange(kid.size) - np.repeat(np.cumsum(w) - w, w)
    off = (p + 1) >> 1
    minus = (p & 1 == 0) & (p > 0)
    slot = (homes[kid] + np.where(minus, -off, off)) % caps[kid]
    return kid, off, minus, slot, w


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
    vector lanes maintain them for their own writes, every scalar write
    (the plan's own continuation included) records its leaf in the
    index's written set, and :meth:`sync_leaves` re-reads those before
    the next fused op, so one plan serves every read/write batch until
    the topology changes.
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
        """Re-read the live state of plan leaves written by scalar ops.

        Scalar writes (the plan's own continuation included) land in the
        leaves directly: they change
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
    def _raw_homes(self, k: np.ndarray, lids: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Vectorised Eq. 2: each key's home slot in its plan leaf
        (``caps`` is ``leaf_cap[lids]``), bit-identical to the scalar
        :meth:`ErrorBoundedHash._raw_home_slot`."""
        span = self.leaf_span[lids]
        den = np.where(span > 0.0, span, 1.0)
        scaled = caps * (k - self.leaf_low[lids]) / den
        homes = np.floor(self.leaf_alpha[lids] * scaled).astype(np.int64) % caps
        return np.where(span > 0.0, homes, 0)

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
        caps = self.leaf_cap[lids]
        homes = self._raw_homes(k, lids, caps)
        limits = np.minimum(self.leaf_cd[lids], caps // 2)
        offs = self.leaf_off[lids]
        found = np.zeros(r, dtype=bool)
        abs_slot = np.zeros(r, dtype=np.int64)
        match_off = np.zeros(r, dtype=np.int64)
        match_minus = np.zeros(r, dtype=bool)
        # A key is stored once and its window slots are distinct, so each
        # key has at most one hit: the hits scatter straight into place.
        kid, off, minus, slot, _ = _windows(homes, caps, limits)
        at = offs[kid] + slot
        hit = np.flatnonzero(self.store_keys[at] == k[kid])
        hk = kid[hit]
        found[hk] = True
        abs_slot[hk] = at[hit]
        match_off[hk] = off[hit]
        match_minus[hk] = minus[hit]
        return found, abs_slot, match_off, match_minus, homes, limits, caps, offs

    @declared_contract("counter_neutral")
    def _raw_free_slots(
        self, kv: np.ndarray, lids: np.ndarray, homes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The insert lane's scan: each key's first free slot in its cd window.

        ``None`` if a window holds its own key (a duplicate). Otherwise
        ``(has, abs_slot, free_off, probes)`` for the keys (indexes into
        ``kv``) whose window has a free slot: the first one in scan order,
        its offset, and the window length — the scalar scan clears the
        whole window once it knows a free slot. A key not in ``has`` needs
        a slot past cd, which only the scalar scan finds.
        """
        caps = self.leaf_cap[lids]
        kid, off, _, slot, w = _windows(
            homes, caps, np.minimum(self.leaf_cd[lids], caps // 2)
        )
        at = self.leaf_off[lids][kid] + slot
        g = self.store_keys[at]
        if (g == kv[kid]).any():
            return None
        free = np.flatnonzero(g != g)
        first = free[np.diff(kid[free], prepend=-1) != 0]
        has = kid[first]
        return has, at[first], off[first], w[has]

    # -- execution ------------------------------------------------------------

    def _fused_keys(self, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split a fused descent's keys between the vector probe and the
        scalar continuation.

        Returns ``(sel, lids, rest)``: the positions of the keys that
        reached an attached plan leaf and those leaves' ids, then the
        positions, in batch order, of every other key — a detached leaf's
        or a hole's (:meth:`_resume` finishes them).
        """
        sel = np.flatnonzero(cur < 0)
        lids = -cur[sel] - 1
        det = self.leaf_detached[lids]
        if det.any():
            sel = sel[~det]
            lids = lids[~det]
        elif sel.size == cur.size:
            return sel, lids, sel[:0]
        rest = np.ones(cur.size, dtype=bool)
        rest[sel] = False
        return sel, lids, np.flatnonzero(rest)

    def _resume(
        self,
        karr: np.ndarray,
        cur: np.ndarray,
        hole_parent: np.ndarray,
        hole_rank: np.ndarray,
        rest: np.ndarray,
    ) -> list[tuple[int, float, list[tuple[InnerNode, int]]]]:
        """``(position, key, slot)`` for each key in ``rest``, where ``slot``
        is the one-slot path at which the fused descent stopped: its leaf's
        ``(parent, rank)``, the hole's, or ``[]`` for a root leaf.

        The scalar walk resumed there (:meth:`ChameleonIndex._descend_lower`)
        re-reads the live pointer, so a leaf still in place costs no hop, a
        leaf that split earlier in the batch walks (and charges) its new
        subtree, and a hole answers "absent" unless an insert has filled it;
        the hops down to the slot are the fused descent's ``depth``.
        """
        if not rest.size:
            return []
        c = cur[rest]
        parent = hole_parent[rest]
        rank = hole_rank[rest]
        at_leaf = c < 0
        if at_leaf.any():
            lids = -c[at_leaf] - 1
            parent[at_leaf] = self.leaf_parent[lids]
            rank[at_leaf] = self.leaf_rank[lids]
        inners = self.inners
        return [
            (i, k, [] if p < 0 else [(inners[p], r)])
            for i, k, p, r in zip(
                rest.tolist(), karr[rest].tolist(), parent.tolist(), rank.tolist()
            )
        ]

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
        with obs_trace.span("plan.lookup").put("n", m) as sp:
            cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
            d = int(depth.sum())
            counters.node_hops += d
            counters.model_evals += d
            sel, lids, rest = self._fused_keys(cur)
            if sel.size:
                counters.model_evals += int(sel.size)
                found, abs_slot, match_off, match_minus, _, limits, caps, _ = (
                    self._raw_locate(karr, sel, lids)
                )
                probes = _probe_counts(found, match_off, match_minus, limits, caps)
                counters.slot_probes += int(probes.sum())
                if obs_trace.ACTIVE is not None:
                    sp.put("window_slots", int(_window_len(limits, caps).sum()))
                if obs_metrics.ACTIVE is not None:
                    obs_metrics.ACTIVE.observe_many(
                        "chameleon_probe_length_slots", probes.tolist()
                    )
                vals = self.store_values[abs_slot[found]]
                for i, v in zip(sel[found].tolist(), vals.tolist()):
                    out[i] = v
            for i, k, slot in self._resume(karr, cur, hole_parent, hole_rank, rest):
                leaf = index._descend_lower(k, slot)[0]
                if leaf is not None:
                    out[i] = leaf.ebh.lookup(k)
            return out

    def insert(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        vals: "list[Any] | None",
    ) -> None:
        """Fused insert of a key vector, counter-identical to the stream.

        One gathered descent routes every key. In a duplicate-certified
        batch each leaf's first key takes the first free slot of its cd
        window from one ragged gather (:meth:`_insert_certified`). Every
        other key — a leaf's later keys, a load-trigger point, a full
        window, a detached leaf, a hole, or the whole of an uncertified
        batch — then runs the scalar insert below the slot its fused
        descent reached (:meth:`_resume`), in stream order, so splits,
        rehashes, cd growth and every counter land at exactly the scalar
        stream's points. A duplicate key raises mid-batch with every
        earlier key applied and exactly the scalar stream's counter prefix.
        """
        counters = index.counters
        m = int(karr.size)
        with obs_trace.span("plan.insert").put("n", m) as sp:
            cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
            rest = None
            # Duplicate certificate: a stored key always sits within its
            # leaf's cd window (cd is the max placement offset since the
            # last rehash), so batch uniqueness plus a window check per
            # key proves no insert in this batch can raise. Certified
            # batches may then reorder across leaves — per-leaf streams
            # are independent in every observable — which unlocks the
            # vectorised first-key lane. The lane's own gather covers its
            # keys' windows, so only the residue needs the
            # counter-neutral pre-probe here; anything uncertified runs
            # the exact stream (mid-batch raise with the scalar prefix
            # applied).
            ks = np.sort(karr)
            if (cur < 0).all() and not (ks[1:] == ks[:-1]).any():
                lids = -cur - 1
                att = ~self.leaf_detached[lids]
                # First occurrence per leaf, batch order: scatter positions
                # reversed so the earliest write wins per leaf id.
                pos = np.full(len(self.leaves), -1, dtype=np.int64)
                pos[lids[::-1]] = np.arange(m - 1, -1, -1, dtype=np.int64)
                first = pos[lids] == np.arange(m)
                trig = (
                    self.leaf_n[lids] + 1
                ) / self.leaf_cap[lids] > index.config.max_leaf_load
                vect = first & att & ~trig
                sidx = np.flatnonzero(~vect)
                satt = sidx[att[sidx]]
                certified = (
                    not satt.size
                    or not self._raw_locate(karr, satt, lids[satt])[0].any()
                )
                if certified:
                    for j in sidx[~att[sidx]].tolist():
                        if (self.leaves[int(lids[j])].ebh._keys == karr[j]).any():
                            certified = False
                            break
                if obs_trace.ACTIVE is not None:
                    # The pre-probe gathers the residue's windows; the
                    # lane gathers the first keys' too when it runs.
                    g = lids[att] if certified else lids[satt]
                    lim = np.minimum(self.leaf_cd[g], self.leaf_cap[g] // 2)
                    sp.put("window_slots", int(_window_len(lim, self.leaf_cap[g]).sum()))
                if certified:
                    rest = self._insert_certified(index, karr, vals, depth, lids, vect)
            if rest is None:
                rest = np.arange(m)
            for (i, key, slot), d in zip(
                self._resume(karr, cur, hole_parent, hole_rank, rest),
                depth[rest].tolist(),
            ):
                # The fused descent's hops down to the slot, charged key by
                # key as the scalar walk charges them: a raise leaves the
                # stream's exact counter prefix.
                counters.node_hops += d
                counters.model_evals += d
                leaf, path = index._descend_lower(key, slot)
                index._insert_at_leaf(key, key if vals is None else vals[i], leaf, path)

    def _insert_certified(
        self,
        index: "ChameleonIndex",
        karr: np.ndarray,
        vals: "list[Any] | None",
        depth: np.ndarray,
        lids: np.ndarray,
        vect: np.ndarray,
    ) -> np.ndarray | None:
        """Vectorised lane for a duplicate-certified, hole-free batch.

        Each leaf's first key — the bulk of a batch spread over many
        leaves — takes the first free slot of its cd window from one
        ragged gather (:meth:`_raw_free_slots`): the scalar outward scan's
        free-slot choice and probe count, committed with one scatter. A
        slot inside the window never grows cd. Returns the positions of
        the keys left for the scalar continuation: later keys of a leaf,
        load-trigger points, detached leaves and first keys whose window
        is full. Each comes after its leaf's lane key, if any, so each
        leaf's stream order — the only order the scalar observables depend
        on — holds. The gather doubles as the lane's duplicate check (a stored
        key sits inside its window); finding one aborts before anything is
        written and returns None, and the caller runs the exact stream.
        """
        counters = index.counters
        leaves = self.leaves
        vidx = np.flatnonzero(vect)
        if vidx.size:
            lids_v = lids[vidx]
            kv = karr[vidx]
            lane = self._raw_free_slots(
                kv, lids_v, self._raw_homes(kv, lids_v, self.leaf_cap[lids_v])
            )
            if lane is None:
                return None
            has, abs_slots, _, probes = lane
            if has.size < vidx.size:
                # A full window: the free slot lies past cd, where the
                # scan also grows cd. The key is its leaf's first, so it
                # resumes ahead of the leaf's later keys.
                vect = vect.copy()
                vect[vidx] = False
                vidx = vidx[has]
                vect[vidx] = True
                lids_v = lids_v[has]
            r = int(vidx.size)
            self.store_keys[abs_slots] = karr[vidx]
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
            ebhs = self.leaf_ebhs
            for lid in lids_v.tolist():
                ebhs[lid].n_keys += 1
                leaves[lid].update_count += 1
            drift = index._drift
            if drift is not None:
                for lid in lids_v.tolist():
                    drift[leaves[lid]] = None
            index._n += r
            index.updates_since_build += r
        return np.flatnonzero(~vect)

    def delete(self, index: "ChameleonIndex", karr: np.ndarray) -> list[bool]:
        """Fused delete of a (duplicate-free) key vector.

        One gathered descent plus one fused window probe locate every
        key's slot; the hits are cleared with one vector store. Deletes
        never trigger maintenance and never change the conflict degree,
        so the whole batch fuses — only keys at detached leaves and plan
        holes resume the scalar delete below their slot (:meth:`_resume`).
        A leaf the batch empties is reclaimed (its slot becomes a hole),
        as the scalar stream reclaims it at its last hit; a later key of
        the batch that misses there is charged as a hole miss, its hops
        only. Counter totals match the scalar stream exactly (the
        closed-form probe counts of the outward scan); flags are
        positionally aligned with ``karr``.
        """
        counters = index.counters
        m = int(karr.size)
        out = np.zeros(m, dtype=bool)
        with obs_trace.span("plan.delete").put("n", m) as sp:
            cur, depth, hole_parent, hole_rank = self._raw_descend(karr)
            d = int(depth.sum())
            counters.node_hops += d
            counters.model_evals += d
            sel, lids, rest = self._fused_keys(cur)
            if sel.size:
                found, abs_slot, match_off, match_minus, _, limits, caps, _ = (
                    self._raw_locate(karr, sel, lids)
                )
                probes = _probe_counts(found, match_off, match_minus, limits, caps)
                if obs_trace.ACTIVE is not None:
                    sp.put("window_slots", int(_window_len(limits, caps).sum()))
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
                    emptied = hit_lids[
                        (self.leaf_n[hit_lids] == 0) & (self.leaf_parent[hit_lids] >= 0)
                    ]
                    if emptied.size:
                        # Batch position of each emptied leaf's last hit
                        # (``m``: not emptied); keys after it meet a hole.
                        gone_at = np.full(len(leaves), m, dtype=np.int64)
                        gone_at[emptied] = -1
                        np.maximum.at(gone_at, lids[found], sel[found])
                        live = sel <= gone_at[lids]
                        sel = sel[live]
                        probes = probes[live]
                        inners = self.inners
                        for p, r in zip(
                            self.leaf_parent[emptied].tolist(),
                            self.leaf_rank[emptied].tolist(),
                        ):
                            index._reclaim((inners[p], r))
                counters.model_evals += int(sel.size)
                counters.slot_probes += int(probes.sum())
            for i, k, slot in self._resume(karr, cur, hole_parent, hole_rank, rest):
                leaf, path = index._descend_lower(k, slot)
                out[i] = index._delete_at_leaf(k, leaf, path) is not ABSENT
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
