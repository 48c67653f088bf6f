"""Oracle tests for the fused plan's ragged cd-window gather.

``BatchQueryPlan._raw_locate`` (fused lookup, fused delete, the insert
certification pre-probe) and ``BatchQueryPlan._raw_free_slots`` (the
insert lane) gather every key's own cd window in one ragged vector. The
offset-synchronous loops they replaced are kept here verbatim as
references, and the gather must give their outputs on hand-built plans
that cover capacities 1, 2 and 3, an even capacity whose cd reached the
ring apex (``cd == c // 2``), span-0 leaves, absent keys, keys stored at
offset cd on either side, and windows with no free slot. At the index
level, a first key whose window is full takes the scalar stream, and a
churned UDEN index with wide windows keeps batch == scalar ``Counters``.
"""

import numpy as np
import pytest

from repro.baselines.counters import Counters
from repro.core.batch_plan import build_plan
from repro.core.config import ChameleonConfig
from repro.core.ebh import ErrorBoundedHash
from repro.core.index import ChameleonIndex
from repro.core.node import InnerNode, LeafNode, walk_leaves
from repro.datasets import load as load_dataset


def reference_locate(plan, karr, sel, lids):
    """The offset-synchronous ``_raw_locate`` the ragged gather replaced."""
    k = karr[sel]
    r = int(sel.size)
    low = plan.leaf_low[lids]
    span = plan.leaf_span[lids]
    caps = plan.leaf_cap[lids]
    den = np.where(span > 0.0, span, 1.0)
    scaled = caps * (k - low) / den
    homes = np.floor(plan.leaf_alpha[lids] * scaled).astype(np.int64) % caps
    homes = np.where(span > 0.0, homes, 0)
    limits = np.minimum(plan.leaf_cd[lids], caps // 2)
    offs = plan.leaf_off[lids]
    store = plan.store_keys
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


def reference_free_slots(plan, kv, lids, homes_v):
    """The offset-synchronous scan of the insert lane the gather replaced.

    Returns None on a duplicate, else per key ``(free_slot, free_off,
    probes)`` with ``free_slot`` leaf-local. Every key's leaf must hold a
    free slot somewhere, as the lane's load trigger guarantees.
    """
    r = int(kv.size)
    caps_v = plan.leaf_cap[lids]
    offs_v = plan.leaf_off[lids]
    cds_v = plan.leaf_cd[lids]
    store = plan.store_keys
    free_slot = np.full(r, -1, dtype=np.int64)
    free_off = np.full(r, -1, dtype=np.int64)
    probes = np.zeros(r, dtype=np.int64)
    act = np.arange(r)
    offset = 0
    while act.size:
        h = homes_v[act]
        c = caps_v[act]
        o = offs_v[act]
        s = (h + offset) % c
        g = store[o + s]
        if (g == kv[act]).any():
            return None
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
                    return None
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
    return free_slot, free_off, probes


#: Leaf capacities of the hand-built plans: 1, 2 and 3, even and odd, and
#: wide enough rings for offsets past 10.
CAPS = (1, 2, 3, 4, 5, 6, 8, 16, 32)


def _hand_built(seed: int, n_leaves: int = 48):
    """A one-level tree of hand-filled leaves and its plan.

    Leaf ``i`` routes ``[i, i + 1)``. Every fifth leaf has a span-0 model
    (every key homes to slot 0); the others hash over a narrow sub-range,
    so keys crowd, collide and grow cd. Leaves fill by scalar inserts to a
    random load, full rings included. Returns ``(plan, stored, absent)``:
    per leaf its stored keys and some absent keys it routes.
    """
    rng = np.random.default_rng(seed)
    root = InnerNode(0.0, float(n_leaves), n_leaves, Counters())
    stored: list[list[float]] = []
    absent: list[list[float]] = []
    for i in range(n_leaves):
        cap = int(rng.choice(CAPS))
        if i % 5 == 0:
            e = ErrorBoundedHash(i + 0.5, i + 0.5, cap)
        else:
            e = ErrorBoundedHash(i, i + float(rng.uniform(0.05, 1.0)), cap)
        keys = np.unique(i + rng.uniform(0.0, 1.0, 4 * cap + 8))
        rng.shuffle(keys)
        n = int(rng.integers(0, cap + 1))
        for k in keys[:n].tolist():
            e.insert(k, -k)
        root.children[i] = LeafNode(e, i, i + 1)
        stored.append(keys[:n].tolist())
        absent.append(keys[n:].tolist())
    return build_plan(root, 0), stored, absent


def _routed(plan, keys):
    karr = np.asarray(keys, dtype=np.float64)
    cur = plan._raw_descend(karr)[0]
    assert (cur < 0).all()
    return karr, np.arange(karr.size), -cur - 1


def _homes(plan, karr, lids):
    return plan._raw_locate(karr, np.arange(karr.size), lids)[4]


class TestLocateOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_all_eight_outputs_equal_the_loop(self, seed):
        plan, stored, absent = _hand_built(seed)
        rng = np.random.default_rng(seed + 100)
        keys = [k for ks in stored for k in ks]
        keys += [k for ks in absent for k in ks[:3]]
        rng.shuffle(keys)
        karr, sel, lids = _routed(plan, keys)
        got = plan._raw_locate(karr, sel, lids)
        want = reference_locate(plan, karr, sel, lids)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_cases_are_covered(self):
        """The seeds above reach every window shape the gather must get
        right: capacities 1–3, the ring apex, span-0 leaves, absent keys
        and hits at offset cd on the plus and the minus side."""
        seen = set()
        for seed in range(12):
            plan, stored, absent = _hand_built(seed)
            keys = [k for ks in stored for k in ks] + [ks[0] for ks in absent]
            karr, sel, lids = _routed(plan, keys)
            found, _, off, minus, _, limits, caps, _ = plan._raw_locate(karr, sel, lids)
            seen.update(f"cap{c}" for c in caps[found].tolist() if c <= 3)
            if ((2 * limits == caps) & (limits > 0) & found).any():
                seen.add("apex")
            if (plan.leaf_span[lids] == 0.0).any():
                seen.add("span0")
            if (~found).any():
                seen.add("absent")
            at_cd = found & (off == limits) & (limits > 0)
            if (at_cd & minus).any():
                seen.add("minus at cd")
            if (at_cd & ~minus).any():
                seen.add("plus at cd")
        assert seen >= {
            "cap1", "cap2", "cap3", "apex", "span0", "absent",
            "minus at cd", "plus at cd",
        }

    def test_empty_selection(self):
        plan = _hand_built(0)[0]
        empty = np.empty(0, dtype=np.int64)
        got = plan._raw_locate(np.empty(0), empty, empty)
        assert all(a.size == 0 for a in got)


class TestFreeSlotOracle:
    @staticmethod
    def _lane(seed, dup: bool):
        """One absent key per leaf with a free slot (the lane's first keys);
        with ``dup`` one of them is a key its leaf stores instead."""
        plan, stored, absent = _hand_built(seed)
        rng = np.random.default_rng(seed + 200)
        karr, _, lids = _routed(plan, [ab[0] for ab in absent])
        room = plan.leaf_n[lids] < plan.leaf_cap[lids]
        lane = dict(zip(lids[room].tolist(), karr[room].tolist()))
        if dup:
            held = [ks[-1] for ks in stored if ks]
            hk, _, hl = _routed(plan, held)
            pick = rng.choice(np.flatnonzero(plan.leaf_n[hl] < plan.leaf_cap[hl]))
            lane[int(hl[pick])] = float(hk[pick])
        keys = list(lane.values())
        rng.shuffle(keys)
        karr, _, lids = _routed(plan, keys)
        return plan, karr, lids, _homes(plan, karr, lids)

    @pytest.mark.parametrize("seed", range(12))
    def test_free_slot_offset_and_probes_equal_the_loop(self, seed):
        plan, karr, lids, homes = self._lane(seed, dup=False)
        want = reference_free_slots(plan, karr, lids, homes)
        got = plan._raw_free_slots(karr, lids, homes)
        assert want is not None and got is not None
        free_slot, free_off, probes = want
        limits = np.minimum(plan.leaf_cd[lids], plan.leaf_cap[lids] // 2)
        inside = np.flatnonzero(free_off <= limits)
        has, abs_slot, off, w = got
        # Keys whose first free slot lies past cd leave the lane.
        assert np.array_equal(has, inside)
        assert np.array_equal(abs_slot, plan.leaf_off[lids][has] + free_slot[has])
        assert np.array_equal(off, free_off[has])
        assert np.array_equal(w, probes[has])

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_aborts_like_the_loop(self, seed):
        plan, karr, lids, homes = self._lane(seed, dup=True)
        assert reference_free_slots(plan, karr, lids, homes) is None
        assert plan._raw_free_slots(karr, lids, homes) is None

    def test_full_windows_are_covered(self):
        lanes = [self._lane(seed, dup=False) for seed in range(12)]
        dropped = sum(
            karr.size - plan._raw_free_slots(karr, lids, homes)[0].size
            for plan, karr, lids, homes in lanes
        )
        assert dropped > 0


def _window_ix(keys, config=None):
    ix = ChameleonIndex(config or ChameleonConfig(), strategy="ChaB")
    ix.bulk_load(keys)
    return ix


def test_full_window_first_key_takes_the_stream(monkeypatch):
    """A leaf whose cd window is full but which holds free slots further
    out: the batch's first key for it leaves the lane and the stream
    places it past cd, growing cd exactly as the scalar insert does."""
    keys = load_dataset("UDEN", 4000, seed=5)
    a, b = _window_ix(keys), _window_ix(keys)
    warm = keys[:64]
    assert b.lookup_batch(warm) == [a.lookup(float(k)) for k in warm]
    plan = b._batch_plan
    max_load = b.config.max_leaf_load
    rng = np.random.default_rng(1)
    taken = {float(k) for k in keys}
    lane_keys = []
    for leaf in plan.leaves:
        e = leaf.ebh
        if (e.n_keys + 1) / e.capacity > max_load:
            continue
        lim = min(e.conflict_degree, e.capacity // 2)
        # A fresh key whose whole window holds stored keys.
        for k in rng.uniform(leaf.low_key, leaf.high_key, 200).tolist():
            if k in taken or b._locate_leaf(k) is not leaf:
                continue
            home = e._raw_home_slot(k)
            window = [(home + o) % e.capacity for o in range(-lim, lim + 1)]
            if not np.isnan(e._keys[window]).any():
                lane_keys.append(k)
                taken.add(k)
                break
        if len(lane_keys) == 8:
            break
    assert lane_keys, "no leaf with a full cd window"
    filler = [
        k for k in rng.uniform(keys.min(), keys.max(), 400).tolist()
        if k not in taken and b._locate_leaf(k) is not None
    ][:200]
    batch = np.asarray(lane_keys + filler)
    dropped = []
    lane = type(plan)._raw_free_slots

    def spy(self, kv, lids, homes):
        out = lane(self, kv, lids, homes)
        dropped.append(kv.size - out[0].size)
        return out

    monkeypatch.setattr(type(plan), "_raw_free_slots", spy)
    b.insert_batch(batch)
    for k in batch.tolist():
        a.insert(k)
    assert dropped and dropped[0] >= len(lane_keys)
    assert b.counters == a.counters
    assert sorted(b.items()) == sorted(a.items())
    assert b.verify_integrity().ok


def test_churned_uden_wide_windows_match_scalar():
    """Balanced churn on a bare UDEN index ratchets cd. The batch index
    churns by fused delete and insert batches, its twin one key at a time;
    then lookup, delete and insert batches that meet a window of at least
    20 slots still charge exactly the scalar loop's counters."""
    keys = load_dataset("UDEN", 20_000, seed=3)
    pool = np.setdiff1d(load_dataset("UDEN", 80_000, seed=4), keys)
    rng = np.random.default_rng(7)
    rng.shuffle(pool)
    a, b = _window_ix(keys), _window_ix(keys)
    live = keys.copy()
    rng.shuffle(live)
    for step in range(0, 12_500, 500):
        out, new = live[:500], pool[step : step + 500]
        assert b.delete_batch(out) == [a.delete(k) for k in out.tolist()]
        b.insert_batch(new)
        for k in new.tolist():
            a.insert(k)
        live = np.concatenate([live[500:], new])
    assert b.counters == a.counters
    # The widest window in the tree: its leaf's keys and misses join the
    # batches, so they surely meet it.
    wide = max(
        walk_leaves(b._root),
        key=lambda lf: min(lf.ebh.conflict_degree, lf.ebh.capacity // 2),
    )
    assert 1 + 2 * min(wide.ebh.conflict_degree, wide.ebh.capacity // 2) >= 20
    held = [k for k, _ in wide.ebh.sorted_items()]
    near = [
        k for k in rng.uniform(wide.low_key, wide.high_key, 64).tolist()
        if b._locate_leaf(k) is wide
    ]
    q = np.concatenate([held, near, rng.choice(live, 1000, replace=False)])
    assert b.lookup_batch(q) == [a.lookup(float(k)) for k in q]
    assert b.counters == a.counters
    gone = np.unique(np.concatenate([held[::2], rng.choice(live, 500, replace=False)]))
    assert b.delete_batch(gone) == [a.delete(float(k)) for k in gone]
    assert b.counters == a.counters
    fresh = np.concatenate([held[::2], pool[12_500:13_000]])
    b.insert_batch(fresh)
    for k in fresh.tolist():
        a.insert(k)
    assert b.counters == a.counters
    assert sorted(b.items()) == sorted(a.items())
    assert b.verify_integrity().ok


def test_armed_spans_name_the_gather_and_leave_counters_alone():
    """Armed tracing puts each fused op's gather length on its span as
    ``window_slots`` and changes no counter."""
    from repro import obs

    keys = load_dataset("UDEN", 4000, seed=6)
    rng = np.random.default_rng(2)
    q = np.concatenate([rng.choice(keys, 300, replace=False), rng.uniform(keys.min(), keys.max(), 100)])
    gone = rng.choice(keys, 200, replace=False)
    fresh = np.setdiff1d(rng.uniform(keys.min(), keys.max(), 200), keys)
    runs = []
    for armed in (False, True):
        ix = _window_ix(keys)
        ix.lookup_batch(q[:64])  # build the plan before the traced ops
        plan = ix._batch_plan
        cur = plan._raw_descend(q)[0]
        lids = -cur[cur < 0] - 1
        lids = lids[~plan.leaf_detached[lids]]
        lim = np.minimum(plan.leaf_cd[lids], plan.leaf_cap[lids] // 2)
        expect = int((1 + 2 * lim - ((2 * lim == plan.leaf_cap[lids]) & (lim > 0))).sum())
        rec = obs.arm_tracing() if armed else None
        try:
            out = (ix.lookup_batch(q), ix.delete_batch(gone))
            ix.insert_batch(fresh)
        finally:
            if armed:
                obs.disarm_tracing()
        runs.append((out, ix.counters.snapshot(), rec, ix))
    (out0, c0, _, _), (out1, c1, rec, ix) = runs
    assert out0 == out1 and c0 == c1
    slots = {e[0]: e[5]["window_slots"] for e in rec.events() if e[0].startswith("plan.")}
    assert set(slots) == {"plan.lookup", "plan.delete", "plan.insert"}
    assert slots["plan.lookup"] == expect
    assert all(v >= 200 for v in slots.values())
