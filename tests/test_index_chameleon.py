"""Integration tests for ChameleonIndex (all strategies)."""

import numpy as np
import pytest

from repro.baselines.interfaces import DuplicateKeyError, EmptyIndexError
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core import ChameleonConfig, ChameleonIndex, IntervalLockManager


def build(keys, strategy="ChaB", **kwargs):
    index = ChameleonIndex(strategy=strategy, **kwargs)
    index.bulk_load(keys)
    return index


class TestBulkLoadAndLookup:
    @pytest.mark.parametrize("strategy", ["ChaB", "ChaDA", "ChaDATS"])
    def test_all_loaded_keys_found(self, moderate_keys, strategy):
        index = build(moderate_keys[:2000], strategy=strategy)
        for k in moderate_keys[:2000:7]:
            assert index.lookup(float(k)) == k

    def test_missing_keys_return_none(self, uniform_keys):
        index = build(uniform_keys)
        assert index.lookup(float(uniform_keys[0]) + 0.5) is None
        assert index.lookup(-1e18) is None
        assert index.lookup(1e18) is None

    def test_values_are_stored(self):
        keys = np.array([1.0, 2.0, 3.0])
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys, values=["a", "b", "c"])
        assert index.lookup(2.0) == "b"

    def test_empty_bulk_load_rejected(self):
        with pytest.raises(ValueError):
            ChameleonIndex().bulk_load([])

    def test_single_key(self):
        index = build(np.array([42.0]))
        assert index.lookup(42.0) == 42.0
        assert len(index) == 1

    def test_duplicate_bulk_load_rejected(self):
        with pytest.raises(ValueError):
            ChameleonIndex().bulk_load([1.0, 1.0])

    def test_lookup_before_load_raises(self):
        with pytest.raises(EmptyIndexError):
            ChameleonIndex().lookup(1.0)


class TestUpdates:
    def test_insert_then_lookup(self, uniform_keys):
        index = build(uniform_keys[:1000])
        new_key = float(uniform_keys[0]) + 0.25
        index.insert(new_key, "fresh")
        assert index.lookup(new_key) == "fresh"
        assert len(index) == 1001

    def test_insert_duplicate_rejected(self, uniform_keys):
        index = build(uniform_keys[:100])
        with pytest.raises(DuplicateKeyError):
            index.insert(float(uniform_keys[0]))

    def test_insert_before_load_raises(self):
        with pytest.raises(EmptyIndexError):
            ChameleonIndex().insert(1.0)

    def test_delete(self, uniform_keys):
        index = build(uniform_keys[:100])
        victim = float(uniform_keys[50])
        assert index.delete(victim)
        assert index.lookup(victim) is None
        assert not index.delete(victim)
        assert len(index) == 99

    def test_delete_on_empty_index(self):
        assert not ChameleonIndex().delete(1.0)

    def test_out_of_range_inserts(self, uniform_keys):
        """Keys beyond the loaded range clamp into edge leaves and work."""
        index = build(uniform_keys[:500])
        low = float(uniform_keys[0]) - 1e9
        high = float(uniform_keys[499]) + 1e9
        index.insert(low)
        index.insert(high)
        assert index.lookup(low) == low
        assert index.lookup(high) == high

    def test_hammered_region_stays_efficient(self, uniform_keys):
        """A region absorbing many inserts must stay cheap to query —
        either by splitting or by the fitted hash flattening the density."""
        config = ChameleonConfig(leaf_split_keys=128, leaf_target_keys=32)
        index = ChameleonIndex(config=config, strategy="ChaB")
        index.bulk_load(uniform_keys[:500])
        base = float(uniform_keys[100])
        step = (float(uniform_keys[101]) - base) / 600
        for i in range(1, 400):
            index.insert(base + i * step)
        # Height bounded (no split chains)...
        max_h, _ = index.height_stats()
        assert max_h <= config.h + 3
        # ...and lookups stay near-constant probing work.
        before = index.counters.snapshot()
        probes = 0
        for i in range(1, 400, 7):
            assert index.lookup(base + i * step) is not None
            probes += 1
        delta = index.counters.diff(before)
        assert delta["slot_probes"] / probes < 16

    def test_differential_against_oracle(self, moderate_keys, rng):
        index = build(moderate_keys[:1500], strategy="ChaDATS")
        oracle = SortedArrayIndex()
        oracle.bulk_load(moderate_keys[:1500])
        pool = list(moderate_keys[1500:3000])
        live = list(moderate_keys[:1500])
        for step in range(1200):
            action = rng.integers(0, 3)
            if action == 0 and pool:
                k = float(pool.pop())
                index.insert(k)
                oracle.insert(k)
                live.append(k)
            elif action == 1 and live:
                k = float(live.pop(int(rng.integers(0, len(live)))))
                assert index.delete(k) == oracle.delete(k)
            elif live:
                k = float(live[int(rng.integers(0, len(live)))])
                assert index.lookup(k) == oracle.lookup(k)
        assert len(index) == len(oracle)


class TestRangeQuery:
    def test_range_matches_oracle(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        lo = float(np.quantile(moderate_keys[:2000], 0.4))
        hi = float(np.quantile(moderate_keys[:2000], 0.5))
        expected = [(k, k) for k in moderate_keys[:2000] if lo <= k <= hi]
        assert index.range_query(lo, hi) == expected

    def test_range_on_empty(self):
        assert ChameleonIndex().range_query(0, 1) == []

    def test_range_includes_inserted_keys(self, uniform_keys):
        index = build(uniform_keys[:200])
        mid = (float(uniform_keys[10]) + float(uniform_keys[11])) / 2
        index.insert(mid)
        hits = [k for k, _ in index.range_query(float(uniform_keys[10]), float(uniform_keys[11]))]
        assert mid in hits

    def test_range_covers_out_of_interval_inserts(self, uniform_keys):
        """Keys clamped into edge leaves must still answer range queries."""
        index = build(uniform_keys[:200])
        below = float(uniform_keys[0]) - 1e9
        above = float(uniform_keys[199]) + 1e9
        index.insert(below)
        index.insert(above)
        low_hits = [k for k, _ in index.range_query(below - 1, below + 1)]
        high_hits = [k for k, _ in index.range_query(above - 1, above + 1)]
        assert below in low_hits
        assert above in high_hits


class TestStructureAccessors:
    def test_height_and_nodes(self, skewed_keys):
        index = build(skewed_keys, strategy="ChaB")
        max_h, avg_h = index.height_stats()
        assert 1 <= avg_h <= max_h <= 5
        assert index.node_count() >= 1
        assert index.size_bytes() > 0

    def test_error_stats_bounded_by_conflict_degree(self, skewed_keys):
        index = build(skewed_keys, strategy="ChaB")
        max_e, avg_e = index.error_stats()
        assert avg_e <= max_e

    def test_items_yields_everything(self, uniform_keys):
        index = build(uniform_keys[:300])
        assert sorted(k for k, _ in index.items()) == sorted(uniform_keys[:300].tolist())

    def test_empty_accessors(self):
        index = ChameleonIndex()
        assert index.size_bytes() == 0
        assert index.node_count() == 0
        assert index.height_stats() == (0, 0.0)
        assert len(index) == 0


class TestHLevelEntries:
    def test_entries_cover_all_keys(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        entries = index.h_level_entries()
        assert entries
        from repro.core.node import walk_leaves

        covered = 0
        for _, parent, rank in entries:
            child = parent.children[rank]
            covered += sum(leaf.n_keys for leaf in walk_leaves(child))
        assert covered == 2000

    def test_ids_are_unique(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        ids = [e[0] for e in index.h_level_entries()]
        assert len(ids) == len(set(ids))

    def test_single_leaf_root_has_no_entries(self):
        index = build(np.array([1.0, 2.0]))
        assert index.h_level_entries() == []


class TestRebuildSubtree:
    def test_rebuild_preserves_content(self, skewed_keys):
        index = build(skewed_keys[:2000], strategy="ChaB")
        before = sorted(k for k, _ in index.items())
        for _, parent, rank in index.h_level_entries():
            index.rebuild_subtree(parent, rank)
        after = sorted(k for k, _ in index.items())
        assert before == after
        for k in skewed_keys[:2000:13]:
            assert index.lookup(float(k)) == k

    def test_rebuild_never_regresses_measured_cost(self, skewed_keys):
        from repro.core.costs import measured_structure_cost

        index = build(skewed_keys[:2000], strategy="ChaB")
        config = index.config
        for _, parent, rank in index.h_level_entries():
            before = measured_structure_cost(parent.children[rank], config)
            index.rebuild_subtree(parent, rank)
            after = measured_structure_cost(parent.children[rank], config)
            w = config.w_query, config.w_memory
            assert (
                w[0] * after[0] + w[1] * after[1]
                <= w[0] * before[0] + w[1] * before[1] + 1e-9
            )


    def test_keyless_subtree_becomes_a_hole(self, skewed_keys):
        """A leaf slot holding no key, and an inner node of holes: the
        rebuild hangs no fresh empty leaf, counts no retrain, and moves the
        topology epoch (the node it drops may be in the batch plan)."""
        from repro.core.node import InnerNode, LeafNode

        index = build(skewed_keys[:2000], strategy="ChaB")
        (_, p1, r1), (_, p2, r2) = index.h_level_entries()[:2]
        leaf = p1.children[r1]
        assert isinstance(leaf, LeafNode)
        for k, _ in list(leaf.items()):
            leaf.ebh.pop(k)  # emptied without a reclaim, as old snapshots hold it
            index._n -= 1
        low, high = p2.child_interval(r2)
        lost = p2.children[r2].n_keys
        p2.children[r2] = InnerNode(low, high, 4, index.counters)
        index._n -= lost
        for parent, rank in ((p1, r1), (p2, r2)):
            epoch = index._topology_epoch
            assert index.rebuild_subtree(parent, rank) == 0
            assert parent.children[rank] is None
            assert index._topology_epoch == epoch + 1
        assert index.counters.retrains == 0
        assert index.verify_integrity().ok


class TestWithLockManager:
    def test_operations_work_under_lock_manager(self, moderate_keys):
        manager = IntervalLockManager()
        index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
        index.bulk_load(moderate_keys[:1000])
        for k in moderate_keys[:1000:29]:
            assert index.lookup(float(k)) == k
        new_key = float(moderate_keys[1000])
        index.insert(new_key)
        assert index.lookup(new_key) == new_key
        assert index.delete(new_key)
        assert index.counters.lock_acquisitions > 0
