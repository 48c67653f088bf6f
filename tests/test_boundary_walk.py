"""The lock-boundary walk and the locked peeks that continue from it.

``ChameleonIndex._upper_walk`` computes Eq. 1 inline; it must route every
key exactly as a walk of ``InnerNode.raw_route`` calls does, holes and
out-of-range keys included. Locked ``peek``/``peek_batch`` continue below
the boundary slot that walk reached; they must read what a bare descent
from the root reads, move no counter, and materialise nothing. Lookups,
deletes and pops that meet a hole answer "absent" too, charge only the
hops down to it, and materialise nothing either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ChameleonConfig
from repro.core.index import ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.core.node import InnerNode, walk_leaves
from repro.datasets import face_like


def reference_walk(index: ChameleonIndex, key: float):
    """The upper walk as per-level ``raw_route`` calls."""
    node = index._root
    ranks: list[int] = []
    path: list[tuple[InnerNode, int]] = []
    while isinstance(node, InnerNode) and len(ranks) < index.config.h - 1:
        rank = node.raw_route(key)
        ranks.append(rank)
        path.append((node, rank))
        node = node.children[rank]
        if node is None:
            break
    return tuple(ranks), path


def make_index(h: int, n: int = 3_000, locked: bool = True) -> ChameleonIndex:
    index = ChameleonIndex(
        ChameleonConfig(h=h),
        strategy="ChaB",
        lock_manager=IntervalLockManager() if locked else None,
    )
    index.bulk_load(face_like(n, seed=5))
    return index


def probe_keys(index: ChameleonIndex, seed: int = 0) -> list[float]:
    """Stored keys, absent keys inside the root interval, and keys below
    and above it (Eq. 1's clamp)."""
    rng = np.random.default_rng(seed)
    stored = [k for k, _ in index.items()]
    root = index._root
    low, high = (root.low_key, root.high_key)
    span = high - low
    keys = [float(k) for k in rng.choice(stored, 300)]
    keys += [float(k) for k in rng.uniform(low, high, 300)]
    keys += [low - span, low - 1e-9, low, high, high + 1e-9, high + span]
    return keys


def assert_walks_match(index: ChameleonIndex, keys: list[float]) -> None:
    for key in keys:
        ids, path = index._upper_walk(key)
        ref_ids, ref_path = reference_walk(index, key)
        assert ids == ref_ids, key
        assert [(id(n), r) for n, r in path] == [(id(n), r) for n, r in ref_path], key


class TestUpperWalk:
    @pytest.mark.parametrize("h", [2, 3])
    def test_matches_raw_route_walk(self, h):
        index = make_index(h)
        keys = probe_keys(index)
        assert_walks_match(index, keys)
        boundary = h - 1
        assert {len(index._upper_walk(k)[0]) for k in keys} == {boundary}

    def test_stops_at_a_hole_above_the_boundary(self):
        index = make_index(3)
        root = index._root
        rank = next(
            r for r, child in enumerate(root.children) if isinstance(child, InnerNode)
        )
        low, high = root.child_interval(rank)
        root.children[rank] = None
        key = low + (high - low) / 2
        ids, path = index._upper_walk(key)
        assert ids == (rank,)
        assert path == [(root, rank)]
        assert_walks_match(index, probe_keys(index) + [low, key])

    def test_root_leaf_walks_nothing(self):
        index = ChameleonIndex(strategy="ChaB", lock_manager=IntervalLockManager())
        index.bulk_load([1.0, 2.0, 3.0])
        assert not isinstance(index._root, InnerNode)
        for key in (0.0, 2.0, 9.0):
            assert index._upper_walk(key) == ((), [])
            assert reference_walk(index, key) == ((), [])
            assert index.peek(key) == index._peek_leaf(key)
        assert index.peek_batch([0.0, 2.0]) == [None, 2.0]


class TestLockedPeeks:
    @pytest.mark.parametrize("h", [2, 3])
    def test_match_bare_descent_and_count_nothing(self, h):
        index = make_index(h)
        keys = probe_keys(index, seed=1)
        before = index.counters.snapshot()
        expected = [index._peek_leaf(k) for k in keys]
        assert [index.peek(k) for k in keys] == expected
        assert index.peek_batch(keys) == expected
        assert index.counters.snapshot() == before
        assert any(v is not None for v in expected)
        assert index.lock_manager.stuck_intervals() == []

    def test_hole_below_the_boundary_reads_none_and_materialises_nothing(self):
        index = make_index(3)
        key = float(next(k for k, _ in index.items()))
        ids, path = index._upper_walk(key)
        parent, rank = path[-1]
        low, high = parent.child_interval(rank)
        # A boundary slot whose subtree is an inner node of holes.
        hollow = InnerNode(low, high, 4, index.counters)
        parent.children[rank] = hollow
        n_leaves = sum(1 for _ in walk_leaves(index._root))
        before = index.counters.snapshot()
        assert index.peek(key) is None
        assert index.peek_batch([key, low, high - 1e-9]) == [None, None, None]
        assert hollow.children == [None] * 4
        # A hole at the boundary slot itself.
        parent.children[rank] = None
        assert index.peek(key) is None
        assert index.peek_batch([key]) == [None]
        assert parent.children[rank] is None
        assert sum(1 for _ in walk_leaves(index._root)) == n_leaves
        assert index.counters.snapshot() == before
        # Scalar and batch reads and deletes, into both kinds of hole.
        for hole in (hollow, None):
            parent.children[rank] = hole
            keys = [key, low, high - 1e-9]
            n = len(index)
            probes = index.counters.slot_probes
            assert [index.lookup(k) for k in keys] == [None] * 3
            assert index.lookup_batch(keys) == [None] * 3
            assert [index.delete(k) for k in keys] == [False] * 3
            assert index.delete_batch(keys) == [False] * 3
            assert [index.pop(k, "gone") for k in keys] == ["gone"] * 3
            assert parent.children[rank] is hole
            assert hole is None or hole.children == [None] * 4
            assert sum(1 for _ in walk_leaves(index._root)) == n_leaves
            assert len(index) == n
            assert index.counters.slot_probes == probes

    def test_unlocked_peeks_unchanged(self):
        index = make_index(3, locked=False)
        keys = probe_keys(index, seed=2)
        expected = [index._peek_leaf(k) for k in keys]
        assert [index.peek(k) for k in keys] == expected
        assert index.peek_batch(keys) == expected
