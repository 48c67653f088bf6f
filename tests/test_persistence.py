"""Tests for index save/load persistence."""

import pickle
import struct

import pytest

from repro.baselines import (
    INDEX_REGISTRY,
    UPDATABLE_INDEXES,
    PersistenceError,
    SortedArrayIndex,
)
from repro.baselines.btree import BPlusTreeIndex
from repro.baselines.interfaces import INDEX_FORMAT_VERSION, INDEX_MAGIC
from repro.core import ChameleonIndex, IntervalLockManager
from repro.core.node import walk_leaves
from repro.datasets import face_like


@pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
def test_save_load_roundtrip(name, tmp_path):
    keys = face_like(800, seed=6)
    index = INDEX_REGISTRY[name]()
    index.bulk_load(keys)
    path = tmp_path / f"{name}.idx"
    index.save(path)
    restored = type(index).load(path)
    assert len(restored) == len(index)
    for k in keys[::23]:
        assert restored.lookup(float(k)) == k


def test_load_rejects_wrong_class(tmp_path):
    index = BPlusTreeIndex()
    index.bulk_load([1.0, 2.0, 3.0])
    path = tmp_path / "btree.idx"
    index.save(path)
    with pytest.raises(TypeError):
        ChameleonIndex.load(path)


def test_chameleon_drops_lock_manager(tmp_path):
    keys = face_like(500, seed=1)
    index = ChameleonIndex(strategy="ChaB", lock_manager=IntervalLockManager())
    index.bulk_load(keys)
    path = tmp_path / "cham.idx"
    index.save(path)
    restored = ChameleonIndex.load(path)
    assert restored.lock_manager is None
    # Reattach a fresh manager and keep operating.
    restored.lock_manager = IntervalLockManager()
    new_key = float(keys[0]) + 0.5
    restored.insert(new_key)
    assert restored.lookup(new_key) == new_key


@pytest.mark.parametrize("name", sorted(UPDATABLE_INDEXES))
def test_restored_index_accepts_updates(name, tmp_path):
    keys = face_like(600, seed=2)
    index = INDEX_REGISTRY[name]()
    index.bulk_load(keys[:500])
    path = tmp_path / "idx.bin"
    index.save(path)
    restored = type(index).load(path)
    for k in keys[500:]:
        restored.insert(float(k))
    for k in keys[::17]:
        assert restored.lookup(float(k)) == k


@pytest.mark.parametrize("batch", [False, True])
def test_snapshot_with_empty_leaves_loads_and_serves(tmp_path, batch):
    """Before deletes reclaimed emptied leaves, snapshots kept them. Such a
    snapshot loads and serves: reads and deletes of the cleared keys miss,
    re-inserted keys land in the empty leaves, and deleting them again
    reclaims those leaves as holes."""
    keys = [float(k) for k in face_like(3000, seed=8)]
    index = ChameleonIndex(strategy="ChaB")
    index.bulk_load(keys)
    cleared: list[float] = []
    for leaf in [leaf for leaf in walk_leaves(index._root) if leaf.n_keys][:6]:
        for k, _ in list(leaf.items()):
            leaf.ebh.pop(k)  # a leaf as the old delete path left it
            index._n -= 1
            cleared.append(k)
    path = tmp_path / "old.idx"
    index.save(path)
    restored = ChameleonIndex.load(path)

    def empty_leaves() -> int:
        return sum(1 for leaf in walk_leaves(restored._root) if not leaf.n_keys)

    assert empty_leaves() == 6
    assert restored.verify_integrity().ok
    kept = [k for k in keys[::7] if k not in set(cleared)]
    n_leaves = sum(1 for _ in walk_leaves(restored._root))
    if batch:
        assert restored.lookup_batch(cleared + kept) == [None] * len(cleared) + kept
        assert restored.delete_batch(cleared) == [False] * len(cleared)
        restored.insert_batch(cleared)
        assert restored.lookup_batch(cleared) == cleared
        assert empty_leaves() == 0
        assert restored.delete_batch(cleared) == [True] * len(cleared)
    else:
        assert [restored.lookup(k) for k in cleared + kept] == [None] * len(cleared) + kept
        assert not any(restored.delete(k) for k in cleared)
        for k in cleared:
            restored.insert(k)
        assert [restored.lookup(k) for k in cleared] == cleared
        assert empty_leaves() == 0
        assert all(restored.delete(k) for k in cleared)
    assert empty_leaves() == 0
    assert sum(1 for _ in walk_leaves(restored._root)) == n_leaves - 6
    assert len(restored) == len(keys) - len(cleared)
    assert restored.verify_integrity().ok


def test_load_rejects_short_file(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(b"RI")
    with pytest.raises(PersistenceError, match="too short"):
        SortedArrayIndex.load(path)


def test_load_rejects_bad_magic(tmp_path):
    # A pre-header pickle (or any foreign file) must be rejected before
    # unpickling, not interpreted as index state.
    path = tmp_path / "foreign.idx"
    path.write_bytes(pickle.dumps({"not": "an index"}))
    with pytest.raises(PersistenceError, match="bad magic"):
        SortedArrayIndex.load(path)


def test_load_rejects_version_mismatch(tmp_path):
    index = SortedArrayIndex()
    index.bulk_load([1.0, 2.0, 3.0])
    path = tmp_path / "versioned.idx"
    index.save(path)
    blob = bytearray(path.read_bytes())
    # Bump the little-endian u16 version field after the 4-byte magic.
    blob[4:6] = struct.pack("<H", INDEX_FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(PersistenceError, match="snapshot format"):
        SortedArrayIndex.load(path)


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    index = SortedArrayIndex()
    index.bulk_load([1.0, 2.0, 3.0])
    path = tmp_path / "atomic.idx"
    index.save(path)
    index.save(path)  # overwrite in place goes through the same rename
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.idx"]
    header = path.read_bytes()[:4]
    assert header == INDEX_MAGIC
