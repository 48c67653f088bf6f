"""Differential tests: every index vs the sorted-array oracle.

One parametrized battery drives each index through bulk load, point
lookups, misses, random insert/delete programs, and range queries, checking
every answer against :class:`SortedArrayIndex`. Programs draw their keys
from a small universe, so delete -> re-insert -> delete of one key is
common, and compare ``items()`` and ``len()`` once each program ends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    INDEX_REGISTRY,
    UPDATABLE_INDEXES,
    DuplicateKeyError,
    SortedArrayIndex,
)
from repro.datasets import face_like, osmc_like, uden

ALL = sorted(INDEX_REGISTRY)
UPDATABLE = sorted(UPDATABLE_INDEXES)

DATASETS = {
    "uniform": uden,
    "moderate": osmc_like,
    "extreme": face_like,
}


@pytest.mark.parametrize("index_name", ALL)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestBulkLoadLookup:
    def test_every_loaded_key_found(self, index_name, dataset):
        keys = DATASETS[dataset](1500, seed=3)
        index = INDEX_REGISTRY[index_name]()
        index.bulk_load(keys)
        assert len(index) == 1500
        for k in keys[::11]:
            assert index.lookup(float(k)) == k, index_name

    def test_absent_keys_return_none(self, index_name, dataset):
        keys = DATASETS[dataset](500, seed=3)
        index = INDEX_REGISTRY[index_name]()
        index.bulk_load(keys)
        for i in range(0, 480, 37):
            probe = (float(keys[i]) + float(keys[i + 1])) / 2.0
            if probe not in (keys[i], keys[i + 1]):
                assert index.lookup(probe) is None, index_name

    def test_items_cover_everything(self, index_name, dataset):
        keys = DATASETS[dataset](400, seed=5)
        index = INDEX_REGISTRY[index_name]()
        index.bulk_load(keys)
        assert sorted(k for k, _ in index.items()) == sorted(keys.tolist())


@pytest.mark.parametrize("index_name", UPDATABLE)
class TestRandomPrograms:
    def test_random_op_program_matches_oracle(self, index_name):
        universe = [float(k) for k in osmc_like(2500, seed=9)]
        rng = np.random.default_rng(17)
        loaded = np.sort(rng.choice(universe, 1500, replace=False))
        index = INDEX_REGISTRY[index_name]()
        oracle = SortedArrayIndex()
        index.bulk_load(loaded)
        oracle.bulk_load(loaded)
        # Ops pick keys from a 300-key slice of the universe, so the same
        # key is deleted, re-inserted and deleted again many times over.
        hot = universe[:: len(universe) // 300]
        for _ in range(1500):
            op = rng.integers(0, 4)
            k = hot[int(rng.integers(0, len(hot)))]
            if op == 0:
                if oracle.lookup(k) is None:
                    index.insert(k)
                    oracle.insert(k)
                else:
                    with pytest.raises(DuplicateKeyError):
                        index.insert(k)
            elif op == 1:
                assert index.delete(k) == oracle.delete(k), index_name
            elif op == 2:
                assert index.lookup(k) == oracle.lookup(k), index_name
            else:
                probe = float(rng.uniform(loaded[0], loaded[-1]))
                assert index.lookup(probe) == oracle.lookup(probe), index_name
        assert len(index) == len(oracle)
        assert sorted(index.items()) == sorted(oracle.items()), index_name

    def test_duplicate_insert_rejected(self, index_name):
        keys = uden(200, seed=1)
        index = INDEX_REGISTRY[index_name]()
        index.bulk_load(keys)
        with pytest.raises(DuplicateKeyError):
            index.insert(float(keys[7]))

    def test_range_query_matches_oracle(self, index_name):
        keys = face_like(1200, seed=4)
        index = INDEX_REGISTRY[index_name]()
        oracle = SortedArrayIndex()
        index.bulk_load(keys)
        oracle.bulk_load(keys)
        rng = np.random.default_rng(2)
        # Mutate a bit first.
        for k in rng.choice(keys, 150, replace=False):
            index.delete(float(k))
            oracle.delete(float(k))
        for lo_q, hi_q in ((0.1, 0.15), (0.45, 0.55), (0.0, 1.0)):
            lo = float(np.quantile(keys, lo_q))
            hi = float(np.quantile(keys, hi_q))
            assert index.range_query(lo, hi) == oracle.range_query(lo, hi), index_name

    def test_out_of_range_inserts_reachable_by_range_query(self, index_name):
        """Keys beyond the bulk-loaded interval must stay visible to both
        point and range queries (edge-clamping regression test)."""
        keys = uden(300, seed=8)
        index = INDEX_REGISTRY[index_name]()
        oracle = SortedArrayIndex()
        index.bulk_load(keys)
        oracle.bulk_load(keys)
        below = float(keys[0]) - 5e8
        above = float(keys[-1]) + 5e8
        for k in (below, above):
            index.insert(k)
            oracle.insert(k)
            assert index.lookup(k) == k, index_name
        assert index.range_query(below - 1, below + 1) == oracle.range_query(
            below - 1, below + 1
        ), index_name
        assert index.range_query(above - 1, above + 1) == oracle.range_query(
            above - 1, above + 1
        ), index_name
        assert index.range_query(below, above) == oracle.range_query(
            below, above
        ), index_name

    def test_delete_everything_then_reinsert(self, index_name):
        keys = uden(300, seed=2)
        index = INDEX_REGISTRY[index_name]()
        index.bulk_load(keys)
        for k in keys:
            assert index.delete(float(k)), index_name
        assert len(index) == 0
        for k in keys[:50]:
            index.insert(float(k))
        for k in keys[:50]:
            assert index.lookup(float(k)) == k, index_name


#: Key universe of the property programs: small, so that a program often
#: deletes a loaded key, re-inserts it and deletes it again.
UNIVERSE = [float(k) for k in np.linspace(0.0, 1e9, 24)]


@pytest.mark.parametrize("index_name", UPDATABLE)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_property_small_programs(index_name, data):
    """Hypothesis: short random programs keep index == dict semantics."""
    base = data.draw(
        st.lists(st.sampled_from(UNIVERSE), min_size=4, max_size=20, unique=True)
    )
    base = sorted(base)
    index = INDEX_REGISTRY[index_name]()
    index.bulk_load(base)
    reference = {k: k for k in base}
    ops = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "lookup"]),
                st.sampled_from(UNIVERSE),
            ),
            max_size=40,
        )
    )
    for op, key in ops:
        if op == "insert":
            if key in reference:
                with pytest.raises(DuplicateKeyError):
                    index.insert(key)
            else:
                index.insert(key)
                reference[key] = key
        elif op == "delete":
            assert index.delete(key) == (key in reference)
            reference.pop(key, None)
        else:
            assert index.lookup(key) == reference.get(key)
    assert len(index) == len(reference)
    assert sorted(index.items()) == sorted(reference.items())


def test_pgm_delete_reinsert_delete_leaves_no_copy():
    """A key re-inserted over its main-array tombstone is stored once.

    The buffer copy used to sit next to an un-tombstoned main-array copy,
    so the second delete removed only the buffer copy and the key came
    back.
    """
    keys = face_like(20_000, seed=7)
    index = INDEX_REGISTRY["PGM"]()
    index.bulk_load(keys)
    victims = [float(k) for k in np.random.default_rng(3).choice(keys, 512, replace=False)]
    for k in victims:
        assert index.delete(k)
    for k in victims:
        index.insert(k)
    for k in victims:
        assert index.delete(k)
    assert all(index.lookup(k) is None for k in victims)
    assert len(index) == 20_000 - 512 == sum(1 for _ in index.items())
