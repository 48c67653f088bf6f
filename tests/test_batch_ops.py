"""Batch/scalar equivalence for the vectorised batch-execution layer.

The batch API's contract (docs/cost_model.md) is that for any key vector
it returns exactly what the scalar loop would return AND increments the
structural counters by exactly the scalar totals — the only permitted
divergence is lock amortisation (`lock_acquisitions`/`lock_waits` may
shrink under a lock manager, never grow). These tests pin that contract
with randomized streams for Chameleon (grouped, fused, and lock paths)
and for every baseline with a vectorised override, plus the exact probe
geometry of the deduplicated EBH ring scan.
"""

import numpy as np
import pytest

from repro.baselines import INDEX_REGISTRY, UPDATABLE_INDEXES
from repro.baselines.counters import Counters
from repro.baselines.pgm import PGMIndex
from repro.baselines.radix_spline import RadixSplineIndex
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core.config import ChameleonConfig
from repro.core.ebh import ErrorBoundedHash
from repro.core.index import ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.datasets import load as load_dataset
from repro.workloads import OpKind, Operation, run_workload, run_workload_batched


def _queries(keys: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Mixed present/absent query stream over the key range."""
    rng = np.random.default_rng(seed)
    present = rng.choice(keys, n // 2, replace=True)
    absent = rng.uniform(keys.min(), keys.max(), n - n // 2)
    q = np.concatenate([present, absent])
    rng.shuffle(q)
    return q


def _chameleon(keys: np.ndarray, lock: bool = False) -> ChameleonIndex:
    manager = IntervalLockManager(debug_asserts=True) if lock else None
    ix = ChameleonIndex(ChameleonConfig(), strategy="ChaB", lock_manager=manager)
    ix.bulk_load(keys)
    return ix


def _owner(ix: ChameleonIndex, key: float):
    """The leaf Eq. 1 routes ``key`` to, without charging the counters."""
    before = ix.counters.snapshot()
    leaf = ix._locate_leaf(key)
    ix.counters.restore(before)
    return leaf


def _leaf_keys(ix, leaf, n: int, rng, taken: set) -> list[float]:
    """``n`` new keys that Eq. 1 routes to ``leaf`` (recorded in ``taken``)."""
    out: list[float] = []
    for k in rng.uniform(leaf.low_key, leaf.high_key, 100 * n + 100).tolist():
        if k not in taken and _owner(ix, k) is leaf:
            taken.add(k)
            out.append(k)
            if len(out) == n:
                return out
    raise AssertionError("leaf interval too narrow for fresh keys")


class TestEBHProbeGeometry:
    """Pin the deduplicated ring scan's exact probe counts (cd >= c/2).

    Capacity 4, alpha 1, interval [0, 1): keys below 0.025 all hash to
    home slot 0, so four inserts drive the conflict degree to c/2 = 2 —
    the regime where ``(home+o) % c`` and ``(home-o) % c`` coincide at
    the ring apex and must be probed (and counted) exactly once.
    """

    KEYS = (0.001, 0.004, 0.009, 0.016)  # slots 0, +1, -1(=3), apex(=2)
    MISS = 0.02  # also home slot 0, never inserted

    def _build(self) -> ErrorBoundedHash:
        ebh = ErrorBoundedHash(0.0, 1.0, capacity=4, alpha=1)
        for k in self.KEYS:
            ebh.insert(k, k)
        return ebh

    def test_insert_probe_counts(self):
        ebh = ErrorBoundedHash(0.0, 1.0, capacity=4, alpha=1)
        expected = (1, 3, 3, 4)  # last insert probes the whole ring once
        for k, want in zip(self.KEYS, expected):
            before = ebh.counters.snapshot()
            ebh.insert(k, k)
            assert ebh.counters.diff(before)["slot_probes"] == want
        assert ebh.conflict_degree == 2  # = capacity // 2

    def test_scalar_lookup_probe_counts(self):
        ebh = self._build()
        # +0 -> 1; +1 -> 2; -1 -> 3; apex (single slot) -> 2o = 4.
        for k, want in zip(self.KEYS + (self.MISS,), (1, 2, 3, 4, 4)):
            before = ebh.counters.snapshot()
            assert (ebh.lookup(k) is not None) == (k != self.MISS)
            assert ebh.counters.diff(before)["slot_probes"] == want

    def test_batch_lookup_probe_counts_match_scalar(self):
        ebh = self._build()
        # >= _BATCH_MIN keys so the vectorised window gather runs.
        batch = list(self.KEYS) + [self.MISS, self.KEYS[0], self.KEYS[2], self.MISS]
        before = ebh.counters.snapshot()
        got = ebh.lookup_batch(np.asarray(batch))
        delta = ebh.counters.diff(before)
        assert delta["slot_probes"] == 1 + 2 + 3 + 4 + 4 + 1 + 3 + 4
        assert delta["model_evals"] == len(batch)
        assert [v is not None for v in got] == [k != self.MISS for k in batch]

    def test_miss_scans_ring_exactly_once(self):
        ebh = self._build()
        # Window limit 2 on a 4-ring: offsets 0, +/-1, apex -> 4 distinct
        # slots; the pre-dedup scan would have counted 5.
        before = ebh.counters.snapshot()
        assert ebh.lookup(self.MISS) is None
        assert ebh.counters.diff(before)["slot_probes"] == ebh.capacity


class TestChameleonBatchEquivalence:
    @pytest.mark.parametrize("dataset", ["UDEN", "FACE"])
    @pytest.mark.parametrize("batch_size", [16, 1024])
    def test_lookup_results_and_counters(self, dataset, batch_size):
        keys = load_dataset(dataset, 4000, seed=2)
        queries = _queries(keys, 3000, seed=5)
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        want = [a.lookup(float(k)) for k in queries]
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        got: list = []
        for i in range(0, queries.size, batch_size):
            got.extend(b.lookup_batch(queries[i : i + batch_size]))
        assert got == want
        assert b.counters.diff(before) == scalar_delta

    def test_fused_plan_reused_across_batches(self):
        """The plan survives scalar writes; only topology changes replace it."""
        keys = load_dataset("UDEN", 2000, seed=18)
        ix = _chameleon(keys)
        q = _queries(keys, 1024, seed=3)

        def plan_after_batch():
            ix.lookup_batch(q)
            assert ix._batch_plan is not None
            return ix._batch_plan

        plan = plan_after_batch()
        assert plan_after_batch() is plan  # lookups never invalidate
        ix.insert(float(keys.max()) + 1.0)
        assert ix.delete(float(keys[7]))
        assert plan_after_batch() is plan  # neither do in-place writes

        # A rebuild_subtree swap re-hangs a subtree.
        ids, parent, rank = ix.h_level_entries()[0]
        assert ix.rebuild_subtree(parent, rank, ids) > 0
        swapped = plan_after_batch()
        assert swapped is not plan

        # A leaf split turns a leaf into a subtree (the skewed insert wave
        # of test_split_triggering_batch_matches_scalar).
        lo, hi = float(keys.min()), float(keys.max())
        rng = np.random.default_rng(43)
        heavy = np.unique(
            lo + 0.3 * (hi - lo)
            + 0.01 * (hi - lo) * rng.lognormal(0.0, 2.0, 900) / 200.0
        )
        for k in heavy.tolist():
            ix.insert(k)
            if ix.counters.splits:
                break
        assert ix.counters.splits == 1
        split = plan_after_batch()
        assert split is not swapped

        ix.rebuild_all()
        rebuilt = plan_after_batch()
        assert rebuilt is not split
        ix.bulk_load(keys)
        assert plan_after_batch() is not rebuilt
        assert ix.verify_integrity().ok

    def test_scalar_cd_growth_is_seen_by_lookup_batch(self):
        """A scalar insert that widens a leaf's probe window after the plan
        was built: the next fused lookup must probe the wider window."""
        keys = load_dataset("UDEN", 3000, seed=1)
        a, b = _chameleon(keys), _chameleon(keys)
        q = _queries(keys, 256, seed=3)
        assert b.lookup_batch(q) == [a.lookup(float(k)) for k in q]
        plan = b._batch_plan
        rng = np.random.default_rng(5)
        lid_of = {id(leaf): lid for lid, leaf in enumerate(plan.leaves)}
        for k in rng.uniform(keys.min(), keys.max(), 5000).tolist():
            leaf = _owner(b, k)
            e = leaf.ebh
            if (e.n_keys + 1) / e.capacity > b.config.max_leaf_load:
                continue  # a rehash is the next test's case
            a.insert(k)
            b.insert(k)
            if e.conflict_degree > plan.leaf_cd[lid_of[id(leaf)]]:
                break
        else:
            pytest.fail("no insert grew a conflict degree")
        probe = np.concatenate([[k], q[:63]])
        assert b.lookup_batch(probe) == [a.lookup(float(x)) for x in probe]
        assert b._batch_plan is plan
        assert b.counters == a.counters

    def test_scalar_rehash_detaches_leaf_for_every_batch_op(self):
        """A scalar insert rehashes a leaf (new arrays, new capacity) after
        the plan was built: lookups, deletes and inserts of the next
        batches must all serve that leaf from its live storage."""
        keys = load_dataset("UDEN", 3000, seed=1)
        a, b = _chameleon(keys), _chameleon(keys)
        q = _queries(keys, 256, seed=3)
        assert b.lookup_batch(q) == [a.lookup(float(k)) for k in q]
        plan = b._batch_plan
        load = b.config.max_leaf_load
        leaf = max(
            (lf for lf in plan.leaves if 8 <= lf.ebh.n_keys < 256),
            key=lambda lf: lf.ebh.n_keys / lf.ebh.capacity,
        )
        rng = np.random.default_rng(9)
        taken = {float(k) for k in keys}
        retrains = b.counters.retrains
        before = []
        while b.counters.retrains == retrains:
            (k,) = _leaf_keys(b, leaf, 1, rng, taken)
            before.append(k)
            a.insert(k)
            b.insert(k)
        assert leaf.ebh.n_keys / leaf.ebh.capacity < load  # it grew
        after = _leaf_keys(b, leaf, 4, rng, taken)
        for k in after:
            a.insert(k)
            b.insert(k)
        probe = np.asarray(before + after + q[:40].tolist())
        assert b.lookup_batch(probe) == [a.lookup(float(x)) for x in probe]
        gone = np.asarray(before[:3] + after[:2] + keys[::97][:40].tolist())
        assert b.delete_batch(gone) == [a.delete(float(x)) for x in gone]
        new = np.asarray(
            _leaf_keys(b, leaf, 6, rng, taken)
            + rng.uniform(keys.min(), keys.max(), 40).tolist()
        )
        b.insert_batch(new)
        for k in new.tolist():
            a.insert(k)
        assert b._batch_plan is plan
        assert b.counters == a.counters
        assert sorted(a.items()) == sorted(b.items())
        assert b.verify_integrity().ok

    def test_scalar_writes_move_the_batch_load_trigger(self):
        """Scalar deletes and inserts change a leaf's live count after the
        plan was built: an insert batch that fills the leaf must rehash it
        at exactly the key where the scalar stream does.

        Deletes alone would leave the plan's count too high, which the
        load-trigger branch corrects against the live leaf; the inserts
        that follow leave it too low, which only a refresh catches.
        """
        keys = load_dataset("UDEN", 3000, seed=1)
        a, b = _chameleon(keys), _chameleon(keys)
        q = _queries(keys, 256, seed=3)
        assert b.lookup_batch(q) == [a.lookup(float(k)) for k in q]
        plan = b._batch_plan
        load = b.config.max_leaf_load

        def room(lf) -> float:
            return load * lf.ebh.capacity - lf.ebh.n_keys

        leaf = min(
            (lf for lf in plan.leaves if 8 <= lf.ebh.n_keys < 256 and room(lf) >= 3),
            key=room,
        )
        rng = np.random.default_rng(13)
        taken = {float(k) for k in keys}
        for k, _ in leaf.ebh.sorted_items()[:3]:
            assert a.delete(k) and b.delete(k)
        for k in _leaf_keys(b, leaf, 5, rng, taken):
            a.insert(k)
            b.insert(k)
        n, cap = leaf.ebh.n_keys, leaf.ebh.capacity
        until_trigger = next(j for j in range(1, cap) if (n + j) / cap > load)
        batch = _leaf_keys(b, leaf, until_trigger + 4, rng, taken)
        batch += rng.uniform(keys.min(), keys.max(), 32).tolist()
        retrains = a.counters.retrains
        for k in batch:
            a.insert(k)
        assert a.counters.retrains > retrains  # the leaf really rehashed
        b.insert_batch(np.asarray(batch))
        assert b._batch_plan is plan
        assert b.counters == a.counters
        assert sorted(a.items()) == sorted(b.items())
        assert b.verify_integrity().ok

    def test_delete_batch_equivalence(self):
        keys = load_dataset("UDEN", 3000, seed=4)
        rng = np.random.default_rng(9)
        targets = np.concatenate(
            [rng.choice(keys, 600, replace=False), rng.uniform(0, 1e9, 200)]
        )
        rng.shuffle(targets)
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        want = [a.delete(float(k)) for k in targets]
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        got = b.delete_batch(targets)
        assert got == want
        assert b.counters.diff(before) == scalar_delta
        assert len(a) == len(b)
        assert b.verify_integrity().ok

    def test_insert_batch_equivalence(self):
        keys = load_dataset("UDEN", 2000, seed=6)
        rng = np.random.default_rng(11)
        new = rng.uniform(keys.min(), keys.max(), 500)
        new = np.unique(new)
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        for k in new:
            a.insert(float(k))
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        b.insert_batch(new)
        assert b.counters.diff(before) == scalar_delta
        assert len(a) == len(b)
        assert sorted(a.items()) == sorted(b.items())

    def test_duplicate_in_batch_leaves_exact_scalar_prefix(self):
        """A mid-batch duplicate raises with exactly the preceding keys
        landed — the same state, counters, and exception the scalar loop
        would leave at the same stream position."""
        from repro.baselines.interfaces import DuplicateKeyError

        keys = load_dataset("UDEN", 2000, seed=6)
        rng = np.random.default_rng(23)
        fresh = np.unique(rng.uniform(keys.min(), keys.max(), 200))
        batch = np.concatenate(
            [fresh[:120], [float(keys[50])], fresh[120:]]  # dup mid-stream
        )
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        with pytest.raises(DuplicateKeyError):
            for k in batch.tolist():
                a.insert(k)
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        with pytest.raises(DuplicateKeyError):
            b.insert_batch(batch)
        assert b.counters.diff(before) == scalar_delta
        assert len(a) == len(b)
        assert sorted(a.items()) == sorted(b.items())
        # An in-batch repeat (second occurrence of a fresh key) aborts
        # the same way: the first occurrence lands, the repeat raises.
        a2, b2 = _chameleon(keys), _chameleon(keys)
        repeat = np.concatenate([fresh[:40], fresh[39:41], fresh[41:60]])
        before = a2.counters.snapshot()
        with pytest.raises(DuplicateKeyError):
            for k in repeat.tolist():
                a2.insert(k)
        scalar_delta = a2.counters.diff(before)
        before = b2.counters.snapshot()
        with pytest.raises(DuplicateKeyError):
            b2.insert_batch(repeat)
        assert b2.counters.diff(before) == scalar_delta
        assert sorted(a2.items()) == sorted(b2.items())

    def test_collision_heavy_batch_rehashes_mid_batch(self):
        """A batch dense enough to breach tau mid-flight triggers the
        in-situ rehash at exactly the scalar trajectory's point."""
        keys = load_dataset("UDEN", 3000, seed=14)
        lo, hi = float(keys.min()), float(keys.max())
        span = hi - lo
        rng = np.random.default_rng(41)
        # Everything lands in one narrow sliver of one leaf: successive
        # keys collide on the same EBH home slots and drive the conflict
        # degree through the trigger threshold while the batch is mid-air.
        dense = np.unique(
            rng.uniform(lo + 0.37 * span, lo + 0.372 * span, 400)
        )
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        for k in dense.tolist():
            a.insert(k)
        scalar_delta = a.counters.diff(before)
        assert scalar_delta["retrains"] > 0  # the scenario really rehashed
        before = b.counters.snapshot()
        b.insert_batch(dense)
        assert b.counters.diff(before) == scalar_delta
        assert sorted(a.items()) == sorted(b.items())
        assert b.verify_integrity().ok

    def test_split_triggering_batch_matches_scalar(self):
        """Batches that drive a leaf past ``leaf_split_keys`` with locally
        skewed density split at the same points as the scalar stream, with
        identical split/retrain accounting. (A flat-density cluster would
        not do: the TSMDP refinement guards prefer growing the hash, so
        the insert wave must be skewed for the split branch to fire.)"""
        keys = load_dataset("UDEN", 2000, seed=18)
        lo, hi = float(keys.min()), float(keys.max())
        span = hi - lo
        rng = np.random.default_rng(43)
        center = lo + 0.3 * span
        heavy = np.unique(
            center + 0.01 * span * rng.lognormal(0.0, 2.0, 900) / 200.0
        )
        a, b = _chameleon(keys), _chameleon(keys)
        before = a.counters.snapshot()
        for k in heavy.tolist():
            a.insert(k)
        scalar_delta = a.counters.diff(before)
        assert scalar_delta["splits"] > 0  # the scenario really split
        before = b.counters.snapshot()
        for i in range(0, heavy.size, 512):
            b.insert_batch(heavy[i : i + 512])
        assert b.counters.diff(before) == scalar_delta
        assert len(a) == len(b)
        assert sorted(a.items()) == sorted(b.items())
        assert b.verify_integrity().ok

    def test_empty_and_tiny_batches(self):
        keys = load_dataset("UDEN", 500, seed=8)
        ix = _chameleon(keys)
        assert ix.lookup_batch(np.empty(0)) == []
        assert ix.delete_batch(np.empty(0)) == []
        one = ix.lookup_batch(np.asarray([float(keys[0])]))
        assert one == [ix.lookup(float(keys[0]))]


class TestChameleonLockPath:
    def test_lock_amortisation_preserves_contract(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_ASSERTS", "1")
        keys = load_dataset("UDEN", 3000, seed=2)
        queries = _queries(keys, 2000, seed=5)
        rng = np.random.default_rng(3)
        inserts = np.unique(rng.uniform(keys.min(), keys.max(), 300))
        deletes = rng.choice(keys, 300, replace=False)

        a, b = _chameleon(keys, lock=True), _chameleon(keys, lock=True)
        assert a.lock_manager is not None and a.lock_manager.debug_asserts
        before = a.counters.snapshot()
        want = [a.lookup(float(k)) for k in queries]
        for k in inserts:
            a.insert(float(k))
        del_want = [a.delete(float(k)) for k in deletes]
        scalar_delta = a.counters.diff(before)

        before = b.counters.snapshot()
        got: list = []
        for i in range(0, queries.size, 512):
            got.extend(b.lookup_batch(queries[i : i + 512]))
        b.insert_batch(inserts)
        del_got = b.delete_batch(deletes)
        batch_delta = b.counters.diff(before)

        assert got == want
        assert del_got == del_want
        # Everything matches except lock traffic, which must only shrink.
        scalar_locks = scalar_delta.pop("lock_acquisitions")
        batch_locks = batch_delta.pop("lock_acquisitions")
        scalar_delta.pop("lock_waits", None)
        batch_delta.pop("lock_waits", None)
        assert batch_delta == scalar_delta
        assert 0 < batch_locks < scalar_locks
        # Zero lock-protocol violations under the armed race detector.
        assert a.lock_manager.race_report() == []
        assert b.lock_manager is not None
        assert b.lock_manager.race_report() == []

    def test_grouped_insert_locks_once_per_interval(self, monkeypatch):
        """Batch inserts under a lock manager acquire one write lock per
        touched h-level interval, not one per key — and everything but the
        lock traffic matches the scalar stream exactly."""
        monkeypatch.setenv("REPRO_LOCK_ASSERTS", "1")
        keys = load_dataset("FACE", 2500, seed=7)
        rng = np.random.default_rng(19)
        inserts = np.unique(rng.uniform(keys.min(), keys.max(), 600))

        a, b = _chameleon(keys, lock=True), _chameleon(keys, lock=True)
        before = a.counters.snapshot()
        for k in inserts.tolist():
            a.insert(k)
        scalar_delta = a.counters.diff(before)

        before = b.counters.snapshot()
        b.insert_batch(inserts)
        batch_delta = b.counters.diff(before)

        scalar_locks = scalar_delta.pop("lock_acquisitions")
        batch_locks = batch_delta.pop("lock_acquisitions")
        scalar_delta.pop("lock_waits", None)
        batch_delta.pop("lock_waits", None)
        assert batch_delta == scalar_delta
        # Scalar: one acquisition per key. Grouped: one per interval.
        assert scalar_locks == inserts.size
        assert 0 < batch_locks < scalar_locks
        assert sorted(a.items()) == sorted(b.items())
        assert b.lock_manager is not None
        assert b.lock_manager.race_report() == []


class TestBaselineBatchOverrides:
    @pytest.mark.parametrize("dataset", ["UDEN", "FACE", "OSMC", "LOGN"])
    @pytest.mark.parametrize(
        "ctor", [SortedArrayIndex, PGMIndex, RadixSplineIndex],
        ids=["SortedArray", "PGM", "RS"],
    )
    def test_lookup_batch_equivalence(self, ctor, dataset):
        keys = load_dataset(dataset, 3000, seed=7)
        queries = _queries(keys, 2000, seed=13)
        a, b = ctor(), ctor()
        a.bulk_load(keys)
        b.bulk_load(keys)
        before = a.counters.snapshot()
        want = [a.lookup(float(k)) for k in queries]
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        got = b.lookup_batch(queries)
        assert got == want
        assert b.counters.diff(before) == scalar_delta

    def test_pgm_buffer_and_tombstones(self):
        keys = load_dataset("UDEN", 2000, seed=1)
        rng = np.random.default_rng(17)
        extra = np.unique(rng.uniform(keys.min(), keys.max(), 200))

        def build() -> PGMIndex:
            ix = PGMIndex()
            ix.bulk_load(keys)
            for k in extra:
                ix.insert(float(k))  # lands in the insert buffer
            for k in keys[::10]:
                ix.delete(float(k))  # tombstoned in the main array
            return ix

        queries = np.concatenate([keys[:400], extra[:100], keys[::10][:100]])
        a, b = build(), build()
        before = a.counters.snapshot()
        want = [a.lookup(float(k)) for k in queries]
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        got = b.lookup_batch(queries)
        assert got == want
        assert b.counters.diff(before) == scalar_delta


class TestDefaultConformance:
    """Every registry index honours the batch API (scalar-loop defaults)."""

    @pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
    def test_lookup_batch_matches_scalar(self, name):
        keys = load_dataset("UDEN", 800, seed=3)
        queries = _queries(keys, 300, seed=4)
        a, b = INDEX_REGISTRY[name](), INDEX_REGISTRY[name]()
        a.bulk_load(keys)
        b.bulk_load(keys)
        before = a.counters.snapshot()
        want = [a.lookup(float(k)) for k in queries]
        scalar_delta = a.counters.diff(before)
        before = b.counters.snapshot()
        assert b.lookup_batch(queries) == want
        assert b.counters.diff(before) == scalar_delta

    @pytest.mark.parametrize("name", sorted(UPDATABLE_INDEXES))
    def test_write_batches_match_scalar(self, name):
        keys = load_dataset("UDEN", 800, seed=5)
        rng = np.random.default_rng(21)
        new = np.unique(rng.uniform(keys.min(), keys.max(), 120))
        gone = rng.choice(keys, 120, replace=False)
        a, b = INDEX_REGISTRY[name](), INDEX_REGISTRY[name]()
        a.bulk_load(keys)
        b.bulk_load(keys)
        for k in new:
            a.insert(float(k))
        want = [a.delete(float(k)) for k in gone]
        b.insert_batch(new)
        assert b.delete_batch(gone) == want
        assert len(a) == len(b)
        probe = np.concatenate([new[:50], gone[:50]])
        assert b.lookup_batch(probe) == [a.lookup(float(k)) for k in probe]

    def test_insert_batch_length_mismatch(self):
        ix = INDEX_REGISTRY["B+Tree"]()
        ix.bulk_load(np.asarray([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ix.insert_batch(np.asarray([4.0, 5.0]), values=["only-one"])


class TestWorkloadDriverEquivalence:
    def test_batched_driver_matches_scalar_driver(self):
        keys = load_dataset("UDEN", 2000, seed=9)
        rng = np.random.default_rng(31)
        ops: list[Operation] = []
        for k in rng.choice(keys, 400):
            ops.append(Operation(OpKind.LOOKUP, float(k)))
        for k in np.unique(rng.uniform(keys.min(), keys.max(), 200)):
            ops.append(Operation(OpKind.INSERT, float(k)))
        for k in rng.choice(keys, 200, replace=False):
            ops.append(Operation(OpKind.DELETE, float(k)))
        lo = float(keys[100])
        ops.append(Operation(OpKind.RANGE, lo, high=lo + 1e4))
        rng.shuffle(ops)  # interleave kinds to exercise run segmentation

        a, b = _chameleon(keys), _chameleon(keys)
        ra = run_workload(a, ops)
        rb = run_workload_batched(b, ops, batch_size=128)
        assert rb.op_counts == ra.op_counts
        assert rb.lookup_hits == ra.lookup_hits
        assert rb.failed_deletes == ra.failed_deletes
        assert rb.counter_delta == ra.counter_delta

    def test_batch_size_validation(self):
        ix = _chameleon(load_dataset("UDEN", 100, seed=0))
        with pytest.raises(ValueError):
            run_workload_batched(ix, [], batch_size=0)


def test_counters_is_dataclass_snapshot_roundtrip():
    c = Counters()
    c.slot_probes += 3
    snap = c.snapshot()
    c.slot_probes += 2
    delta = c.diff(snap)
    assert delta["slot_probes"] == 2
    assert all(v == 0 for k, v in delta.items() if k != "slot_probes")
