"""Stateful differential test of the batch executors.

One ChameleonIndex runs a random interleaving of scalar lookups, inserts
and deletes, the three batch ops (from single keys up to three times the
fused threshold, deletes with repeated keys among them), subtree swaps
and whole-tree rebuilds — so the cached fused plan lives across scalar
writes, rehashes, splits and topology changes, and small batches take the
stream executor. Window deletes clear runs of neighbouring keys, so
leaves empty and are reclaimed as holes (with misses in the same batch
after the emptying hit), and refills insert into those holes again.
Hotspots pack keys around one home slot, so a leaf's cd grows wide and
its window fills, and the batch ops then run over that span. A
scalar-only twin replays every step one key at a time, and a dict oracle
holds the expected contents. After every step the results match the
oracle, the structural counters match the twin's bit for bit (lock
counters aside, as in test_batch_ops.py), no non-root leaf is empty, and
the current plan's per-leaf mirrors (``leaf_n``, ``leaf_cd``,
``leaf_detached``) match every leaf no write has logged since its last
op; reads and absent deletes change neither tree's size. At teardown both
trees pass ``verify_integrity``.

The same rules run twice: on bare indexes, where batches take the fused
plan, and on indexes under an armed ``IntervalLockManager``, where they
run the scalar bodies (writes in batch order, lookups in key order)
under one query lock per run of consecutive keys in the same interval. There the batch index may take
fewer locks than its twin, never more, and the race detector must stay
silent.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.interfaces import DuplicateKeyError
from repro.core.config import ChameleonConfig
from repro.core.index import _FUSED_MIN, ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.core.node import LeafNode, walk_leaves
from repro.datasets import load as load_dataset

BASE = load_dataset("UDEN", 1200, seed=12)
LO, HI = float(BASE.min()), float(BASE.max())
#: Fresh keys crowd into a narrow, skewed window so that inserts collide,
#: grow conflict degrees, rehash leaves and split them within a few steps.
HOT = LO + 0.4 * (HI - LO)
HOT_SPAN = 0.004 * (HI - LO)
#: Small split threshold: a hot leaf becomes a subtree after a few dozen
#: inserts instead of hundreds.
CONFIG = ChameleonConfig(leaf_target_keys=16, leaf_split_keys=48)
LOCK_COUNTERS = ("lock_acquisitions", "lock_waits")

seeds = st.integers(0, 2**32 - 1)
batch_sizes = st.integers(1, 3 * _FUSED_MIN)
scalar_sizes = st.integers(1, 4)


class PlanMachine(RuleBasedStateMachine):
    #: Run both indexes under an armed interval lock manager.
    LOCKED = False

    def _build(self) -> ChameleonIndex:
        manager = IntervalLockManager(debug_asserts=True) if self.LOCKED else None
        ix = ChameleonIndex(CONFIG, strategy="ChaB", lock_manager=manager)
        ix.bulk_load(BASE)
        return ix

    def __init__(self) -> None:
        super().__init__()
        self.fused = self._build()
        self.twin = self._build()
        self.oracle = {float(k): float(k) for k in BASE}
        #: Keys of the latest scalar inserts: batches revisit them, since a
        #: stale leaf state shows on the leaves scalar writes just touched.
        self.recent: list[float] = []
        #: Key span the latest window delete cleared; refills aim there.
        self.cleared = (LO, HI)

    # -- key pickers ---------------------------------------------------------

    def _fresh(self, rng: np.random.Generator, n: int) -> list[float]:
        """``n`` distinct absent keys, half of them in the hot window."""
        out: list[float] = []
        while len(out) < n:
            if rng.random() < 0.5:
                k = HOT + HOT_SPAN * rng.lognormal(0.0, 1.5) / 20.0
            else:
                k = rng.uniform(LO, HI)
            k = float(k)
            if k not in self.oracle and k not in out:
                out.append(k)
        return out

    def _mixed(self, rng: np.random.Generator, n: int) -> list[float]:
        """``n`` distinct keys: recent scalar inserts, other present keys,
        and absent keys."""
        third = -(-n // 3)
        recent = [k for k in self.recent if k in self.oracle][-third:]
        taken = set(recent)
        live = np.fromiter(
            (k for k in self.oracle if k not in taken), dtype=np.float64
        )
        present = rng.choice(live, min(live.size, third), replace=False)
        keys = (recent + present.tolist())[:n]
        keys += self._fresh(rng, n - len(keys))
        rng.shuffle(keys)
        return keys

    # -- scalar ops ----------------------------------------------------------

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_lookup(self, seed: int, n: int) -> None:
        for k in self._mixed(np.random.default_rng(seed), n):
            want = self.oracle.get(k)
            assert self.fused.lookup(k) == want
            assert self.twin.lookup(k) == want

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_insert(self, seed: int, n: int) -> None:
        for k in self._fresh(np.random.default_rng(seed), n):
            self.fused.insert(k)
            self.twin.insert(k)
            self.oracle[k] = k
            self.recent.append(k)

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_delete(self, seed: int, n: int) -> None:
        for k in self._mixed(np.random.default_rng(seed), n):
            want = self.oracle.pop(k, None) is not None
            assert self.fused.delete(k) == want
            assert self.twin.delete(k) == want

    # -- batch ops (the twin runs them one key at a time) ---------------------

    @rule(seed=seeds, n=batch_sizes)
    def lookup_batch(self, seed: int, n: int) -> None:
        keys = self._mixed(np.random.default_rng(seed), n)
        want = [self.oracle.get(k) for k in keys]
        assert self.fused.lookup_batch(np.asarray(keys)) == want
        assert [self.twin.lookup(k) for k in keys] == want

    @rule(seed=seeds, n=batch_sizes)
    def insert_batch(self, seed: int, n: int) -> None:
        keys = self._fresh(np.random.default_rng(seed), n)
        self.fused.insert_batch(np.asarray(keys))
        for k in keys:
            self.twin.insert(k)
            self.oracle[k] = k

    @rule(seed=seeds, n=batch_sizes)
    def insert_batch_with_duplicate(self, seed: int, n: int) -> None:
        """A present key mid-batch: the keys before it land, then it raises."""
        rng = np.random.default_rng(seed)
        keys = self._fresh(rng, n)
        at = int(rng.integers(0, n))
        keys.insert(at, float(rng.choice(np.fromiter(self.oracle, dtype=np.float64))))
        with pytest.raises(DuplicateKeyError):
            self.fused.insert_batch(np.asarray(keys))
        with pytest.raises(DuplicateKeyError):
            for k in keys:
                self.twin.insert(k)
        for k in keys[:at]:
            self.oracle[k] = k

    @rule(seed=seeds, n=batch_sizes)
    def delete_batch(self, seed: int, n: int) -> None:
        keys = self._mixed(np.random.default_rng(seed), n)
        want = [self.oracle.pop(k, None) is not None for k in keys]
        assert self.fused.delete_batch(np.asarray(keys)) == want
        assert [self.twin.delete(k) for k in keys] == want

    @rule(seed=seeds, n=batch_sizes)
    def delete_batch_with_repeats(self, seed: int, n: int) -> None:
        """Repeated keys: only a key's first occurrence can remove it."""
        rng = np.random.default_rng(seed)
        keys = self._mixed(rng, n)
        keys += rng.choice(keys, -(-n // 4)).tolist()
        rng.shuffle(keys)
        want = [self.oracle.pop(k, None) is not None for k in keys]
        assert self.fused.delete_batch(np.asarray(keys)) == want
        assert [self.twin.delete(k) for k in keys] == want

    # -- churn: empty leaves, then refill their holes --------------------------

    @rule(seed=seeds, width=st.integers(1, 48), absent=st.integers(0, 24),
          scalar=st.booleans())
    def delete_window(self, seed: int, width: int, absent: int, scalar: bool) -> None:
        """Delete a run of neighbouring live keys, with absent keys from the
        same span mixed in: the run empties leaves, and a miss after the
        emptying hit meets the hole. ``scalar``: the batch index deletes
        one key at a time too."""
        rng = np.random.default_rng(seed)
        live = np.sort(np.fromiter(self.oracle, dtype=np.float64))
        start = int(rng.integers(0, max(1, live.size - width + 1)))
        run = live[start : start + width].tolist()
        lo, hi = run[0], run[-1]
        self.cleared = (lo, hi)
        misses = {float(k) for k in rng.uniform(lo, hi, absent)} - set(self.oracle)
        keys = run + sorted(misses)
        rng.shuffle(keys)
        want = [self.oracle.pop(k, None) is not None for k in keys]
        if scalar:
            assert [self.fused.delete(k) for k in keys] == want
        else:
            assert self.fused.delete_batch(np.asarray(keys)) == want
        assert [self.twin.delete(k) for k in keys] == want

    @rule(seed=seeds, n=batch_sizes, batch=st.booleans())
    def refill(self, seed: int, n: int, batch: bool) -> None:
        """Insert fresh keys into the span the latest window delete cleared."""
        lo, hi = self.cleared
        rng = np.random.default_rng(seed)
        keys = [
            k for k in dict.fromkeys(float(k) for k in rng.uniform(lo, hi, n))
            if k not in self.oracle
        ]
        if not keys:
            return
        if batch:
            self.fused.insert_batch(np.asarray(keys))
        else:
            for k in keys:
                self.fused.insert(k)
        for k in keys:
            self.twin.insert(k)
            self.oracle[k] = k

    @rule(seed=seeds, n=batch_sizes)
    def reads_write_nothing(self, seed: int, n: int) -> None:
        """Lookups, peeks and absent deletes — many of them into holes — keep
        both trees' size and node count."""
        rng = np.random.default_rng(seed)
        lo, hi = self.cleared
        keys = self._mixed(rng, n) + rng.uniform(lo, hi, n).tolist()
        absent = [k for k in dict.fromkeys(keys) if k not in self.oracle]
        want = [self.oracle.get(k) for k in keys]
        shape = [(ix.size_bytes(), ix.node_count()) for ix in (self.fused, self.twin)]
        assert self.fused.lookup_batch(np.asarray(keys)) == want
        assert [self.twin.lookup(k) for k in keys] == want
        assert [self.fused.lookup(k) for k in keys] == want
        assert [self.twin.lookup(k) for k in keys] == want
        assert self.fused.peek_batch(keys) == want
        assert [self.twin.peek(k) for k in keys] == want
        if absent:
            assert self.fused.delete_batch(np.asarray(absent)) == [False] * len(absent)
            assert [self.twin.delete(k) for k in absent] == [False] * len(absent)
            assert self.fused.pop(absent[0], "gone") == "gone"
            assert self.twin.pop(absent[0], "gone") == "gone"
        assert [(ix.size_bytes(), ix.node_count()) for ix in (self.fused, self.twin)] == shape

    # -- wide and full cd windows --------------------------------------------

    def _packed(self, rng: np.random.Generator, center: float, n: int) -> list[float]:
        """``n`` distinct absent keys within about one home slot of ``center``
        in the leaf Eq. 1 routes it to."""
        e = self.fused._locate_leaf(center).ebh
        width = max(e.high_key - e.low_key, 1.0) / (e.capacity * e.alpha)
        out = [
            k for k in dict.fromkeys((center + width * rng.uniform(-1.0, 1.0, 4 * n)).tolist())
            if k not in self.oracle
        ]
        return out[:n]

    @rule(seed=seeds, n=st.integers(4, 40), batch=st.booleans())
    def hotspot(self, seed: int, n: int, batch: bool) -> None:
        """Keys packed around one home slot grow the leaf's cd wide and fill
        its window (``batch``: they land by one insert batch, else one at a
        time); then lookup, delete and insert batches, padded past the fused
        threshold, run over that span."""
        rng = np.random.default_rng(seed)
        center = float(rng.choice(np.fromiter(self.oracle, dtype=np.float64)))
        packed = self._packed(rng, center, n)
        if not packed:
            return
        if batch:
            self.fused.insert_batch(np.asarray(packed))
        else:
            for k in packed:
                self.fused.insert(k)
        for k in packed:
            self.twin.insert(k)
            self.oracle[k] = k
        lo, hi = min(packed + [center]), max(packed + [center])
        near = [k for k in rng.uniform(lo, hi, n).tolist() if k not in self.oracle]
        keys = list(dict.fromkeys(packed + near + self._mixed(rng, _FUSED_MIN)))
        want = [self.oracle.get(k) for k in keys]
        assert self.fused.lookup_batch(np.asarray(keys)) == want
        assert [self.twin.lookup(k) for k in keys] == want
        rng.shuffle(keys)
        keys = keys[: len(keys) // 2 + 1]
        want = [self.oracle.pop(k, None) is not None for k in keys]
        assert self.fused.delete_batch(np.asarray(keys)) == want
        assert [self.twin.delete(k) for k in keys] == want
        center = packed[0] if packed[0] in self.oracle else center
        if center not in self.oracle:
            return
        fresh = self._packed(rng, center, n)
        fresh += [k for k in self._fresh(rng, _FUSED_MIN) if k not in fresh]
        self.fused.insert_batch(np.asarray(fresh))
        for k in fresh:
            self.twin.insert(k)
            self.oracle[k] = k

    # -- topology changes ----------------------------------------------------

    @rule(pick=st.integers(0, 2**16))
    def rebuild_subtree(self, pick: int) -> None:
        entries = self.fused.h_level_entries()
        twin_entries = self.twin.h_level_entries()
        assert len(entries) == len(twin_entries)
        if not entries:
            return
        ids, parent, rank = entries[pick % len(entries)]
        _, t_parent, t_rank = twin_entries[pick % len(entries)]
        assert _rebuild(self.fused, parent, rank, ids) == (
            _rebuild(self.twin, t_parent, t_rank, ids)
        )

    @rule()
    def rebuild_all(self) -> None:
        assert self.fused.rebuild_all() == self.twin.rebuild_all()

    # -- checks --------------------------------------------------------------

    @invariant()
    def counters_match_twin(self) -> None:
        fused = self.fused.counters.snapshot()
        twin = self.twin.counters.snapshot()
        assert fused["lock_acquisitions"] <= twin["lock_acquisitions"]
        for name in LOCK_COUNTERS:
            fused.pop(name)
            twin.pop(name)
        assert fused == twin
        assert len(self.fused) == len(self.twin) == len(self.oracle)

    @invariant()
    def no_empty_leaf_below_the_root(self) -> None:
        for ix in (self.fused, self.twin):
            if not isinstance(ix._root, LeafNode):
                assert all(leaf.n_keys for leaf in walk_leaves(ix._root))

    @invariant()
    def plan_mirrors_match_live_leaves(self) -> None:
        """The write-log contract the fused ops rely on: while the plan is
        current, every plan leaf no write has logged since its last op
        reads as the plan mirrors it."""
        ix = self.fused
        plan = ix._batch_plan
        if plan is None or plan.version != ix._plan_version():
            return
        for lid, leaf in enumerate(plan.leaves):
            if leaf in ix._written_leaves:
                continue
            e = leaf.ebh
            detached = e._keys.base is not plan.store_keys
            assert bool(plan.leaf_detached[lid]) == detached
            if not detached:
                assert int(plan.leaf_n[lid]) == e.n_keys
                assert int(plan.leaf_cd[lid]) == e.conflict_degree

    @invariant()
    def no_lock_races(self) -> None:
        for ix in (self.fused, self.twin):
            if ix.lock_manager is not None:
                assert ix.lock_manager.race_report() == []

    def teardown(self) -> None:
        assert sorted(self.fused.items()) == sorted(self.oracle.items())
        assert self.fused.verify_integrity().ok
        assert self.twin.verify_integrity().ok


def _rebuild(ix: ChameleonIndex, parent, rank: int, ids) -> int:
    """``rebuild_subtree`` as the retrainer runs it: under the interval's
    retraining lock when a lock manager is attached."""
    if ix.lock_manager is None:
        return ix.rebuild_subtree(parent, rank, ids)
    with ix.lock_manager.retrain_lock(ids, ix.counters):
        return ix.rebuild_subtree(parent, rank, ids)


class LockedPlanMachine(PlanMachine):
    LOCKED = True


SETTINGS = settings(
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
PlanMachine.TestCase.settings = SETTINGS
LockedPlanMachine.TestCase.settings = SETTINGS
TestPlanMachine = PlanMachine.TestCase
TestLockedPlanMachine = LockedPlanMachine.TestCase
