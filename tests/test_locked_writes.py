"""A locked index charges exactly what a bare index charges.

Under an ``IntervalLockManager`` every write walks the upper h-1 levels to
find its interval, takes the query lock, and continues below the lock
boundary from that walk — so a locked op's path is walked, and charged,
once. A seeded random program of scalar and batch lookups, inserts and
deletes runs on a bare index (whose larger batches take the fused plan)
and on a twin under an armed lock manager (whose batches run the scalar
bodies, writes in batch order and lookups in key order, one query lock per
run of consecutive keys in the same interval). Results must match after every step, and so must every
``Counters`` field but the lock traffic.
"""

import numpy as np

from repro.core.config import ChameleonConfig
from repro.core.index import _FUSED_MIN, ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.datasets import load as load_dataset

BASE = load_dataset("UDEN", 1500, seed=21)
LO, HI = float(BASE.min()), float(BASE.max())
#: Half the fresh keys crowd into a narrow window, so leaves rehash and
#: split (some above the lock boundary) within the program.
HOT = LO + 0.3 * (HI - LO)
HOT_SPAN = 0.0001 * (HI - LO)
CONFIG = ChameleonConfig(leaf_target_keys=16, leaf_split_keys=48)
LOCK_COUNTERS = ("lock_acquisitions", "lock_waits")


def _work(index: ChameleonIndex) -> dict[str, int]:
    snap = index.counters.snapshot()
    for name in LOCK_COUNTERS:
        del snap[name]
    return snap


def test_locked_twin_charges_what_the_bare_index_charges():
    bare = ChameleonIndex(CONFIG, strategy="ChaB")
    manager = IntervalLockManager(debug_asserts=True)
    locked = ChameleonIndex(CONFIG, strategy="ChaB", lock_manager=manager)
    for ix in (bare, locked):
        ix.bulk_load(BASE)
    assert _work(bare) == _work(locked)
    oracle = {float(k): float(k) for k in BASE}
    rng = np.random.default_rng(17)

    def fresh(n):
        out = []
        while len(out) < n:
            if rng.random() < 0.6:
                k = HOT + HOT_SPAN * rng.lognormal(0.0, 1.5) / 20.0
            else:
                k = rng.uniform(LO, HI)
            k = float(k)
            if k not in oracle and k not in out:
                out.append(k)
        return out

    def mixed(n, repeats=False):
        live = np.fromiter(oracle, dtype=np.float64)
        keys = rng.choice(live, n - n // 3, replace=repeats).tolist() + fresh(n // 3)
        rng.shuffle(keys)
        return keys

    fused_batches = 0
    for _ in range(300):
        op = int(rng.integers(6))
        n = int(rng.integers(1, 5)) if op < 3 else int(rng.integers(1, 3 * _FUSED_MIN + 1))
        fused_batches += op >= 3 and n >= _FUSED_MIN
        if op == 0:
            for k in mixed(n):
                assert bare.lookup(k) == locked.lookup(k) == oracle.get(k)
        elif op == 1:
            for k in fresh(n):
                bare.insert(k)
                locked.insert(k)
                oracle[k] = k
        elif op == 2:
            for k in mixed(n):
                assert bare.delete(k) == locked.delete(k) == (oracle.pop(k, None) is not None)
        elif op == 3:
            keys = mixed(n)
            want = [oracle.get(k) for k in keys]
            assert bare.lookup_batch(keys) == locked.lookup_batch(keys) == want
        elif op == 4:
            keys = fresh(n)
            bare.insert_batch(keys)
            locked.insert_batch(keys)
            oracle.update((k, k) for k in keys)
        else:
            keys = mixed(n, repeats=True)
            want = [oracle.pop(k, None) is not None for k in keys]
            assert bare.delete_batch(keys) == locked.delete_batch(keys) == want
        assert _work(bare) == _work(locked)
        assert len(bare) == len(locked) == len(oracle)

    # The program reached the paths it is meant to compare.
    assert fused_batches > 0 and bare._batch_plan is not None
    assert bare.counters.splits > 0
    assert locked.counters.lock_acquisitions > 0
    assert manager.race_report() == []
    assert bare.verify_integrity().ok and locked.verify_integrity().ok
