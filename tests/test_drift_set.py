"""The retrainer's drift set: sweeps follow the writes, not the index size.

The index records every written leaf once a retrainer attaches, and each
sweep sums update counters only over the intervals those marks resolve to.
The full scan — every h-th-level entry's ``subtree_update_count`` — stays
as the reference: before any sweep it must predict exactly the intervals
the sweep rebuilds.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import ChameleonIndex, IntervalLockManager
from repro.core.config import ChameleonConfig
from repro.core.retrainer import RetrainingThread
from repro.datasets import face_like
from repro.robustness.chaos import _drifted_intervals
from repro.robustness.faults import InjectedKill

THRESHOLD = 8


def _index(locked: bool) -> tuple[ChameleonIndex, IntervalLockManager]:
    manager = IntervalLockManager()
    # Small split threshold: dense inserts split leaves during the program.
    config = ChameleonConfig(leaf_target_keys=16, leaf_split_keys=48)
    index = ChameleonIndex(
        config=config, strategy="ChaB", lock_manager=manager if locked else None
    )
    return index, manager


def _sweep_and_check(retrainer: RetrainingThread) -> int:
    """One sweep; the full scan must predict exactly the intervals rebuilt."""
    index = retrainer.index
    expected = _drifted_intervals(index, retrainer.update_threshold)
    original = index.rebuild_subtree
    rebuilt: list[tuple[int, ...]] = []

    def recording(parent, rank, ids=None):
        rebuilt.append(ids)
        return original(parent, rank, ids=ids)

    index.rebuild_subtree = recording
    try:
        n = retrainer.sweep_once()
    finally:
        del index.rebuild_subtree
    assert sorted(rebuilt) == sorted(expected)
    assert n == len(rebuilt) == len(expected)
    assert _drifted_intervals(index, retrainer.update_threshold) == []
    return n


@pytest.mark.parametrize("locked", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("threshold", [1, THRESHOLD])
def test_full_scan_predicts_every_sweep(locked, seed, threshold, tmp_path):
    """Random write programs; at threshold 1 every single unmarked write
    shows, at the higher one marks of intervals below it are dropped and
    must come back with the next write."""
    rng = np.random.default_rng(seed)
    keys = [float(k) for k in face_like(6000, seed=seed + 20)]
    index, manager = _index(locked)
    index.bulk_load(keys[:2500])
    pool = keys[2500:]
    live = set(keys[:2500])
    # Writes made before the retrainer attaches are found by its seed scan.
    for k in pool[:30]:
        index.insert(k)
        live.add(k)
    pool = pool[30:]
    retrainer = RetrainingThread(index, manager, update_threshold=threshold)
    swept = 0
    for step in range(120):
        op = int(rng.integers(0, 9))
        if op == 0 and pool:
            # A run of neighbouring keys lands in one leaf and splits it.
            start = int(rng.integers(0, max(1, len(pool) - 60)))
            batch, pool = pool[start : start + 60], pool[:start] + pool[start + 60 :]
            for k in sorted(batch):
                index.insert(k)
                live.add(k)
        elif op == 1 and live:
            for k in rng.choice(sorted(live), min(20, len(live)), replace=False):
                assert index.delete(float(k))
                live.discard(float(k))
        elif op == 2 and len(pool) >= 40:
            # Spread keys: most leaves take exactly one, the fused plan's
            # vectorised lane; a contiguous run exercises its stream lane.
            if step % 2:
                pick = set(rng.choice(len(pool), 40, replace=False).tolist())
                batch = [k for i, k in enumerate(pool) if i in pick]
                pool = [k for i, k in enumerate(pool) if i not in pick]
            else:
                batch, pool = pool[:40], pool[40:]
            index.insert_batch(batch)
            live.update(batch)
        elif op == 3 and len(live) >= 40:
            batch = [float(k) for k in rng.choice(sorted(live), 40, replace=False)]
            assert index.delete_batch(batch) == [True] * 40
            live.difference_update(batch)
        elif op == 4:
            entries = index.h_level_entries()
            ids, parent, rank = entries[int(rng.integers(0, len(entries)))]
            with manager.retrain_lock(ids, timeout=1.0) as acquired:
                assert acquired
                index.rebuild_subtree(parent, rank, ids=ids)
        elif op == 5 and step % 4 == 0:
            index.rebuild_all()
        elif op == 6:
            path = tmp_path / f"snap-{step}.idx"
            index.save(path)
            index = ChameleonIndex.load(path)
            assert index._drift is None
            if locked:
                index.lock_manager = manager
            retrainer = RetrainingThread(index, manager, update_threshold=threshold)
        else:
            swept += _sweep_and_check(retrainer)
    swept += _sweep_and_check(retrainer)
    assert swept > 0
    assert index.counters.splits > 0
    assert sorted(k for k, _ in index.items()) == sorted(live)
    assert index.verify_integrity().ok


@pytest.fixture
def drifted():
    manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
    keys = np.random.default_rng(11).permutation(face_like(3000, seed=11))
    index.bulk_load(np.sort(keys[:2000]))
    retrainer = RetrainingThread(
        index, manager, update_threshold=THRESHOLD, lock_timeout_s=0.01
    )
    for k in keys[2000:2600]:
        index.insert(float(k))
    expected = _drifted_intervals(index, THRESHOLD)
    assert len(expected) >= 3
    return index, manager, retrainer, expected


class TestCarryOver:
    def test_entries_skipped_on_lock_timeout_come_back(self, drifted):
        index, manager, retrainer, expected = drifted
        held = expected[1]
        with manager.query_lock(held):
            assert retrainer.sweep_once() == len(expected) - 1
        assert retrainer.stats.skipped_busy == 1
        assert _drifted_intervals(index, THRESHOLD) == [held]
        assert _sweep_and_check(retrainer) == 1

    def test_entries_whose_rebuild_failed_come_back(self, drifted, monkeypatch):
        index, _, retrainer, expected = drifted

        def boom(parent, rank, ids=None):
            raise RuntimeError("simulated rebuild failure")

        monkeypatch.setattr(index, "rebuild_subtree", boom)
        assert retrainer.sweep_once() == 0
        assert retrainer.stats.failed_retrains == len(expected)
        monkeypatch.undo()
        assert _drifted_intervals(index, THRESHOLD) == expected
        assert _sweep_and_check(retrainer) == len(expected)

    def test_entries_not_reached_before_stop_come_back(self, drifted, monkeypatch):
        index, _, retrainer, expected = drifted
        original = index.rebuild_subtree

        def stop_after_first(parent, rank, ids=None):
            retrainer._stop_event.set()
            return original(parent, rank, ids=ids)

        monkeypatch.setattr(index, "rebuild_subtree", stop_after_first)
        assert retrainer.sweep_once() == 1
        monkeypatch.undo()
        retrainer._stop_event.clear()
        left = _drifted_intervals(index, THRESHOLD)
        assert len(left) == len(expected) - 1 and set(left) < set(expected)
        assert _sweep_and_check(retrainer) == len(expected) - 1

    def test_entries_survive_an_escaping_kill(self, drifted, monkeypatch):
        index, _, retrainer, expected = drifted

        def kill(parent, rank, ids=None):
            raise InjectedKill("thread dies mid-sweep")

        monkeypatch.setattr(index, "rebuild_subtree", kill)
        with pytest.raises(InjectedKill):
            retrainer.sweep_once()
        monkeypatch.undo()
        assert _sweep_and_check(retrainer) == len(expected)


def test_writer_racing_a_live_retrainer_leaves_nothing_drifted():
    manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
    keys = [float(k) for k in face_like(5000, seed=4)]
    index.bulk_load(keys[:2500])
    retrainer = RetrainingThread(
        index, manager, period_s=0.002, update_threshold=4, lock_timeout_s=0.005
    )
    errors: list[BaseException] = []

    def writer() -> None:
        try:
            rng = np.random.default_rng(9)
            for k in keys[2500:]:
                index.insert(k)
                victim = keys[int(rng.integers(0, 2500))]
                if index.lookup(victim) is not None:
                    index.delete(victim)
                    index.insert(victim)
        except BaseException as exc:  # surfaced on the main thread
            errors.append(exc)

    # Frequent thread switches interleave marks, pops and counter reads.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        retrainer.start()
        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=120)
        retrainer.stop()
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and not errors
    assert retrainer.stats.passes > 1
    # stop() leaves the event set, which would end the sweep before its
    # first entry; the extra sweep runs as a live thread's next one would.
    retrainer._stop_event.clear()
    retrainer.sweep_once()
    assert _drifted_intervals(index, 4) == []
    assert sorted(k for k, _ in index.items()) == sorted(keys)
    assert index.verify_integrity().ok


class TestTracking:
    def test_untracked_index_records_nothing(self):
        index = ChameleonIndex(strategy="ChaB")
        keys = face_like(1200, seed=2)
        index.bulk_load(keys[:1000])
        index.insert_batch(keys[1000:1100])
        for k in keys[1100:]:
            index.insert(float(k))
        index.delete_batch(keys[:64])
        assert index._drift is None

    def test_attach_seeds_from_one_full_scan(self):
        index = ChameleonIndex(strategy="ChaB")
        keys = face_like(1200, seed=2)
        index.bulk_load(keys[:1000])
        for k in keys[1000:]:
            index.insert(float(k))
        written = {id(leaf) for leaf in _leaves(index) if leaf.update_count}
        RetrainingThread(index, IntervalLockManager())
        assert {id(leaf) for leaf in index._drift} == written

    def test_snapshots_drop_the_set_and_old_ones_still_load(self):
        index = ChameleonIndex(strategy="ChaB")
        keys = face_like(600, seed=2)
        index.bulk_load(keys[:500])
        RetrainingThread(index, IntervalLockManager())
        for k in keys[500:]:
            index.insert(float(k))
        assert index._drift
        assert pickle.loads(pickle.dumps(index))._drift is None
        state = index.__getstate__()
        del state["_drift"]  # a snapshot written before the set existed
        old = ChameleonIndex.__new__(ChameleonIndex)
        old.__setstate__(state)
        assert old._drift is None
        assert len(old) == len(index)


def _leaves(index):
    from repro.core.node import walk_leaves

    return list(walk_leaves(index._root))
