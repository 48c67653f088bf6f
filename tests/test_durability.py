"""Tests for the durability layer: WAL, checkpoints, recovery, crash matrix.

The torn-tail fuzz is the core durability contract check: truncate the log
at *every* byte offset inside the final frame and demand that recovery
never raises and never loses an operation before the torn one.
"""

import shutil

import pytest

from repro.baselines import SortedArrayIndex
from repro.core import ChameleonIndex
from repro.datasets import face_like
from repro.robustness.durability import (
    OP_INSERT,
    CrashWorkloadConfig,
    DurableIndex,
    RecoveryManager,
    TornWriteError,
    WriteAheadLog,
    apply_record,
    encode_frame,
    list_segments,
    list_snapshots,
    read_manifest,
    run_crash_case,
    scan,
)
from repro.robustness.faults import FaultInjector, FaultMode, InjectedFault


def _durable_workload(directory, n_keys=120, n_ops=30, fsync="always", **kwargs):
    """Seeded SortedArray workload through a DurableIndex.

    Returns ``(durable, states)`` where ``states[lsn]`` is the expected
    key->value dict right after the record with that LSN was logged.
    """
    keys = [float(k) for k in face_like(n_keys, seed=3)]
    loaded, pool = keys[: n_keys // 2], keys[n_keys // 2 :]
    durable = DurableIndex(SortedArrayIndex(), directory, fsync=fsync, **kwargs)
    durable.bulk_load(loaded)
    expected = {k: k for k in loaded}
    states = {durable.last_lsn: dict(expected)}
    for i in range(n_ops):
        if i % 3 == 2 and expected:
            victim = min(expected)
            assert durable.delete(victim)
            del expected[victim]
        else:
            key = pool[i % len(pool)] + i * 1e-7
            durable.insert(key)
            expected[key] = key
        states[durable.last_lsn] = dict(expected)
    return durable, states


def test_wal_append_scan_roundtrip(tmp_path):
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        for i in range(10):
            lsn = wal.append_record(OP_INSERT, (float(i), float(i)))
            assert lsn == i + 1
        assert wal.durable_lsn == 10
    result = scan(tmp_path)
    assert not result.truncated
    assert [r.lsn for r in result.records] == list(range(1, 11))
    assert [r.payload[0] for r in result.records] == [float(i) for i in range(10)]
    # Reopen resumes the LSN sequence after the existing tail.
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        assert wal.last_lsn == 10
        assert wal.append_record(OP_INSERT, (10.0, 10.0)) == 11


def test_wal_scan_stops_at_corruption(tmp_path):
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        for i in range(8):
            wal.append_record(OP_INSERT, (float(i), float(i)))
    seg = list_segments(tmp_path)[0]
    buf = bytearray(seg.read_bytes())
    clean = scan(tmp_path)
    # Flip one byte inside the 4th record's frame: everything after it
    # (including intact later frames) must be discarded.
    third_end = clean.valid_bytes[seg.name] - sum(
        len(encode_frame(r.lsn, r.op, r.payload)) for r in clean.records[3:]
    )
    buf[third_end + 5] ^= 0xFF
    seg.write_bytes(bytes(buf))
    result = scan(tmp_path)
    assert result.truncated
    assert [r.lsn for r in result.records] == [1, 2, 3]
    # A fresh WAL over the damaged directory repairs the tail and resumes.
    with WriteAheadLog(tmp_path, fsync="always") as wal:
        assert wal.last_lsn == 3
        assert wal.append_record(OP_INSERT, (99.0, 99.0)) == 4
    assert not scan(tmp_path).truncated


def test_wal_rotation_and_truncate_upto(tmp_path):
    with WriteAheadLog(tmp_path, fsync="none", segment_max_bytes=1024) as wal:
        for i in range(40):
            wal.append_record(OP_INSERT, (float(i), float(i)))
        segments = wal.segment_paths()
        assert len(segments) > 1
        # Truncating up to the last record of the first segment makes that
        # whole segment prunable; the active segment always survives.
        boundary = int(segments[1].name[4:-4]) - 1
        wal.truncate_upto(boundary)
        survivors = wal.segment_paths()
        assert 0 < len(survivors) < len(segments)
        assert [r.lsn for r in wal.records(after_lsn=boundary)] == list(
            range(boundary + 1, 41)
        )


def test_torn_tail_fuzz_never_loses_acked_prefix(tmp_path):
    durable, states = _durable_workload(tmp_path / "base", n_ops=24)
    durable.close()
    full_lsn = max(states)
    seg = list_segments(tmp_path / "base" / "wal")[-1]
    clean = scan(tmp_path / "base" / "wal")
    total = clean.valid_bytes[seg.name]
    last = clean.records[-1]
    frame_start = total - len(encode_frame(last.lsn, last.op, last.payload))

    # Truncate at every byte offset of the final frame (frame_start =
    # zero bytes of it survive; total - 1 = all but the last byte).
    for cut in range(frame_start, total):
        case_dir = tmp_path / f"cut{cut}"
        shutil.copytree(tmp_path / "base", case_dir)
        seg_copy = case_dir / "wal" / seg.name
        with open(seg_copy, "r+b") as f:
            f.truncate(cut)
        index, report = RecoveryManager(case_dir, SortedArrayIndex).recover()
        assert report.failed_applies == 0
        assert report.last_lsn == full_lsn - 1, f"cut={cut}"
        assert dict(index.items()) == states[full_lsn - 1], f"cut={cut}"
        assert not index.verify_integrity().violations

    # The untruncated directory recovers the full acknowledged state.
    index, report = RecoveryManager(tmp_path / "base", SortedArrayIndex).recover()
    assert report.last_lsn == full_lsn
    assert dict(index.items()) == states[full_lsn]


def test_checkpoint_roundtrip_prune_and_tail_replay(tmp_path):
    durable, states = _durable_workload(
        tmp_path, n_ops=40, checkpoint_every_records=10, keep_checkpoints=2
    )
    durable.close()
    snapshots = list_snapshots(tmp_path)
    assert 0 < len(snapshots) <= 2
    manifest = read_manifest(tmp_path)
    assert manifest is not None
    assert manifest.snapshot == snapshots[-1].name
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert report.used_checkpoint
    assert report.checkpoint_lsn == manifest.last_lsn
    # Only the tail after the newest checkpoint is replayed.
    assert report.replayed_records == report.last_lsn - manifest.last_lsn
    assert dict(index.items()) == states[max(states)]


def test_recovery_after_segment_pruning(tmp_path):
    """Checkpoint truncation prunes whole segments; the surviving log
    starts mid-stream and recovery must still replay its tail."""
    durable, states = _durable_workload(
        tmp_path,
        n_ops=40,
        checkpoint_every_records=12,
        segment_max_bytes=1024,
    )
    durable.close()
    assert len(list_segments(tmp_path / "wal")) >= 1
    tail = scan(tmp_path / "wal")
    assert not tail.truncated
    # Pruning really happened: the log no longer reaches back to LSN 1.
    assert tail.records and tail.records[0].lsn > 1
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert report.used_checkpoint
    assert report.failed_applies == 0
    assert dict(index.items()) == states[max(states)]


def test_recovery_survives_missing_manifest(tmp_path):
    durable, states = _durable_workload(
        tmp_path, n_ops=25, checkpoint_every_records=10
    )
    durable.close()
    (tmp_path / "MANIFEST").unlink()
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert report.used_checkpoint  # fell back to the snapshot files
    assert report.failed_applies == 0
    assert dict(index.items()) == states[max(states)]


def test_recovery_with_no_checkpoint_replays_from_empty(tmp_path):
    durable, states = _durable_workload(tmp_path, n_ops=15)
    durable.close()
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert not report.used_checkpoint
    assert report.replayed_records == max(states)
    assert dict(index.items()) == states[max(states)]


def test_double_replay_is_idempotent(tmp_path):
    durable, states = _durable_workload(tmp_path, n_ops=20)
    durable.close()
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    before = dict(index.items())
    # Replaying the whole log a second time over the recovered index must
    # be a no-op: inserts hit DuplicateKeyError (swallowed), deletes of
    # absent keys report False, bulk_load replaces wholesale.
    replayed = list(scan(tmp_path / "wal").records)
    assert replayed
    for record in replayed:
        apply_record(index, record)
    assert dict(index.items()) == before == states[max(states)]


def _mixed_ops(index, keys, pool):
    index.bulk_load(keys)
    results = []
    for i, key in enumerate(pool):
        if i % 4 == 3:
            results.append(index.delete(float(keys[i])))
        else:
            index.insert(float(key))
        results.append(index.lookup(float(keys[(i * 7) % len(keys)])))
    return results


def test_wal_neutrality_counters_bit_identical(tmp_path):
    """WAL-on and WAL-off runs of one schedule share structural counters.

    The durability wrapper is apply-then-log: every index call it makes is
    exactly the call the plain run makes (the delete pre-peek restores the
    counters it touches), so the structural cost model may not move.
    """
    keys = [float(k) for k in face_like(400, seed=9)]
    loaded, pool = keys[:300], keys[300:]

    plain = ChameleonIndex()
    plain_results = _mixed_ops(plain, loaded, pool)

    wrapped = ChameleonIndex()
    durable = DurableIndex(wrapped, tmp_path / "dur", fsync="group")
    durable_results = _mixed_ops(durable, loaded, pool)
    durable.close()

    assert durable_results == plain_results
    assert wrapped.counters == plain.counters


@pytest.mark.parametrize("locked", [False, True])
def test_durable_peeks_feed_no_read_telemetry(tmp_path, locked):
    """Rollback and certification peeks are not reads.

    With SLO and metrics armed, durable ``delete``, ``insert_batch`` and
    ``delete_batch`` leave the ``lookup`` SLO window and the lookup
    histograms (descent depth, probe length) exactly where they were.
    """
    from repro import obs
    from repro.core import IntervalLockManager

    keys = [float(k) for k in face_like(3000, seed=5)]
    loaded, pool = keys[:2000], keys[2000:]
    index = ChameleonIndex(lock_manager=IntervalLockManager() if locked else None)
    durable = DurableIndex(index, tmp_path / "dur", fsync="none")
    durable.bulk_load(loaded)
    tracker = obs.arm_slo()
    registry = obs.arm_metrics()
    lookup_hists = ("chameleon_descent_depth_levels", "chameleon_probe_length_slots")
    try:
        durable.lookup(loaded[0])  # the sinks do see real reads
        seen = tracker.window_count("lookup")
        hist = [registry.histogram(name).n_observed for name in lookup_hists]
        assert seen == 1 and all(hist)
        for k in loaded[:40]:
            assert durable.delete(k)
        durable.insert_batch(pool[:64])
        assert durable.delete_batch(loaded[40:104]) == [True] * 64
        assert tracker.window_count("lookup") == seen
        assert [registry.histogram(name).n_observed for name in lookup_hists] == hist
    finally:
        obs.disarm_slo()
        obs.disarm_metrics()
        durable.close()
    assert durable.index.peek(loaded[0]) is None
    assert durable.index.peek(pool[0]) == pool[0]


def test_durable_delete_is_one_walk_one_lock_and_a_faithful_rollback(tmp_path, monkeypatch):
    """A durable delete pops: one query lock, and the rollback after a
    failed append re-inserts the popped value, not the key."""
    from repro.core import IntervalLockManager

    keys = [float(k) for k in face_like(400, seed=4)]
    manager = IntervalLockManager(debug_asserts=True)
    durable = DurableIndex(ChameleonIndex(lock_manager=manager), tmp_path, fsync="none")
    durable.bulk_load(keys, [2.0 * k + 1.0 for k in keys])
    entered = []
    query_lock = manager.query_lock

    def counting_query_lock(ids, counters=None):
        entered.append(ids)
        return query_lock(ids, counters)

    monkeypatch.setattr(manager, "query_lock", counting_query_lock)
    assert durable.delete(keys[10])
    assert len(entered) == 1
    assert durable.last_lsn == 2

    victim = keys[11]
    inj = FaultInjector(seed=0)
    inj.arm("wal.append", FaultMode.RAISE, probability=1.0, max_fires=1)
    with inj.installed():
        with pytest.raises(InjectedFault):
            durable.delete(victim)
    assert durable.lookup(victim) == 2.0 * victim + 1.0
    assert durable.last_lsn == 2

    absent = (keys[20] + keys[21]) / 2.0
    assert absent not in keys
    assert durable.delete(absent) is False
    assert durable.last_lsn == 2
    assert manager.race_report() == []
    durable.close()


def test_short_write_fault_rolls_back_and_log_stays_clean(tmp_path):
    durable, states = _durable_workload(tmp_path, n_ops=5)
    lsn_before = durable.last_lsn
    inj = FaultInjector(seed=1)
    inj.arm("wal.short_write", FaultMode.SKIP, probability=1.0, max_fires=1)
    with inj.installed():
        with pytest.raises(TornWriteError):
            durable.insert(123456.75)
    # The apply was rolled back and the torn prefix truncated off disk.
    assert durable.lookup(123456.75) is None
    assert durable.last_lsn == lsn_before
    assert dict(durable.items()) == states[lsn_before]
    # The log is still appendable and the next write is durable.
    durable.insert(123456.75)
    durable.close()
    index, report = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert not report.wal_truncated
    assert index.lookup(123456.75) == 123456.75


def test_fsync_fault_rolls_back_under_always_policy(tmp_path):
    durable, states = _durable_workload(tmp_path, n_ops=5, fsync="always")
    lsn_before = durable.last_lsn
    inj = FaultInjector(seed=1)
    inj.arm("wal.fsync", FaultMode.RAISE, probability=1.0, max_fires=1)
    with inj.installed():
        with pytest.raises(InjectedFault):
            durable.insert(7777.5)
    assert durable.lookup(7777.5) is None
    assert dict(durable.items()) == states[lsn_before]
    durable.close()
    index, _ = RecoveryManager(tmp_path, SortedArrayIndex).recover()
    assert dict(index.items()) == states[lsn_before]


def test_delete_rollback_is_not_fault_injected(tmp_path):
    """A failed append's compensating re-insert must not itself be
    fault-injectable: with ``ebh.insert`` armed at probability 1.0 the
    rollback would drop the key from memory while oracle and log keep it
    (the chaos harness caught exactly this)."""
    keys = [float(k) for k in face_like(300, seed=2)]
    durable = DurableIndex(ChameleonIndex(), tmp_path, fsync="always")
    durable.bulk_load(keys)
    victim = keys[10]
    inj = FaultInjector(seed=0)
    inj.arm("wal.append", FaultMode.RAISE, probability=1.0, max_fires=1)
    inj.arm("ebh.insert", FaultMode.RAISE, probability=1.0)
    with inj.installed():
        with pytest.raises(InjectedFault):
            durable.delete(victim)
    assert durable.lookup(victim) == victim
    assert durable.last_lsn == 1  # only the bulk load ever reached the log
    durable.close()


@pytest.mark.parametrize("point", ["wal.mid_append", "checkpoint.mid_manifest"])
def test_crash_case_subprocess_recovers_acked_prefix(point, tmp_path):
    config = CrashWorkloadConfig(
        n_keys=800, n_ops=120, checkpoint_every=40, fsync="always"
    )
    report = run_crash_case(point, seed=0, config=config, workdir=tmp_path)
    assert report.killed and report.triggered, report
    assert report.ok, report
    assert report.recovered_lsn >= report.acked_lsn


def test_crash_case_batch_writes_recover_on_batch_boundary(tmp_path):
    """SIGKILL inside a *bulk* WAL append: the torn batch frame truncates
    at scan time and recovery lands exactly on the previous batch
    boundary, which is the acked prefix (a batch acks as one record).

    ``on_hit`` is explicit: the batch workload logs ~13 records total,
    well under ``default_hit_for``'s scalar-scale pick.
    """
    config = CrashWorkloadConfig(
        n_keys=800, n_ops=12, checkpoint_every=6, fsync="always", batch_size=48
    )
    report = run_crash_case(
        "wal.mid_append", seed=0, on_hit=5, config=config, workdir=tmp_path
    )
    assert report.killed and report.triggered, report
    assert report.ok, report
    assert report.recovered_lsn == report.acked_lsn == 4


def test_wal_neutrality_batch_writes_counters_bit_identical(tmp_path):
    """WAL-on and WAL-off batch writes share structural counters exactly.

    The durable batch lanes only add counter-neutral peeks around the
    index's own ``insert_batch``/``delete_batch`` calls, so a batched
    schedule must leave bit-identical Counters — and one bulk WAL record
    per applied batch, replaying to the same final structure.
    """
    keys = sorted({float(k) for k in face_like(900, seed=5)})
    loaded, fresh = keys[:600], keys[600:]

    def batch_schedule(index):
        index.bulk_load(loaded)
        out = [index.delete_batch(loaded[100:196])]
        index.insert_batch(fresh[:96])
        # Mix present, just-inserted, and absent keys in one delete batch.
        out.append(index.delete_batch(loaded[300:340] + fresh[:8] + [-1.0]))
        index.insert_batch(fresh[96:160], [k + 0.5 for k in fresh[96:160]])
        return out

    plain = ChameleonIndex()
    plain_out = batch_schedule(plain)

    wrapped = ChameleonIndex()
    durable = DurableIndex(wrapped, tmp_path / "dur", fsync="always")
    durable_out = batch_schedule(durable)
    durable.close()

    assert durable_out == plain_out
    assert wrapped.counters == plain.counters
    assert sorted(durable.items()) == sorted(plain.items())
    # One frame per applied batch: bulk load + 2 deletes + 2 inserts.
    assert durable.last_lsn == 5
    index, report = RecoveryManager(tmp_path / "dur", ChameleonIndex).recover()
    assert report.failed_applies == 0
    assert sorted(index.items()) == sorted(plain.items())


def test_batch_append_failure_rolls_back_whole_batch(tmp_path):
    """A failed bulk append compensates the *entire* batch before raising:
    memory returns to the pre-batch state and the log gains no record."""
    keys = sorted({float(k) for k in face_like(400, seed=7)})
    loaded, fresh = keys[:300], keys[300:]
    durable = DurableIndex(ChameleonIndex(), tmp_path, fsync="always")
    durable.bulk_load(loaded)
    before_items = sorted(durable.items())
    lsn_before = durable.last_lsn

    inj = FaultInjector(seed=0)
    inj.arm("wal.append", FaultMode.RAISE, probability=1.0, max_fires=1)
    with inj.installed():
        with pytest.raises(InjectedFault):
            durable.insert_batch(fresh[:64])
    assert sorted(durable.items()) == before_items
    assert durable.last_lsn == lsn_before

    inj = FaultInjector(seed=0)
    inj.arm("wal.append", FaultMode.RAISE, probability=1.0, max_fires=1)
    with inj.installed():
        with pytest.raises(InjectedFault):
            durable.delete_batch(loaded[:64])
    assert sorted(durable.items()) == before_items
    assert durable.last_lsn == lsn_before
    durable.close()
    index, _ = RecoveryManager(tmp_path, ChameleonIndex).recover()
    assert sorted(index.items()) == before_items


def test_snapshot_without_topology_epoch_loads_and_recovers(tmp_path):
    """A ChameleonIndex snapshot written before the topology epoch existed
    (its pickled state lacks ``_topology_epoch``) still loads, serves fused
    batches, and recovers through RecoveryManager with a WAL tail."""
    keys = sorted({float(k) for k in face_like(900, seed=11)})
    loaded, fresh = keys[:600], keys[600:]
    durable = DurableIndex(ChameleonIndex(), tmp_path, fsync="always")
    durable.bulk_load(loaded)
    durable.insert_batch(fresh[:100])
    durable.checkpoint()
    # Rewrite the checkpoint in the older layout.
    old = ChameleonIndex.__new__(ChameleonIndex)
    old.__dict__.update(durable.index.__getstate__())
    del old.__dict__["_topology_epoch"]
    assert "_topology_epoch" not in old.__getstate__()
    old.save(tmp_path / read_manifest(tmp_path).snapshot)
    durable.insert_batch(fresh[100:200])
    assert all(durable.delete_batch(loaded[:64]))
    durable.close()

    probe = loaded[:96] + fresh[150:250]
    want = durable.index.lookup_batch(probe)
    assert sum(v is not None for v in want) == 32 + 50
    loaded_back = ChameleonIndex.load(tmp_path / read_manifest(tmp_path).snapshot)
    assert loaded_back.lookup_batch(loaded[:64]) == loaded[:64]
    index, report = RecoveryManager(tmp_path, ChameleonIndex).recover()
    assert report.used_checkpoint and report.failed_applies == 0
    assert index.lookup_batch(probe) == want
    index.insert_batch(fresh[250:])
    live = loaded[64:] + fresh[:200] + fresh[250:]
    assert sorted(index.items()) == [(k, k) for k in sorted(live)]
    assert index.verify_integrity().ok


# -- effect-analysis regression fixes (RL012/RL014) ---------------------------


def test_listing_helpers_tolerate_damaged_directory(tmp_path, monkeypatch):
    """``scan``/``recover`` promise never to raise; an unreadable listing
    is damaged state, not an excuse (RL012 regression)."""
    from pathlib import Path

    blocker = tmp_path / "durdir"
    blocker.write_text("not a directory")
    assert list_segments(blocker) == []
    assert list_snapshots(blocker) == []
    result = scan(blocker)
    assert not result.records

    real_dir = tmp_path / "d"
    real_dir.mkdir()

    def denied(self):
        raise PermissionError("denied")

    monkeypatch.setattr(Path, "iterdir", denied)
    assert list_segments(real_dir) == []
    assert list_snapshots(real_dir) == []


def test_start_segment_failure_does_not_leak_fd(tmp_path, monkeypatch):
    """A stat failure between open and ownership transfer must close the
    freshly opened segment fd (RL014 regression)."""
    import builtins
    from pathlib import Path

    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        f = real_open(file, *args, **kwargs)
        if str(file).endswith(".seg"):
            opened.append(f)
        return f

    real_stat = Path.stat

    def exploding_stat(self, **kwargs):
        if self.suffix == ".seg":
            raise OSError("disk gone")
        return real_stat(self, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(Path, "stat", exploding_stat)
    with pytest.raises(OSError):
        WriteAheadLog(tmp_path / "wal")
    assert opened, "segment file was never opened"
    assert all(f.closed for f in opened)
