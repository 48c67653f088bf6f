"""Tests for the Interval Lock protocol (Definition 4, Section V-A)."""

import threading
import time
from contextlib import ExitStack

import pytest

from repro.baselines.counters import Counters
from repro.bench.ablations import _GlobalLockManager
from repro.core.interval_lock import IntervalLockManager


@pytest.fixture
def manager():
    return IntervalLockManager()


class TestQueryLock:
    def test_reentrant_for_different_queries(self, manager):
        """Multiple query threads share an interval simultaneously."""
        inside = threading.Event()
        release = threading.Event()
        entered = []

        def holder():
            with manager.query_lock((0, 1)):
                inside.set()
                release.wait(timeout=2)

        t = threading.Thread(target=holder, daemon=True)
        t.start()
        assert inside.wait(timeout=2)
        # Another query on the same interval must NOT block.
        start = time.perf_counter()
        with manager.query_lock((0, 1)):
            entered.append(time.perf_counter() - start)
        release.set()
        t.join(timeout=2)
        assert entered[0] < 0.5

    def test_counts_acquisitions(self, manager):
        counters = Counters()
        with manager.query_lock((1,), counters):
            pass
        assert counters.lock_acquisitions == 1
        assert counters.lock_waits == 0


class TestQueryHold:
    """``query_lock`` returns a single-use hold; entering it takes the lock."""

    def test_nothing_is_taken_until_entered(self, manager):
        counters = Counters()
        hold = manager.query_lock((13,), counters)
        assert manager.active_intervals() == 0
        assert counters.lock_acquisitions == 0
        with hold:
            assert manager.active_intervals() == 1
        assert manager.active_intervals() == 0
        assert counters.lock_acquisitions == 1

    def test_raising_body_releases_its_reader(self, manager):
        ids = (14,)
        with pytest.raises(RuntimeError, match="body failed"):
            with manager.query_lock(ids):
                assert manager._states[ids].readers == 1
                raise RuntimeError("body failed")
        assert manager._states[ids].readers == 0
        assert manager.stuck_intervals() == []
        with manager.retrain_lock(ids, timeout=0.5) as acquired:
            assert acquired

    def test_exit_stack_holds_release_when_the_stack_closes(self, manager):
        intervals = [(15,), (16, 1), (16, 2)]
        counters = Counters()
        with ExitStack() as stack:
            for ids in intervals:
                stack.enter_context(manager.query_lock(ids, counters))
            assert manager.active_intervals() == len(intervals)
            with manager.retrain_lock((15,), timeout=0.05) as acquired:
                assert not acquired
        assert manager.stuck_intervals() == []
        assert counters.lock_acquisitions == len(intervals)

    def test_debug_ledger_holds_query_only_inside_the_body(self):
        armed = IntervalLockManager(debug_asserts=True)
        ids = (17, 3)
        with armed.query_lock(ids):
            assert armed.held_modes(ids) == ("query",)
        assert armed.held_modes(ids) == ()
        with pytest.raises(KeyError):
            with armed.query_lock(ids):
                raise KeyError(ids)
        assert armed.held_modes(ids) == ()
        actions = [(e[1], e[2], e[3]) for e in armed.race_detector.events]
        assert actions == [(ids, "query", "acquire"), (ids, "query", "release")] * 2
        assert armed.race_report() == []

    def test_global_lock_ablation_blocks_a_query_on_any_interval(self):
        manager = _GlobalLockManager()
        counters = Counters()
        retrain_inside = threading.Event()
        release = threading.Event()
        query_done = threading.Event()

        def retrainer():
            with manager.retrain_lock((3, 1)) as acquired:
                assert acquired
                retrain_inside.set()
                release.wait(timeout=5)

        def query():
            with manager.query_lock((7, 2), counters):
                query_done.set()

        t_retrain = threading.Thread(target=retrainer, daemon=True)
        t_retrain.start()
        assert retrain_inside.wait(timeout=2)
        assert manager.is_retraining((0,))
        t_query = threading.Thread(target=query, daemon=True)
        t_query.start()
        deadline = time.perf_counter() + 2
        while manager._states[(0,)].waiters == 0:
            assert time.perf_counter() < deadline, "query never blocked"
            time.sleep(0.001)
        assert not query_done.is_set()
        release.set()
        assert query_done.wait(timeout=2)
        for t in (t_retrain, t_query):
            t.join(timeout=2)
            assert not t.is_alive()
        assert counters.lock_waits == 1
        assert manager.stuck_intervals() == []


class TestRetrainLock:
    def test_exclusive_against_queries_same_interval(self, manager):
        query_inside = threading.Event()
        query_release = threading.Event()

        def query():
            with manager.query_lock((2,)):
                query_inside.set()
                query_release.wait(timeout=2)

        t = threading.Thread(target=query, daemon=True)
        t.start()
        assert query_inside.wait(timeout=2)
        # Retrain on the same interval must time out while the query runs.
        with manager.retrain_lock((2,), timeout=0.05) as acquired:
            assert not acquired
        query_release.set()
        t.join(timeout=2)
        # Now it acquires.
        with manager.retrain_lock((2,), timeout=1.0) as acquired:
            assert acquired
            assert manager.is_retraining((2,))
        assert not manager.is_retraining((2,))

    def test_different_intervals_do_not_conflict(self, manager):
        """The paper's Fig. 7 scenario: retrain (0,0) while querying (n,1)."""
        with manager.retrain_lock((0, 0)) as acquired:
            assert acquired
            done = threading.Event()

            def query_other():
                with manager.query_lock((5, 1)):
                    done.set()

            t = threading.Thread(target=query_other, daemon=True)
            t.start()
            assert done.wait(timeout=1.0), "query on another interval blocked"
            t.join(timeout=1)

    def test_query_waits_for_retraining(self, manager):
        """A query arriving during a retrain waits, then proceeds."""
        retrain_started = threading.Event()
        query_done = threading.Event()
        counters = Counters()

        def retrainer():
            with manager.retrain_lock((3,)) as acquired:
                assert acquired
                retrain_started.set()
                time.sleep(0.2)

        def query():
            retrain_started.wait(timeout=2)
            with manager.query_lock((3,), counters):
                query_done.set()

        t1 = threading.Thread(target=retrainer, daemon=True)
        t2 = threading.Thread(target=query, daemon=True)
        t1.start()
        t2.start()
        assert query_done.wait(timeout=2)
        t1.join(timeout=2)
        t2.join(timeout=2)
        assert counters.lock_waits == 1

    def test_retrain_excludes_retrain(self, manager):
        with manager.retrain_lock((4,)) as first:
            assert first
            with manager.retrain_lock((4,), timeout=0.05) as second:
                assert not second

    def test_ids_comparison_not_overlap(self, manager):
        """(0,) and (0, 0) are different intervals — IDs compare exactly."""
        with manager.retrain_lock((0,)) as acquired:
            assert acquired
            with manager.retrain_lock((0, 0), timeout=0.2) as other:
                assert other


class TestRetrainLockDeadline:
    def test_timeout_is_a_deadline_not_per_wait(self, manager):
        """Repeated wakeups must not restart the timeout clock.

        A query lock is held for the whole test while another thread pulses
        the interval's condition every 50 ms (standing in for the notify
        storm a stream of short queries produces). With a per-wait timeout
        every pulse would rearm the 0.3 s clock and the retrainer would
        block for as long as the pulses continue; with a monotonic deadline
        it gives up at ~0.3 s total.
        """
        ids = (7,)
        stop_pulsing = threading.Event()
        query_inside = threading.Event()
        query_release = threading.Event()

        def query():
            with manager.query_lock(ids):
                query_inside.set()
                query_release.wait(timeout=5)

        def pulser():
            # Reach into the manager: wake the retrainer's condition without
            # changing the reader count, so its predicate stays blocked.
            state = manager._states[ids]
            while not stop_pulsing.wait(0.05):
                with manager._mutex:
                    state.condition.notify_all()

        t_query = threading.Thread(target=query, daemon=True)
        t_query.start()
        assert query_inside.wait(timeout=2)
        t_pulse = threading.Thread(target=pulser, daemon=True)
        t_pulse.start()
        start = time.perf_counter()
        with manager.retrain_lock(ids, timeout=0.3) as acquired:
            elapsed = time.perf_counter() - start
            assert not acquired
        stop_pulsing.set()
        query_release.set()
        t_query.join(timeout=2)
        t_pulse.join(timeout=2)
        assert 0.25 <= elapsed < 1.0, f"deadline not honoured: {elapsed:.3f}s"

    def test_timeout_skip_is_prompt_under_held_query_lock(self, manager):
        """A busy interval is skipped within ~timeout, not eventually."""
        ids = (8,)
        inside = threading.Event()
        release = threading.Event()

        def query():
            with manager.query_lock(ids):
                inside.set()
                release.wait(timeout=5)

        t = threading.Thread(target=query, daemon=True)
        t.start()
        assert inside.wait(timeout=2)
        start = time.perf_counter()
        with manager.retrain_lock(ids, timeout=0.1) as acquired:
            elapsed = time.perf_counter() - start
            assert not acquired
        release.set()
        t.join(timeout=2)
        assert elapsed < 0.8

    def test_blocked_queries_all_drain_after_retrain(self, manager):
        """Every query parked behind a retrain proceeds once it releases."""
        ids = (6,)
        n_queries = 5
        done = threading.Barrier(n_queries + 1)
        retrain_started = threading.Event()

        def query():
            retrain_started.wait(timeout=2)
            with manager.query_lock(ids):
                pass
            done.wait(timeout=5)

        threads = [
            threading.Thread(target=query, daemon=True)
            for _ in range(n_queries)
        ]
        for t in threads:
            t.start()
        with manager.retrain_lock(ids) as acquired:
            assert acquired
            retrain_started.set()
            time.sleep(0.1)  # let the queries pile up behind the retrain
        done.wait(timeout=5)  # raises BrokenBarrierError if any query hangs
        for t in threads:
            t.join(timeout=2)
            assert not t.is_alive()
        assert manager.active_intervals() == 0


class TestWaiterCounting:
    def test_query_release_without_waiters_does_not_notify(self, manager):
        ids = (10,)
        with manager.query_lock(ids):
            pass
        state = manager._states[ids]
        notified = []
        notify_all = state.condition.notify_all

        def counting_notify_all():
            notified.append(1)
            notify_all()

        state.condition.notify_all = counting_notify_all
        for _ in range(3):
            with manager.query_lock(ids):
                pass
        assert notified == []
        assert state.waiters == 0

    def test_blocked_retrain_acquires_promptly_once_the_reader_releases(self, manager):
        ids = (11,)
        inside = threading.Event()
        release = threading.Event()
        acquired_at = []

        def query():
            with manager.query_lock(ids):
                inside.set()
                release.wait(timeout=5)

        def retrain():
            with manager.retrain_lock(ids, timeout=5) as acquired:
                acquired_at.append((acquired, time.perf_counter()))

        t_query = threading.Thread(target=query, daemon=True)
        t_query.start()
        assert inside.wait(timeout=2)
        t_retrain = threading.Thread(target=retrain, daemon=True)
        t_retrain.start()
        deadline = time.perf_counter() + 2
        while manager._states[ids].waiters == 0:
            assert time.perf_counter() < deadline, "retrain never blocked"
            time.sleep(0.001)
        released_at = time.perf_counter()
        release.set()
        t_retrain.join(timeout=5)
        t_query.join(timeout=2)
        assert acquired_at and acquired_at[0][0]
        assert acquired_at[0][1] - released_at < 1.0
        assert manager._states[ids].waiters == 0

    def test_waiter_count_returns_to_zero(self, manager):
        ids = (12,)
        inside = threading.Event()
        release = threading.Event()

        def query():
            with manager.query_lock(ids):
                inside.set()
                release.wait(timeout=5)

        t = threading.Thread(target=query, daemon=True)
        t.start()
        assert inside.wait(timeout=2)
        with manager.retrain_lock(ids, timeout=0.05) as acquired:
            assert not acquired
        assert manager._states[ids].waiters == 0
        release.set()
        t.join(timeout=2)
        with manager.retrain_lock(ids, timeout=1.0) as acquired:
            assert acquired
            # A query parked behind the retrain counts as a waiter too.

            def parked_query():
                with manager.query_lock(ids):
                    pass

            parked = threading.Thread(target=parked_query, daemon=True)
            parked.start()
            deadline = time.perf_counter() + 2
            while manager._states[ids].waiters == 0:
                assert time.perf_counter() < deadline, "query never blocked"
                time.sleep(0.001)
        parked.join(timeout=2)
        assert not parked.is_alive()
        assert manager._states[ids].waiters == 0
        assert manager.active_intervals() == 0


class TestDiagnostics:
    def test_active_intervals(self, manager):
        assert manager.active_intervals() == 0
        with manager.query_lock((9,)):
            assert manager.active_intervals() == 1
        assert manager.active_intervals() == 0

    def test_is_retraining_unknown_interval(self, manager):
        assert not manager.is_retraining((42,))


class TestStress:
    def test_many_threads_no_deadlock(self, manager):
        """Interleaved queries and retrains across intervals terminate."""
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id):
            try:
                barrier.wait(timeout=5)
                for i in range(50):
                    ids = (worker_id % 4,)
                    if worker_id % 2 == 0:
                        with manager.query_lock(ids):
                            pass
                    else:
                        with manager.retrain_lock(ids, timeout=0.5):
                            pass
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive(), "worker deadlocked"
        assert not errors
