"""Tests for the structural-cost counters."""

from repro.baselines.counters import Counters, CounterScope


class TestCounters:
    def test_starts_at_zero(self):
        c = Counters()
        assert all(v == 0 for v in c.snapshot().values())

    def test_reset(self):
        c = Counters()
        c.comparisons = 5
        c.node_hops = 3
        c.reset()
        assert c.comparisons == 0
        assert c.node_hops == 0

    def test_snapshot_is_a_copy(self):
        c = Counters()
        snap = c.snapshot()
        c.comparisons = 10
        assert snap["comparisons"] == 0

    def test_restore_zeroes_names_missing_from_the_snapshot(self):
        c = Counters(node_hops=7, splits=2, watchdog_restarts=3)
        c.restore({"node_hops": 1})  # e.g. a snapshot older than the field
        assert c.node_hops == 1
        assert c.splits == 0
        assert c.watchdog_restarts == 0
        assert all(v == 0 for k, v in c.snapshot().items() if k != "node_hops")

    def test_field_names_cover_every_counter_in_order(self):
        from dataclasses import fields

        assert Counters.FIELD_NAMES == tuple(f.name for f in fields(Counters))
        assert list(Counters().snapshot()) == list(Counters.FIELD_NAMES)

    def test_diff(self):
        c = Counters()
        snap = c.snapshot()
        c.comparisons += 4
        c.shifts += 2
        delta = c.diff(snap)
        assert delta["comparisons"] == 4
        assert delta["shifts"] == 2
        assert delta["node_hops"] == 0

    def test_search_work_aggregate(self):
        c = Counters(node_hops=1, comparisons=2, model_evals=3, slot_probes=4, buffer_ops=5)
        assert c.total_search_work() == 15

    def test_update_work_includes_structural_events(self):
        c = Counters(shifts=10, splits=1, merges=1, retrain_keys=5)
        assert c.total_update_work() == 10 + 8 + 8 + 5

    def test_merge_from(self):
        a = Counters(comparisons=1)
        b = Counters(comparisons=2, splits=1)
        a.merge_from(b)
        assert a.comparisons == 3
        assert a.splits == 1


class TestCounterScope:
    def test_scope_captures_delta(self):
        c = Counters()
        with CounterScope(c) as scope:
            c.comparisons += 7
        assert scope.delta["comparisons"] == 7

    def test_scope_ignores_prior_activity(self):
        c = Counters()
        c.comparisons = 100
        with CounterScope(c) as scope:
            c.comparisons += 1
        assert scope.delta["comparisons"] == 1
