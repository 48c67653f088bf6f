"""Tests for the analytic cost model."""

import numpy as np
import pytest

from repro.baselines.counters import Counters
from repro.core.builder import build_greedy, make_leaf
from repro.core.config import ChameleonConfig
from repro.core.costs import (
    cache_penalty,
    expected_probe_cost,
    leaf_cost,
    measured_structure_cost,
    split_step_cost,
)
from repro.datasets import face_like


@pytest.fixture
def config():
    return ChameleonConfig()


class TestExpectedProbeCost:
    def test_empty_and_degenerate(self):
        assert expected_probe_cost(0, 10) == 1.0
        assert expected_probe_cost(5, 0) == 1.0

    def test_grows_with_load(self):
        low = expected_probe_cost(10, 100)
        high = expected_probe_cost(90, 100)
        assert high > low > 1.0

    def test_full_node_is_finite(self):
        assert np.isfinite(expected_probe_cost(100, 100))


class TestCachePenalty:
    def test_monotone_in_capacity(self):
        assert cache_penalty(1 << 20) > cache_penalty(1 << 10) > cache_penalty(8)

    def test_small_capacity_floor(self):
        assert cache_penalty(1) == cache_penalty(2)


class TestLeafAndSplitCosts:
    def test_leaf_cost_positive(self, config):
        q, m = leaf_cost(100, config)
        assert q > 0 and m > 0

    def test_bigger_leaves_cost_more_query_per_cache(self, config):
        q_small, _ = leaf_cost(64, config)
        q_big, _ = leaf_cost(64_000, config)
        assert q_big > q_small

    def test_split_memory_amortises_over_keys(self):
        _, m_few = split_step_cost(64, 10)
        _, m_many = split_step_cost(64, 10_000)
        assert m_few > m_many


class TestStructureCost:
    """:func:`measured_structure_cost`, the retrainer gate's price of a
    built subtree."""

    def test_leaf_only(self, config):
        counters = Counters()
        keys = np.linspace(0, 100, 50)
        leaf = make_leaf(keys, list(keys), 0.0, 101.0, config, counters)
        q, m = measured_structure_cost(leaf, config)
        assert q > 0 and m > 0

    def test_tree_query_cost_reflects_depth(self, config):
        counters = Counters()
        keys = face_like(5000, seed=0)
        tree = build_greedy(keys, list(keys), float(keys[0]),
                            float(keys[-1]) + 1, config, counters)
        leaf = make_leaf(keys, list(keys), float(keys[0]),
                         float(keys[-1]) + 1, config, counters)
        q_tree, _ = measured_structure_cost(tree, config)
        q_leaf, _ = measured_structure_cost(leaf, config)
        # The tree pays hops but smaller leaves; both must be sane.
        assert 0 < q_tree < 5
        assert 0 < q_leaf < 5

    def test_empty_structure(self, config):
        counters = Counters()
        leaf = make_leaf(np.empty(0), [], 0.0, 1.0, config, counters)
        assert measured_structure_cost(leaf, config) == (1.0, 1.0)

    def test_measured_cost_sees_real_conflicts(self, config):
        """A leaf with a badly fitted hash must look expensive even though
        it holds the same keys at the same capacity as a well-fitted one."""
        counters = Counters()
        from repro.core.ebh import ErrorBoundedHash
        from repro.core.node import LeafNode

        # Deliberately misfitted: dense keys, huge model interval.
        keys = np.linspace(500.0, 501.0, 64)
        bad = ErrorBoundedHash(0.0, 1e9, config.theorem1_capacity(64),
                               counters=counters)
        for k in keys:
            bad.insert(float(k), k)
        bad_leaf = LeafNode(bad, route_low=0.0, route_high=1e9)
        good_leaf = make_leaf(keys, list(keys), 0.0, 1e9, config, counters)
        q_bad, _ = measured_structure_cost(bad_leaf, config)
        q_good, _ = measured_structure_cost(good_leaf, config)
        assert q_bad > q_good
