"""Tests for the TSMDP and DARE agents."""

import numpy as np
import pytest

from repro.core.config import ChameleonConfig
from repro.core.features import node_state, state_size
from repro.rl.dare import (
    DAREAgent,
    gene_bounds,
    gene_length,
    interpolated_fanout,
    interpolated_fanouts,
    split_genes,
)
from repro.rl.rewards import RewardWeights
from repro.rl.tsmdp import TSMDPAgent


@pytest.fixture
def config():
    return ChameleonConfig(b_t=16, b_d=16, matrix_width=8)


class TestNodeState:
    def test_state_size(self, config):
        keys = np.linspace(0, 100, 50)
        state = node_state(keys, config.b_t)
        assert state.shape == (state_size(config.b_t),)

    def test_pdf_part_sums_to_one(self, config):
        keys = np.linspace(0, 100, 50)
        state = node_state(keys, config.b_t)
        assert state[: config.b_t].sum() == pytest.approx(1.0)

    def test_features_bounded(self, config):
        keys = np.linspace(0, 1e12, 1000)
        state = node_state(keys, config.b_t)
        assert (state >= -1e-9).all()
        assert state[-1] <= 1.0  # scaled lsn
        assert state[-2] <= 1.0  # scaled log count

    def test_single_key_state(self, config):
        state = node_state(np.array([5.0]), config.b_t)
        assert np.isfinite(state).all()

    def test_empty_state(self, config):
        state = node_state(np.array([]), config.b_t)
        assert np.isfinite(state).all()


class TestTSMDPAgent:
    def test_heuristic_fanout_small_node_is_leaf(self, config):
        agent = TSMDPAgent(config)
        assert agent.heuristic_fanout(10) == 1
        assert agent.heuristic_fanout(2 * config.leaf_target_keys) == 1

    def test_heuristic_fanout_larger_nodes_split(self, config):
        agent = TSMDPAgent(config)
        f = agent.heuristic_fanout(100 * config.leaf_target_keys)
        assert f > 1
        assert f in config.action_fanouts

    def test_heuristic_fanout_capped_by_action_space(self, config):
        agent = TSMDPAgent(config)
        assert agent.heuristic_fanout(10**9) <= max(config.action_fanouts)

    def test_untrained_choose_uses_heuristic(self, config):
        agent = TSMDPAgent(config)
        keys = np.linspace(0, 100, 20)
        state = node_state(keys, config.b_t)
        fanout, idx = agent.choose_fanout(state)
        assert fanout == 1  # 20 keys < 2 * target
        assert config.action_fanouts[idx] == fanout

    def test_trained_choose_uses_network(self, config):
        agent = TSMDPAgent(config)
        agent.trained = True
        keys = np.linspace(0, 100, 20)
        state = node_state(keys, config.b_t)
        fanout, idx = agent.choose_fanout(state)
        assert fanout == config.action_fanouts[idx]

    def test_action_index_roundtrip(self, config):
        agent = TSMDPAgent(config)
        for i, fanout in enumerate(config.action_fanouts):
            assert agent.action_index_for(fanout) == i

    def test_decode_n_keys_inverts_feature(self, config):
        agent = TSMDPAgent(config)
        for n in (10, 1000, 50_000):
            state = node_state(np.linspace(0, 1, max(2, n))[:n], config.b_t)
            decoded = agent._decode_n_keys(state)
            assert decoded == pytest.approx(n, rel=0.02)

    def test_remember_and_train(self, config):
        agent = TSMDPAgent(config)
        state = node_state(np.linspace(0, 1, 50), config.b_t)
        agent.remember(state, 0, -1.0, [], [])
        loss = agent.train_step()
        assert loss is not None and np.isfinite(loss)

    def test_end_episode_decays_temperature(self, config):
        agent = TSMDPAgent(config)
        before = agent.temperature.value
        agent.end_episode()
        assert agent.temperature.value < before


class TestGeneCodec:
    def test_gene_length(self, config):
        assert gene_length(config) == 1 + (config.h - 2) * config.matrix_width

    def test_bounds(self, config):
        lower, upper = gene_bounds(config)
        assert upper[0] == config.root_fanout_max
        assert (upper[1:] == config.inner_fanout_max).all()
        assert (lower == 1.0).all()

    def test_split_genes_roundtrip(self, config):
        genes = np.arange(1, gene_length(config) + 1, dtype=float)
        p0, matrix = split_genes(genes, config)
        assert p0 == 1
        assert matrix.shape == (config.h - 2, config.matrix_width)

    def test_split_genes_clamps_root(self, config):
        genes = np.ones(gene_length(config))
        genes[0] = 10.0**9
        p0, _ = split_genes(genes, config)
        assert p0 == config.root_fanout_max

    def test_split_genes_validates_length(self, config):
        with pytest.raises(ValueError):
            split_genes(np.ones(3), config)


class TestEq4Interpolation:
    def test_paper_worked_example(self):
        """Fig. 6's example: h=3, L=4, mk=0, Mk=3, N10 over [0,1],
        row = [5.1, 1.3, ...] -> x=0.5, f = round(0.5*1.3 + 0.5*5.1) = 3."""
        config = ChameleonConfig(h=3, matrix_width=4)
        matrix = np.array([[5.1, 1.3, 2.0, 2.0]])
        f = interpolated_fanout(matrix, 1, 0.0, 1.0, 0.0, 3.0, config)
        assert f == 3

    def test_clamps_to_valid_range(self, config):
        matrix = np.full((config.h - 2, config.matrix_width), 1e9)
        f = interpolated_fanout(matrix, 1, 0.0, 1.0, 0.0, 10.0, config)
        assert f == config.inner_fanout_max
        matrix = np.zeros((config.h - 2, config.matrix_width))
        f = interpolated_fanout(matrix, 1, 0.0, 1.0, 0.0, 10.0, config)
        assert f == 1

    def test_rightmost_position(self, config):
        matrix = np.ones((config.h - 2, config.matrix_width)) * 4
        f = interpolated_fanout(matrix, 1, 9.0, 10.0, 0.0, 10.0, config)
        assert f == 4

    def test_degenerate_span(self, config):
        matrix = np.ones((config.h - 2, config.matrix_width)) * 4
        assert interpolated_fanout(matrix, 1, 0.0, 1.0, 5.0, 5.0, config) == 1

    @pytest.mark.parametrize("width", [1, 2, 8])
    def test_array_form_equals_scalar(self, width):
        """Every entry of the vectorised Eq. 4 equals the scalar call,
        including half-way values (round half to even) and both clamps."""
        config = ChameleonConfig(h=4, matrix_width=width)
        rng = np.random.default_rng(width)
        matrix = np.exp(rng.uniform(-1.0, 8.0, (config.h - 2, width)))
        matrix[0, 0] = 2.5
        matrix[1, -1] = 1e9
        lows = np.concatenate([rng.uniform(-5.0, 105.0, 300), [0.0, 100.0]])
        highs = lows + np.concatenate([rng.exponential(3.0, 300), [0.0, 1.0]])
        for level in (1, 2):
            got = interpolated_fanouts(matrix, level, lows, highs, 0.0, 100.0, config)
            want = [
                interpolated_fanout(matrix, level, lo, hi, 0.0, 100.0, config)
                for lo, hi in zip(lows, highs)
            ]
            assert got.tolist() == want
        assert interpolated_fanouts(matrix, 1, lows, highs, 5.0, 5.0, config).tolist() \
            == [1] * len(lows)


class TestDAREAgent:
    def test_heuristic_action_shape_and_bounds(self, config):
        agent = DAREAgent(config)
        genes = agent.heuristic_action(100_000)
        lower, upper = gene_bounds(config)
        assert genes.shape == (gene_length(config),)
        assert (genes >= lower).all() and (genes <= upper).all()

    def test_predict_costs_shape(self, config):
        agent = DAREAgent(config)
        state = node_state(np.linspace(0, 1, 100), config.b_d)
        costs = agent.predict_costs(state, agent.heuristic_action(100))
        assert costs.shape == (1, 2)

    def test_critic_training_reduces_loss(self, config):
        agent = DAREAgent(config)
        state = node_state(np.linspace(0, 1, 100), config.b_d)
        genes = agent.heuristic_action(1000)
        target = np.array([0.4, 0.6])
        first = agent.train_critic(state, genes, target, steps=1)
        for _ in range(150):
            last = agent.train_critic(state, genes, target, steps=1)
        assert last < first

    def test_propose_action_with_custom_fitness(self, config):
        agent = DAREAgent(config)
        state = node_state(np.linspace(0, 1, 100), config.b_d)
        target_root = 64.0

        def fitness(pool):
            return -np.abs(np.log(pool[:, 0]) - np.log(target_root))

        genes = agent.propose_action(state, fitness_fn=fitness, ga_iterations=30)
        assert 4 <= genes[0] <= 4096  # converged near the target root fanout

    def test_propose_action_with_critic(self, config):
        agent = DAREAgent(config)
        state = node_state(np.linspace(0, 1, 100), config.b_d)
        genes = agent.propose_action(
            state, weights=RewardWeights(), ga_iterations=2
        )
        assert genes.shape == (gene_length(config),)
