"""Tests for the MARL trainer (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.config import ChameleonConfig
from repro.rl.trainer import MARLTrainer, default_dataset_factory


@pytest.fixture
def small_config():
    return ChameleonConfig(b_t=8, b_d=8, matrix_width=4)


class TestDatasetFactory:
    def test_produces_sorted_unique_keys(self):
        factory = default_dataset_factory(sizes=(500,))
        rng = np.random.default_rng(0)
        for _ in range(5):
            keys = factory(rng)
            assert len(keys) == 500
            assert (np.diff(keys) > 0).all()

    def test_varies_across_draws(self):
        factory = default_dataset_factory(sizes=(300, 600))
        rng = np.random.default_rng(1)
        sizes = {len(factory(rng)) for _ in range(10)}
        assert len(sizes) >= 2


class TestTraining:
    def test_short_run_completes_and_flags_agents(self, small_config):
        trainer = MARLTrainer(
            config=small_config,
            dataset_factory=default_dataset_factory(sizes=(400,)),
            er_decay=0.4,
            er_floor=0.3,
            seed=0,
        )
        report = trainer.train(episodes_per_round=1, max_rounds=3)
        assert report.episodes >= 1
        assert trainer.tsmdp.trained
        assert trainer.dare.trained
        assert report.final_er <= 1.0

    def test_losses_are_finite(self, small_config):
        trainer = MARLTrainer(
            config=small_config,
            dataset_factory=default_dataset_factory(sizes=(400,)),
            er_decay=0.3,
            er_floor=0.25,
            seed=1,
        )
        report = trainer.train(episodes_per_round=2, max_rounds=2)
        assert all(np.isfinite(x) for x in report.dare_losses)
        assert all(np.isfinite(x) for x in report.tsmdp_losses)
        assert report.dare_losses  # critic actually trained

    def test_er_decays_across_rounds(self, small_config):
        trainer = MARLTrainer(
            config=small_config,
            dataset_factory=default_dataset_factory(sizes=(300,)),
            er_decay=0.5,
            er_floor=0.05,
            seed=2,
        )
        report = trainer.train(episodes_per_round=1, max_rounds=2)
        assert report.rounds == 2
        assert trainer.er.value == pytest.approx(0.25)

    def test_trained_agents_build_working_index(self, small_config):
        """End-to-end: train briefly, then construct and query."""
        from repro.core.builder import ChameleonBuilder
        from repro.core.index import ChameleonIndex
        from repro.datasets import osmc_like

        trainer = MARLTrainer(
            config=small_config,
            dataset_factory=default_dataset_factory(sizes=(400,)),
            er_decay=0.3,
            er_floor=0.25,
            seed=3,
        )
        trainer.train(episodes_per_round=1, max_rounds=2)
        builder = ChameleonBuilder(
            small_config,
            strategy="ChaDATS",
            dare_agent=trainer.dare,
            tsmdp_agent=trainer.tsmdp,
            ga_iterations=2,
        )
        index = ChameleonIndex(config=small_config, builder=builder)
        keys = osmc_like(3000, seed=5)
        index.bulk_load(keys)
        for k in keys[::17]:
            assert index.lookup(float(k)) == k


def test_terminal_reward_is_the_leaf_cost(small_config, monkeypatch):
    """A terminal TSMDP transition is rewarded ``-(w_q·q + w_m·m)`` for
    ``leaf_cost(n)``, whose query term already carries the cache penalty."""
    from repro.core.costs import leaf_cost
    from repro.rl import trainer as trainer_mod
    from repro.rl.rewards import RewardWeights

    trainer = MARLTrainer(
        config=small_config,
        dataset_factory=default_dataset_factory(sizes=(400,)),
        seed=4,
    )
    sizes = []

    def spy_cost(n, config):
        sizes.append(n)
        return leaf_cost(n, config)

    terminal = []
    remember = trainer.tsmdp.remember

    def spy_remember(state, action_index, reward, child_states, child_weights):
        if not child_states:
            terminal.append((sizes[-1], reward))
        remember(state, action_index, reward, child_states, child_weights)

    monkeypatch.setattr(trainer_mod, "leaf_cost", spy_cost)
    monkeypatch.setattr(trainer.tsmdp, "remember", spy_remember)
    rng = np.random.default_rng(0)
    weights = RewardWeights(query=0.7, memory=0.3)
    for _ in range(4):
        trainer._tsmdp_episode(trainer.dataset_factory(rng), weights)
    assert len(terminal) >= 4
    for n, reward in terminal:
        q, m = leaf_cost(n, small_config)
        assert reward == -(weights.query * q + weights.memory * m)
