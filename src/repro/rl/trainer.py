"""MARL training loop (paper Algorithm 2).

Trains the two agents together on a corpus of synthetic datasets:

* every episode samples a dataset, extracts its global state, draws random
  DRF weights, blends the GA-optimised action with a random action by the
  exploration probability ``er`` (Algorithm 2 line 10), *instantiates* the
  resulting structure to observe its true costs, trains the DARE critic on
  them (Eq. 5), and lets TSMDP explore fanout decisions on the episode's
  h-th-level partitions to fill its replay buffer (Eq. 3 targets);
* ``er`` decays after each round until the termination probability is hit.

Library-scale defaults decay faster than the paper's (epsilon = 1e-3 with a
slow schedule would mean thousands of episodes); pass ``paper_schedule=True``
for the full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.config import ChameleonConfig
from ..core.costs import leaf_cost, split_step_cost
from ..core.features import node_state
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .dare import DAREAgent, gene_bounds
from .exploration import DecaySchedule
from .rewards import RewardWeights
from .tsmdp import TSMDPAgent

DatasetFactory = Callable[[np.random.Generator], np.ndarray]


@dataclass
class TrainingReport:
    """Telemetry from one MARL training run.

    Attributes:
        episodes: total episodes executed.
        rounds: outer er-decay rounds.
        tsmdp_losses: per-episode mean TSMDP TD losses.
        dare_losses: per-episode DARE critic losses.
        final_er: exploration probability at termination.
    """

    episodes: int = 0
    rounds: int = 0
    tsmdp_losses: list[float] = field(default_factory=list)
    dare_losses: list[float] = field(default_factory=list)
    final_er: float = 1.0


def default_dataset_factory(
    sizes: Sequence[int] = (2000, 4000, 8000),
) -> DatasetFactory:
    """Random mixture over the synthetic generators (training corpus)."""
    from ..datasets import synthetic

    generators = (
        lambda n, s: synthetic.uden(n, seed=s, jitter=0.2),
        lambda n, s: synthetic.osmc_like(n, seed=s),
        lambda n, s: synthetic.logn(n, seed=s),
        lambda n, s: synthetic.face_like(n, seed=s),
        lambda n, s: synthetic.skew_mixture(n, 10.0 ** -np.random.default_rng(s).uniform(0.5, 4.5), seed=s),
    )

    def factory(rng: np.random.Generator) -> np.ndarray:
        n = int(rng.choice(sizes))
        gen = generators[int(rng.integers(0, len(generators)))]
        return gen(n, int(rng.integers(0, 2**31 - 1)))

    return factory


class MARLTrainer:
    """Runs Algorithm 2 over a dataset corpus.

    Args:
        config: Chameleon configuration (gamma, lr, epsilon, ...).
        dataset_factory: produces a training dataset per episode.
        er_decay: multiplicative decay of the exploration probability per
            round (paper trains until er <= 1e-3; the library default decay
            converges in a few dozen rounds).
        er_floor: termination probability epsilon.
        seed: RNG seed.
    """

    def __init__(
        self,
        config: ChameleonConfig | None = None,
        dataset_factory: DatasetFactory | None = None,
        er_decay: float = 0.7,
        er_floor: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.config = config or ChameleonConfig()
        self.dataset_factory = dataset_factory or default_dataset_factory()
        self.er = DecaySchedule(floor=er_floor, decay=er_decay, start=1.0)
        self._rng = np.random.default_rng(seed)
        self.tsmdp = TSMDPAgent(self.config, seed=seed + 10)
        self.dare = DAREAgent(self.config, seed=seed + 20)

    def train(
        self,
        episodes_per_round: int = 4,
        max_rounds: int = 50,
        tsmdp_steps_per_episode: int = 16,
    ) -> TrainingReport:
        """Run the loop until ``er`` reaches its floor (or ``max_rounds``).

        Returns:
            A :class:`TrainingReport`. The trained agents are available as
            :attr:`tsmdp` and :attr:`dare` (both flagged ``trained``).
        """
        report = TrainingReport()
        lower, upper = gene_bounds(self.config)
        with obs_trace.span("rl.train"):
            while not self.er.finished and report.rounds < max_rounds:
                with obs_trace.span("rl.round").put("round", report.rounds):
                    for _ in range(episodes_per_round):
                        self._episode(report, lower, upper, tsmdp_steps_per_episode)
                self.er.step()
                report.rounds += 1
        report.final_er = self.er.value
        self.tsmdp.trained = True
        self.dare.trained = True
        return report

    def _episode(
        self,
        report: TrainingReport,
        lower: np.ndarray,
        upper: np.ndarray,
        tsmdp_steps_per_episode: int,
    ) -> None:
        """One Algorithm 2 episode (lines 8-12) against a sampled dataset."""
        # Imported here, not at module level: repro.core.builder imports the
        # agent modules of this package, so a top-level import would cycle.
        from ..core.builder import analytic_fitness, estimate_genes_cost

        keys = self.dataset_factory(self._rng)
        report.episodes += 1
        weights = RewardWeights.random(self._rng)
        state = node_state(keys, self.config.b_d)

        # Algorithm 2 lines 8-10: blend optimised and random genes.
        fitness = analytic_fitness(
            keys, self.config, len(keys),
            w_query=weights.query, w_memory=weights.memory,
        )
        a_best = self.dare.propose_action(
            state, weights=weights, fitness_fn=fitness, ga_iterations=4,
            seed_individual=self.dare.heuristic_action(len(keys)),
        )
        log_lo, log_hi = np.log(lower), np.log(upper)
        a_random = np.exp(self._rng.uniform(log_lo, log_hi))
        er = self.er.value
        a_blend = (1.0 - er) * a_best + er * a_random

        # Line 11: instantiate and observe the true costs. Random
        # exploration genes can be arbitrarily bad (hundreds of
        # probes); clip the targets so the critic's regression is
        # not dominated by those tails — beyond the clip, "terrible"
        # is all the actor needs to know.
        costs = np.asarray(
            estimate_genes_cost(keys, a_blend, self.config, len(keys))
        )
        costs = np.minimum(costs, 20.0)
        dare_loss = self.dare.train_critic(state, a_blend, costs, steps=4)
        report.dare_losses.append(dare_loss)

        # Line 12: TSMDP exploration on the dataset's partitions.
        self._tsmdp_episode(keys, weights)
        losses = []
        for _ in range(tsmdp_steps_per_episode):
            loss = self.tsmdp.train_step()
            if loss is not None:
                losses.append(loss)
        if losses:
            report.tsmdp_losses.append(float(np.mean(losses)))
        self.tsmdp.end_episode()
        if obs_trace.ACTIVE is not None:
            obs_trace.ACTIVE.event(
                "rl.episode",
                {
                    "episode": report.episodes,
                    "n_keys": len(keys),
                    "dare_loss": dare_loss,
                    "er": er,
                },
            )
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.inc("chameleon_rl_episodes_total")

    # -- internals --------------------------------------------------------------

    def _tsmdp_episode(self, keys: np.ndarray, weights: RewardWeights) -> None:
        """Collect tree-structured transitions with Boltzmann exploration.

        The recursion mirrors construction: every node state gets an
        explored fanout; leaves receive the EBH cost as terminal reward,
        splits receive the hop + pointer cost and bootstrap through their
        children (Eq. 3 weights = child key shares).
        """
        from ..core.builder import partition_by_rank

        config = self.config

        def recurse(node_keys: np.ndarray, low: float, high: float, depth: int) -> None:
            n = len(node_keys)
            if n == 0:
                return
            state = node_state(node_keys, config.b_t, low=low, high=high)
            fanout, action_idx = self.tsmdp.choose_fanout(state, explore=True)
            terminal = fanout <= 1 or fanout >= n or depth >= 3 or high <= low
            if terminal:
                q, m = leaf_cost(n, config)
                reward = -(weights.query * q + weights.memory * m)
                self.tsmdp.remember(state, self.tsmdp.action_index_for(1), reward, [], [])
                return
            q, m = split_step_cost(fanout, n)
            reward = -(weights.query * q + weights.memory * m)
            parts = partition_by_rank(node_keys, list(range(n)), low, high, fanout)
            child_states = []
            child_weights = []
            children = []
            width = (high - low) / fanout
            for rank, (child_keys, _) in enumerate(parts):
                if len(child_keys) == 0:
                    continue
                c_low = low + rank * width
                c_high = high if rank == fanout - 1 else c_low + width
                child_states.append(
                    node_state(child_keys, config.b_t, low=c_low, high=c_high)
                )
                child_weights.append(len(child_keys) / n)
                children.append((child_keys, c_low, c_high))
            self.tsmdp.remember(state, action_idx, reward, child_states, child_weights)
            # Recurse into the largest few children only: full recursion on
            # big fanouts would dominate training time without adding state
            # diversity.
            children.sort(key=lambda c: -len(c[0]))
            for child_keys, c_low, c_high in children[:4]:
                recurse(child_keys, c_low, c_high, depth + 1)

        low, high = float(keys[0]), float(keys[-1])
        if high <= low:
            high = low + 1.0
        recurse(keys, low, high, 0)
