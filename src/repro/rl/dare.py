"""DARE — the Dynamic Reward RL agent (Section IV-C).

DARE makes a *single-step* decision from the global data distribution: it
outputs the root fanout p0 plus a fixed-size parameter matrix M of shape
(h-2, L) whose rows parameterise the fanouts of the non-root upper levels.
A node's fanout is read from its row by piecewise linear interpolation at
the node's interval midpoint (Eq. 4).

The agent is actor-critic shaped: a Genetic Algorithm (Algorithm 1) searches
the continuous gene space, guided by a DQN critic that maps (state, genes)
to a *vector* of application costs. The Dynamic Reward Function collapses
those costs under caller-supplied weights, so changing application
priorities needs no retraining (the paper's answer to Limitation 3).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.config import ChameleonConfig
from ..core.features import state_size
from .ga import GeneticOptimizer
from .network import MLP
from .rewards import COST_COMPONENTS, RewardWeights, dynamic_reward


def gene_length(config: ChameleonConfig) -> int:
    """Genes per individual: 1 (root fanout) + (h-2) * L (matrix)."""
    return 1 + (config.h - 2) * config.matrix_width


def gene_bounds(config: ChameleonConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene (lower, upper): root in [1, 2^20], others in [1, 2^10]."""
    n = gene_length(config)
    lower = np.ones(n)
    upper = np.full(n, float(config.inner_fanout_max))
    upper[0] = float(config.root_fanout_max)
    return lower, upper


def split_genes(genes: np.ndarray, config: ChameleonConfig) -> tuple[int, np.ndarray]:
    """Decode a gene vector into ``(p0, M)`` with M of shape (h-2, L)."""
    genes = np.asarray(genes, dtype=np.float64)
    if genes.shape != (gene_length(config),):
        raise ValueError(
            f"expected {gene_length(config)} genes, got {genes.shape}"
        )
    p0 = int(round(genes[0]))
    p0 = max(1, min(p0, config.root_fanout_max))
    matrix = genes[1:].reshape(config.h - 2, config.matrix_width)
    return p0, matrix


def interpolated_fanout(
    matrix: np.ndarray,
    level: int,
    low_key: float,
    high_key: float,
    min_key: float,
    max_key: float,
    config: ChameleonConfig,
) -> int:
    """Eq. 4: a node's fanout from its matrix row.

    Args:
        matrix: DARE parameter matrix, shape (h-2, L).
        level: the node's level, 1-based below the root (row ``level - 1``).
        low_key/high_key: the node's interval.
        min_key/max_key: the dataset's key extremes mk / Mk.
        config: for L and the fanout clamp.

    Returns:
        Fanout in [1, inner_fanout_max].
    """
    row = matrix[level - 1]
    width = config.matrix_width
    span = max_key - min_key
    if span <= 0:
        return 1
    x = ((low_key + high_key) / 2.0 - min_key) / span * (width - 1)
    x = min(max(x, 0.0), width - 1.0)
    l = int(x)
    if l >= width - 1:
        value = row[width - 1]
    else:
        value = (x - l) * row[l + 1] + (l + 1 - x) * row[l]
    fanout = int(round(value))
    return max(1, min(fanout, config.inner_fanout_max))


def interpolated_fanouts(
    matrix: np.ndarray,
    level: int,
    low_keys: np.ndarray,
    high_keys: np.ndarray,
    min_key: float,
    max_key: float,
    config: ChameleonConfig,
) -> np.ndarray:
    """:func:`interpolated_fanout` over arrays of node intervals.

    The same float expression element-wise, rounded half-to-even like
    ``round``, so each entry equals the scalar call bit for bit.
    """
    row = matrix[level - 1]
    width = config.matrix_width
    span = max_key - min_key
    if span <= 0:
        return np.ones(len(low_keys), dtype=np.int64)
    x = ((low_keys + high_keys) / 2.0 - min_key) / span * (width - 1)
    x = np.clip(x, 0.0, width - 1.0)
    l = x.astype(np.int64)
    inner = np.minimum(l, width - 2)  # the interpolating branch's index
    value = np.where(
        l >= width - 1,
        row[width - 1],
        (x - inner) * row[inner + 1] + (inner + 1 - x) * row[inner],
    )
    fanout = np.rint(value).astype(np.int64)
    return np.clip(fanout, 1, config.inner_fanout_max)


class DAREAgent:
    """Single-step agent: GA actor + DQN critic + DRF.

    Args:
        config: Chameleon configuration.
        seed: RNG seed override (defaults to ``config.seed``).
    """

    def __init__(self, config: ChameleonConfig, seed: int | None = None) -> None:
        self.config = config
        self._seed = config.seed if seed is None else seed
        self.state_dim = state_size(config.b_d)
        self.gene_dim = gene_length(config)
        # Critic: (state, genes) -> per-component costs.
        self.critic = MLP(
            [self.state_dim + self.gene_dim, 64, 64, len(COST_COMPONENTS)],
            seed=self._seed,
            learning_rate=1e-3,
        )
        lower, upper = gene_bounds(config)
        self._ga = GeneticOptimizer(
            lower, upper, population_size=16, log_scale=True, seed=self._seed + 1
        )
        self.trained = False

    # -- acting ---------------------------------------------------------------

    def propose_action(
        self,
        state: np.ndarray,
        weights: RewardWeights | None = None,
        fitness_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        ga_iterations: int = 20,
        seed_individual: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run Algorithm 1: GA search for the best gene vector.

        Args:
            state: global dataset features (b_D buckets + 2).
            weights: DRF weights; default 0.5/0.5.
            fitness_fn: optional override mapping a (pop, genes) matrix to
                fitness values — used with the analytic evaluator during
                critic bootstrapping. Defaults to the critic + DRF.
            ga_iterations: GA generation budget (Algorithm 1's K).
            seed_individual: optional warm-start genes.

        Returns:
            The winning gene vector.
        """
        w = weights or RewardWeights()
        if fitness_fn is None:
            state_vec = np.asarray(state, dtype=np.float64)

            def fitness_fn(pool: np.ndarray) -> np.ndarray:
                costs = self.predict_costs(state_vec, pool)
                return dynamic_reward(costs, w)

        return self._ga.optimize(
            fitness_fn,
            iterations=ga_iterations,
            seed_individual=seed_individual,
        )

    def heuristic_action(self, n_keys: int) -> np.ndarray:
        """Deterministic fallback genes: greedy even partitioning.

        Sized so the h-level nodes land near ``leaf_target_keys`` keys:
        with h upper levels, the root takes the larger share of the split.
        """
        target_leaves = max(1, n_keys // self.config.leaf_target_keys)
        inner_levels = self.config.h - 2
        # Spread the required product of fanouts across the levels.
        per_level = target_leaves ** (1.0 / (inner_levels + 1))
        p0 = int(min(self.config.root_fanout_max, max(2, round(per_level))))
        inner = int(min(self.config.inner_fanout_max, max(1, round(per_level))))
        genes = np.full(self.gene_dim, float(inner))
        genes[0] = float(p0)
        return genes

    # -- critic ------------------------------------------------------------------

    def predict_costs(self, state: np.ndarray, genes: np.ndarray) -> np.ndarray:
        """Critic cost predictions for one state and a batch of genes.

        Gene values are log-compressed before entering the network — they
        span [1, 2^20], which would otherwise swamp the state features.
        """
        genes = np.atleast_2d(np.asarray(genes, dtype=np.float64))
        states = np.repeat(
            np.asarray(state, dtype=np.float64)[None, :], genes.shape[0], axis=0
        )
        inputs = np.concatenate([states, np.log2(np.maximum(genes, 1.0)) / 20.0], axis=1)
        return self.critic.forward(inputs)

    def train_critic(
        self,
        state: np.ndarray,
        genes: np.ndarray,
        observed_costs: np.ndarray,
        steps: int = 1,
    ) -> float:
        """MAE regression of the critic toward instantiated costs (Eq. 5).

        Args:
            state: the dataset state the genes were applied to.
            genes: gene vector (or batch).
            observed_costs: cost components measured by instantiating the
                index (Algorithm 2 line 11).
            steps: gradient steps on this sample.

        Returns:
            Last step's loss.
        """
        genes = np.atleast_2d(np.asarray(genes, dtype=np.float64))
        costs = np.atleast_2d(np.asarray(observed_costs, dtype=np.float64))
        states = np.repeat(
            np.asarray(state, dtype=np.float64)[None, :], genes.shape[0], axis=0
        )
        inputs = np.concatenate([states, np.log2(np.maximum(genes, 1.0)) / 20.0], axis=1)
        loss = 0.0
        for _ in range(max(1, steps)):
            loss = self.critic.train_batch(inputs, costs, loss="mae")
        return loss
