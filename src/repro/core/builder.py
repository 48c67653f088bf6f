"""Chameleon index construction (Section IV).

Three build strategies mirror the paper's ablation variants (Table V):

* **ChaB** — greedy top-down partitioning with EBH leaves; no RL.
* **ChaDA** — DARE decides the upper h-1 levels (root fanout + parameter
  matrix, decoded per Eq. 4); h-th-level nodes become leaves.
* **ChaDATS** — ChaDA plus TSMDP refinement of the h-th-level subtrees.

All strategies share the same partitioning primitive, which groups keys by
the inner-node routing model (Eq. 1) so construction and query routing can
never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..baselines.counters import Counters
from ..rl.dare import DAREAgent, interpolated_fanout, split_genes
from ..rl.tsmdp import TSMDPAgent
from .config import ChameleonConfig
from .costs import cache_penalty, leaf_cost, split_step_cost
from .ebh import ErrorBoundedHash
from .features import node_state
from .node import InnerNode, LeafNode, Node

#: Safety bound on TSMDP refinement depth below the h-th level. The paper's
#: Table V shows ChaDATS adding at most one level over ChaDA at 200M keys;
#: two extra levels is the structural ceiling we allow any policy.
MAX_REFINE_DEPTH = 2


@dataclass
class BuildResult:
    """A constructed tree plus provenance.

    Attributes:
        root: the tree root.
        strategy: "ChaB", "ChaDA", or "ChaDATS".
        genes: the DARE gene vector used (None for ChaB).
    """

    root: Node
    strategy: str
    genes: np.ndarray | None = None


def partition_by_rank(
    keys: np.ndarray,
    values: list[Any],
    low: float,
    high: float,
    fanout: int,
) -> list[tuple[np.ndarray, list[Any]]]:
    """Group sorted keys into ``fanout`` children using Eq. 1 ranks.

    Returns one ``(child_keys, child_values)`` pair per child rank; the
    grouping is the exact routing model, so queries land where construction
    put the keys.
    """
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    span = high - low
    if span <= 0:
        raise ValueError("high must exceed low")
    ranks = np.clip(
        (fanout * (keys - low) / span).astype(np.int64), 0, fanout - 1
    )
    # keys are sorted, so ranks are non-decreasing: find group boundaries.
    boundaries = np.searchsorted(ranks, np.arange(fanout + 1))
    out = []
    for i in range(fanout):
        lo_i, hi_i = boundaries[i], boundaries[i + 1]
        out.append((keys[lo_i:hi_i], values[lo_i:hi_i]))
    return out


def make_leaf(
    keys: np.ndarray,
    values: Sequence[Any],
    low: float,
    high: float,
    config: ChameleonConfig,
    counters: Counters,
) -> LeafNode:
    """Build one EBH leaf for the routing interval [low, high).

    The EBH model interval is fitted to the keys' own span (Section IV-A:
    the hash flattens dense data by scaling to what is actually there),
    while the routing interval is kept on the LeafNode for range queries
    and the retrainer.
    """
    n = len(keys)
    capacity = config.theorem1_capacity(n)
    if n >= 2 and float(keys[-1]) > float(keys[0]):
        fit_low = float(keys[0])
        fit_high = float(keys[-1]) + (float(keys[-1]) - float(keys[0])) / n
    else:
        fit_low, fit_high = low, high
    ebh = ErrorBoundedHash(
        fit_low, fit_high, capacity, alpha=config.alpha, counters=counters
    )
    ebh.place(keys, values)
    return LeafNode(ebh, route_low=low, route_high=high)


def build_greedy(
    keys: np.ndarray,
    values: list[Any],
    low: float,
    high: float,
    config: ChameleonConfig,
    counters: Counters,
    is_root: bool = True,
    levels_left: int | None = None,
    target_keys: int | None = None,
) -> Node:
    """ChaB: greedy top-down equal-interval splitting with bounded height.

    The greedy variant splits toward a fixed per-leaf target but never
    deeper than ``config.h`` levels — skew that equal-interval partitioning
    cannot spread out is absorbed by the EBH leaves' adaptive Theorem 1
    capacity, which is exactly the paper's point about ChaB (Table V shows
    its MaxHeight pinned at 3 while ALEX/DILI grow with skew). Without a
    cost signal, greedy picks a conservative (small) target and
    over-provisions nodes relative to DARE — the paper's ChaB has ~30x the
    node count of ChaDA.

    Args:
        target_keys: per-leaf key target; defaults to a conservative
            quarter of ``config.leaf_target_keys`` at the root call.
    """
    n = len(keys)
    if levels_left is None:
        levels_left = config.h
    if target_keys is None:
        target_keys = max(8, config.leaf_target_keys // 4) if is_root else config.leaf_target_keys
    if n <= 2 * target_keys or high <= low or levels_left <= 1:
        return make_leaf(keys, values, low, high, config, counters)
    fanout_cap = config.root_fanout_max if is_root else config.inner_fanout_max
    # Aim to finish within the remaining levels: take the per-level root of
    # the required leaf count, so each level shares the splitting evenly.
    target_leaves = max(2, -(-n // target_keys))
    per_level = max(2, round(target_leaves ** (1.0 / (levels_left - 1))))
    fanout = min(fanout_cap, per_level)
    node = InnerNode(low, high, fanout, counters)
    for rank, (child_keys, child_values) in enumerate(
        partition_by_rank(keys, values, low, high, fanout)
    ):
        if len(child_keys) == 0:
            continue  # lazily materialised on first touch
        c_low, c_high = node.child_interval(rank)
        node.children[rank] = build_greedy(
            child_keys, child_values, c_low, c_high, config, counters,
            is_root=False, levels_left=levels_left - 1, target_keys=target_keys,
        )
    return node


def build_from_genes(
    keys: np.ndarray,
    values: list[Any],
    low: float,
    high: float,
    genes: np.ndarray,
    config: ChameleonConfig,
    counters: Counters,
    terminal: Callable[[np.ndarray, list[Any], float, float], Node],
) -> Node:
    """Build the DARE-decided upper h-1 levels, delegating level-h nodes.

    Args:
        keys/values: sorted data.
        low/high: root interval (mk, Mk-inclusive span).
        genes: DARE action vector (p0 + matrix).
        config: Chameleon configuration.
        counters: shared counters.
        terminal: called for every h-th-level node to produce a leaf
            (ChaDA) or a TSMDP-refined subtree (ChaDATS).
    """
    p0, matrix = split_genes(genes, config)
    min_key, max_key = low, high
    if p0 <= 1:
        return terminal(keys, values, low, high)
    root = InnerNode(low, high, p0, counters)
    frontier = [(root, keys, values)]
    for level in range(1, config.h):
        next_frontier = []
        last_level = level == config.h - 1
        for node, node_keys, node_values in frontier:
            parts = partition_by_rank(
                node_keys, node_values, node.low_key, node.high_key, node.fanout
            )
            for rank, (child_keys, child_values) in enumerate(parts):
                if len(child_keys) == 0:
                    # Empty intervals stay None: ChameleonIndex materialises
                    # a minimum leaf lazily on first touch, so a huge root
                    # fanout does not eagerly allocate millions of leaves.
                    continue
                c_low, c_high = node.child_interval(rank)
                if last_level:
                    node.children[rank] = terminal(
                        child_keys, child_values, c_low, c_high
                    )
                    continue
                fanout = interpolated_fanout(
                    matrix, level, c_low, c_high, min_key, max_key, config
                )
                if fanout <= 1:
                    node.children[rank] = terminal(
                        child_keys, child_values, c_low, c_high
                    )
                else:
                    child = InnerNode(c_low, c_high, fanout, counters)
                    node.children[rank] = child
                    next_frontier.append((child, child_keys, child_values))
        frontier = next_frontier
        if not frontier:
            break
    return root


def refine_with_tsmdp(
    keys: np.ndarray,
    values: list[Any],
    low: float,
    high: float,
    agent: TSMDPAgent,
    config: ChameleonConfig,
    counters: Counters,
    depth: int = 0,
) -> Node:
    """TSMDP refinement of an h-th-level node (recursive fanout decisions)."""
    n = len(keys)
    if depth >= MAX_REFINE_DEPTH or n == 0 or high <= low:
        return make_leaf(keys, values, low, high, config, counters)
    # Probe-cost guard: when the fitted EBH already hashes these keys with
    # near-constant probes, splitting only adds tree hops (Section IV-A —
    # the hash, not the tree, is the tool against density). Sample larger
    # nodes to keep the check cheap.
    probe_sample = keys if n <= 2048 else keys[:: max(1, n // 2048)]
    if sampled_leaf_probe_cost(probe_sample, low, high, config) <= 2.5:
        return make_leaf(keys, values, low, high, config, counters)
    state = node_state(keys, config.b_t, low=low, high=high)
    fanout, _ = agent.choose_fanout(state)
    if fanout <= 1 or fanout >= n:
        return make_leaf(keys, values, low, high, config, counters)
    parts = partition_by_rank(keys, values, low, high, fanout)
    # Degenerate-split guard: when nearly all keys fall into one child,
    # equal-interval splitting would only add depth without spreading the
    # data — the EBH's adaptive capacity absorbs such density better
    # (Section IV-A). Any policy output is subject to this structural check.
    largest = max(len(part_keys) for part_keys, _ in parts)
    if largest > 0.9 * n:
        return make_leaf(keys, values, low, high, config, counters)
    node = InnerNode(low, high, fanout, counters)
    for rank, (child_keys, child_values) in enumerate(parts):
        if len(child_keys) == 0:
            continue  # lazily materialised on first touch
        c_low, c_high = node.child_interval(rank)
        node.children[rank] = refine_with_tsmdp(
            child_keys, child_values, c_low, c_high, agent, config, counters,
            depth=depth + 1,
        )
    return node


def sampled_leaf_probe_cost(
    keys: np.ndarray, low: float, high: float, config: ChameleonConfig
) -> float:
    """Expected EBH probes for these keys, from an actual Eq. 2 hash pass.

    Eq. 2's hash is a scaled linear map times alpha, *not* a uniform hash:
    locally dense keys can collide far above the uniform expectation, and
    that effect is exactly why partitioning skewed regions matters. This
    estimator hashes the (sample) keys into a Theorem-1-sized slot array and
    derives the expected probe count from the per-slot collision profile:
    a slot holding c keys forces probe chains of mean length ~c(c-1)/2.
    """
    n = len(keys)
    if n <= 1:
        return 1.0
    capacity = config.theorem1_capacity(n)
    # The built EBH fits its model interval to the keys' own span (see
    # make_leaf), so the estimate hashes against the fitted interval too.
    low = float(keys[0])
    high = float(keys[-1]) + (float(keys[-1]) - float(keys[0])) / n
    span = high - low
    if span <= 0:
        return float(n)  # all keys in one slot: linear scan
    scaled = capacity * (keys - low) / span
    slots = np.floor(config.alpha * scaled).astype(np.int64) % capacity
    counts = np.bincount(slots, minlength=capacity)
    # Total probing displacement via Lindley's recurrence (the waiting-time
    # view of linear probing): W_{i+1} = max(0, W_i + arrivals_i - 1).
    # Run two laps around the ring so wraparound chains are captured.
    arrivals = np.tile(counts, 2) - 1.0
    prefix = np.cumsum(arrivals)
    floor = np.minimum.accumulate(np.minimum(prefix, 0.0))
    waiting = prefix - floor
    total_displacement = float(waiting[capacity:].sum())
    return 1.0 + total_displacement / n


def estimate_genes_cost(
    sample_keys: np.ndarray,
    genes: np.ndarray,
    config: ChameleonConfig,
    total_keys: int,
    query_sample: np.ndarray | None = None,
) -> tuple[float, float]:
    """Analytic (query, memory) cost of a gene vector on a key sample.

    This is the "instantiate Chameleon-Index" evaluation (Algorithm 2
    line 11) done combinatorially: keys are partitioned through the decoded
    fanouts and per-node costs are aggregated without materialising EBH
    arrays, which keeps GA fitness evaluation cheap. Leaf probe costs come
    from :func:`sampled_leaf_probe_cost`, so local skew is priced in; the
    sample's relative clustering stands in for the full dataset's.

    Args:
        sample_keys: sorted sample of the dataset.
        genes: DARE action vector.
        config: Chameleon configuration.
        total_keys: the full dataset's key count.
        query_sample: optional sorted sample of the *query* distribution.
            When given, the query-cost term weighs each node by its query
            mass instead of its key mass — the paper's Section IV-B2 note
            that "other factors such as the query distribution can be
            added to the reward function".

    Returns:
        Normalised (query_cost, memory_cost); lower is better.
    """
    p0, matrix = split_genes(genes, config)
    n_sample = len(sample_keys)
    if n_sample == 0:
        return 1.0, 1.0
    scale = total_keys / n_sample
    low, high = float(sample_keys[0]), float(sample_keys[-1])
    if high <= low:
        q, m = leaf_cost(total_keys, config)
        return q + 1.0 / 8.0, m
    if query_sample is None:
        query_sample = sample_keys
    n_queries = max(1, len(query_sample))
    query = 0.0
    memory = 0.0
    min_cap_bytes = 16 * config.min_leaf_capacity + 48

    def add_leaf(
        keys: np.ndarray, queries: np.ndarray, lo: float, hi: float, depth: int
    ) -> None:
        nonlocal query, memory
        n_s = len(keys)
        key_weight = n_s / n_sample
        query_weight = len(queries) / n_queries
        n_full = int(round(n_s * scale))
        if n_s <= 2:
            # Tiny sampled leaves cannot exhibit probing cascades; skip the
            # Lindley pass (this is the GA hot path — most children of a
            # large fanout hold one or two sample keys).
            probe = 1.0 + cache_penalty(config.theorem1_capacity(n_full))
        else:
            probe = sampled_leaf_probe_cost(keys, lo, hi, config)
            # Displacement per key in a collision run scales with run
            # length, i.e. with the sample step: lift to full size.
            probe = 1.0 + (probe - 1.0) * scale
            probe += cache_penalty(config.theorem1_capacity(n_full))
        _, m = leaf_cost(n_full, config)
        query += query_weight * (depth + probe) / 8.0
        memory += key_weight * m

    # frontier: nodes still splitting.
    frontier = [(sample_keys, query_sample, low, high, 0, 1)]
    while frontier:
        keys, queries, lo, hi, level, depth = frontier.pop()
        n_here = len(keys)
        key_weight = n_here / n_sample
        terminal_level = level >= config.h - 1
        if terminal_level or hi <= lo:
            fanout = 1
        elif level == 0:
            fanout = p0
        else:
            fanout = interpolated_fanout(matrix, level, lo, hi, low, high, config)
        if fanout <= 1:
            add_leaf(keys, queries, lo, hi, depth)
            continue
        _, sm = split_step_cost(fanout, int(round(n_here * scale)))
        memory += key_weight * sm
        span = hi - lo
        ranks = np.clip((fanout * (keys - lo) / span).astype(np.int64), 0, fanout - 1)
        # Iterate non-empty children only (fanout can be 2^20).
        occupied_ranks = np.unique(ranks)
        boundaries = np.searchsorted(ranks, occupied_ranks)
        boundaries = np.append(boundaries, n_here)
        width = span / fanout
        for j, rank in enumerate(occupied_ranks):
            s, e = boundaries[j], boundaries[j + 1]
            c_lo = lo + rank * width
            c_hi = hi if rank == fanout - 1 else c_lo + width
            q_lo = np.searchsorted(queries, c_lo, side="left")
            q_hi = (
                len(queries)
                if rank == fanout - 1
                else np.searchsorted(queries, c_hi, side="left")
            )
            frontier.append(
                (keys[s:e], queries[q_lo:q_hi], c_lo, c_hi, level + 1, depth + 1)
            )
        # Empty children still cost a minimum-capacity leaf each.
        empties = fanout - occupied_ranks.size
        memory += empties * min_cap_bytes / max(1, total_keys) / 64.0
    return query, memory


def analytic_fitness(
    sample_keys: np.ndarray, config: ChameleonConfig, total_keys: int,
    w_query: float | None = None, w_memory: float | None = None,
    query_sample: np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """GA fitness from the analytic evaluator (reward = -weighted cost).

    ``query_sample`` switches the query-cost term to query-mass weighting
    (workload-aware construction; see :func:`estimate_genes_cost`).
    """
    wq = config.w_query if w_query is None else w_query
    wm = config.w_memory if w_memory is None else w_memory

    def fitness(pool: np.ndarray) -> np.ndarray:
        rewards = np.empty(pool.shape[0])
        for i, genes in enumerate(pool):
            q, m = estimate_genes_cost(
                sample_keys, genes, config, total_keys,
                query_sample=query_sample,
            )
            rewards[i] = -(wq * q + wm * m)
        return rewards

    return fitness


class ChameleonBuilder:
    """Facade choosing among the three construction strategies.

    Args:
        config: Chameleon configuration.
        strategy: "ChaB", "ChaDA", or "ChaDATS".
        dare_agent: optional trained DARE agent (created lazily otherwise).
        tsmdp_agent: optional trained TSMDP agent (created lazily otherwise).
        fitness_sample: sample size for the analytic GA fitness.
        ga_iterations: GA generations per construction.
    """

    STRATEGIES = ("ChaB", "ChaDA", "ChaDATS")

    def __init__(
        self,
        config: ChameleonConfig | None = None,
        strategy: str = "ChaDATS",
        dare_agent: DAREAgent | None = None,
        tsmdp_agent: TSMDPAgent | None = None,
        fitness_sample: int = 1500,
        ga_iterations: int = 6,
        query_sample: np.ndarray | None = None,
    ) -> None:
        if strategy not in self.STRATEGIES:
            raise ValueError(f"strategy must be one of {self.STRATEGIES}")
        self.config = config or ChameleonConfig()
        self.strategy = strategy
        self.dare_agent = dare_agent
        self.tsmdp_agent = tsmdp_agent
        self.fitness_sample = int(fitness_sample)
        self.ga_iterations = int(ga_iterations)
        #: Optional sorted sample of the expected query-key distribution;
        #: construction then optimises query cost under that workload
        #: instead of assuming queries mirror the data (paper IV-B2 note).
        self.query_sample = (
            None
            if query_sample is None
            else np.sort(np.asarray(query_sample, dtype=np.float64))
        )

    def build(
        self,
        keys: np.ndarray,
        values: list[Any],
        counters: Counters,
    ) -> BuildResult:
        """Construct a tree over sorted keys/values.

        Returns:
            The build result; ``root`` may be a single leaf for tiny inputs.
        """
        keys = np.asarray(keys, dtype=np.float64)
        n = len(keys)
        if n == 0:
            raise ValueError("cannot build over an empty dataset")
        low = float(keys[0])
        high = float(keys[-1])
        if high <= low:
            high = low + 1.0
        if self.strategy == "ChaB":
            root = build_greedy(keys, values, low, high, self.config, counters)
            return BuildResult(root, "ChaB")

        genes = self._choose_genes(keys, n)
        if self.strategy == "ChaDA":
            def terminal(k: np.ndarray, v: list, lo: float, hi: float) -> Node:
                return make_leaf(k, v, lo, hi, self.config, counters)
        else:
            agent = self._ensure_tsmdp()

            def terminal(k: np.ndarray, v: list, lo: float, hi: float) -> Node:
                return refine_with_tsmdp(
                    k, v, lo, hi, agent, self.config, counters
                )

        root = build_from_genes(
            keys, values, low, high, genes, self.config, counters, terminal
        )
        return BuildResult(root, self.strategy, genes=genes)

    # -- internals ----------------------------------------------------------------

    def _ensure_dare(self) -> DAREAgent:
        if self.dare_agent is None:
            self.dare_agent = DAREAgent(self.config)
        return self.dare_agent

    def _ensure_tsmdp(self) -> TSMDPAgent:
        if self.tsmdp_agent is None:
            self.tsmdp_agent = TSMDPAgent(self.config)
        return self.tsmdp_agent

    def _choose_genes(self, keys: np.ndarray, n: int) -> np.ndarray:
        """DARE action: critic-guided GA when trained, analytic GA else."""
        agent = self._ensure_dare()
        state = node_state(keys, self.config.b_d)
        warm_start = agent.heuristic_action(n)
        if agent.trained:
            return agent.propose_action(
                state,
                ga_iterations=self.ga_iterations,
                seed_individual=warm_start,
            )
        step = max(1, n // self.fitness_sample)
        sample = keys[::step]
        query_sample = self.query_sample
        if query_sample is not None and len(query_sample) > self.fitness_sample:
            q_step = len(query_sample) // self.fitness_sample
            query_sample = query_sample[::q_step]
        fitness = analytic_fitness(
            sample, self.config, n, query_sample=query_sample
        )
        return agent.propose_action(
            state,
            fitness_fn=fitness,
            ga_iterations=self.ga_iterations,
            seed_individual=warm_start,
        )
