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
from ..rl.dare import (
    DAREAgent, interpolated_fanout, interpolated_fanouts, split_genes,
)
from ..rl.tsmdp import TSMDPAgent
from .config import ChameleonConfig
from .costs import cache_penalty, leaf_cost
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
            continue  # a hole: the first insert into it makes the leaf
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
                    # Empty intervals stay None: ChameleonIndex makes a
                    # minimum leaf there on the first insert, so a huge root
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
    if sampled_leaf_probe_cost(probe_sample, config) <= 2.5:
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
            continue  # a hole: the first insert into it makes the leaf
        c_low, c_high = node.child_interval(rank)
        node.children[rank] = refine_with_tsmdp(
            child_keys, child_values, c_low, c_high, agent, config, counters,
            depth=depth + 1,
        )
    return node


def sampled_leaf_probe_cost(keys: np.ndarray, config: ChameleonConfig) -> float:
    """Expected EBH probes for these keys, from an actual Eq. 2 hash pass.

    Eq. 2's hash is a scaled linear map times alpha, *not* a uniform hash:
    locally dense keys can collide far above the uniform expectation, and
    that effect is exactly why partitioning skewed regions matters. This
    estimator hashes the (sample) keys into a Theorem-1-sized slot array and
    derives the expected probe count from the per-slot collision profile:
    a slot holding c keys forces probe chains of mean length ~c(c-1)/2.
    The result depends on the keys alone, so callers may memoise it per
    key segment.
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
    line 11) done combinatorially: the sample is partitioned through the
    decoded fanouts one tree level at a time, every node of a level in one
    numpy pass, and per-node costs are summed without materialising EBH
    arrays. Leaf probe costs come from :func:`sampled_leaf_probe_cost`, so
    local skew is priced in; the sample's relative clustering stands in for
    the full dataset's. :func:`analytic_fitness` keeps those per segment
    across its calls; one call here prices each segment afresh. Summation
    order aside, the result equals a node-at-a-time walk of the same tree
    (tests hold the two to 1e-12 relative).

    Args:
        sample_keys: sorted sample of the dataset.
        genes: DARE action vector.
        config: Chameleon configuration.
        total_keys: the full dataset's key count.
        query_sample: optional sorted sample of the *query* distribution.
            When given, the query-cost term weighs each node by its query
            mass instead of its key mass — the paper's Section IV-B2 note
            that "other factors such as the query distribution can be
            added to the reward function". Queries outside a node's
            interval count in its first or last child, as Eq. 1 clamps
            them; a query that ends in a keyless child (a hole) costs the
            hops down to it and no probe.

    Returns:
        Normalised (query_cost, memory_cost); lower is better.
    """
    return _genes_cost(sample_keys, genes, config, total_keys, query_sample, {})


def _genes_cost(
    sample_keys: np.ndarray,
    genes: np.ndarray,
    config: ChameleonConfig,
    total_keys: int,
    query_sample: np.ndarray | None,
    probe_memo: dict[tuple[int, int], float],
) -> tuple[float, float]:
    """:func:`estimate_genes_cost` with a caller-owned probe memo.

    ``probe_memo`` maps a leaf's sample segment ``(start, end)`` to its
    :func:`sampled_leaf_probe_cost`; it is valid for as long as
    ``sample_keys`` stays the same array.
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
    queries = sample_keys if query_sample is None else query_sample
    n_queries = max(1, len(queries))
    empty_leaf_memory = (
        (16 * config.min_leaf_capacity + 48) / max(1, total_keys) / 64.0
    )
    memory = 0.0
    # Query-weighted hops of queries that end in a keyless child.
    hole_hops = 0
    # One entry per node of the current level: its sample slice
    # [start, end), query slice [q_start, q_end) and interval [lo, hi).
    start = np.zeros(1, dtype=np.int64)
    end = np.full(1, n_sample, dtype=np.int64)
    q_start = np.zeros(1, dtype=np.int64)
    q_end = np.full(1, len(queries), dtype=np.int64)
    lo = np.full(1, low)
    hi = np.full(1, high)
    leaf_parts: list[tuple[np.ndarray, ...]] = []
    for level in range(config.h):
        if level == config.h - 1:
            fanout = np.ones(len(start), dtype=np.int64)
        elif level == 0:
            fanout = np.full(len(start), p0, dtype=np.int64)
        else:
            fanout = interpolated_fanouts(
                matrix, level, lo, hi, low, high, config
            )
        fanout[hi <= lo] = 1
        leaf = fanout <= 1
        leaf_parts.append(
            (start[leaf], end[leaf], q_end[leaf] - q_start[leaf],
             np.full(int(leaf.sum()), level + 1))
        )
        split = ~leaf
        if not split.any():
            break
        start, end, q_start, q_end = start[split], end[split], q_start[split], q_end[split]
        lo, hi, fanout = lo[split], hi[split], fanout[split]
        n_here = end - start
        # split_step_cost's pointer bytes per key, node by node.
        memory += float(np.sum(
            n_here / n_sample
            * ((8 * fanout + 32) / np.maximum(1, np.rint(n_here * scale)) / 64.0)
        ))
        # Eq. 1 rank of every key under its node; child segments are the
        # runs of equal (node, rank).
        owner = np.repeat(np.arange(len(start)), n_here)
        pos = np.arange(len(owner)) + np.repeat(start - (np.cumsum(n_here) - n_here), n_here)
        span = hi - lo
        key_fanout = fanout[owner]
        ranks = np.clip(
            (key_fanout * (sample_keys[pos] - lo[owner]) / span[owner]).astype(np.int64),
            0, key_fanout - 1,
        )
        new_run = np.empty(len(owner), dtype=bool)
        new_run[0] = True
        new_run[1:] = (owner[1:] != owner[:-1]) | (ranks[1:] != ranks[:-1])
        first = np.flatnonzero(new_run)
        parent = owner[first]
        rank = ranks[first]
        # Children with no sample key still cost a minimum-capacity leaf.
        empties = int(fanout.sum()) - len(first)
        memory += empties * empty_leaf_memory
        width = span / fanout
        c_lo = lo[parent] + rank * width[parent]
        last = rank == fanout[parent] - 1
        c_hi = np.where(last, hi[parent], c_lo + width[parent])
        # Clamped to the parent's query slice, one global searchsorted
        # equals a searchsorted on that slice. Eq. 1 clamps queries below
        # the node's interval into rank 0 and above it into the last rank.
        parent_q_start, parent_q_end = q_start[parent], q_end[parent]
        q_in = int((q_end - q_start).sum())
        q_start = np.where(
            rank == 0, parent_q_start,
            np.clip(np.searchsorted(queries, c_lo, side="left"),
                    parent_q_start, parent_q_end),
        )
        q_end = np.where(
            last, parent_q_end,
            np.clip(np.searchsorted(queries, c_hi, side="left"),
                    parent_q_start, parent_q_end),
        )
        # The rest of the level's queries end in keyless children: they
        # pay the hops down to the hole and no probe.
        hole_hops += (q_in - int((q_end - q_start).sum())) * (level + 1)
        start = pos[first]
        end = np.append(pos[first[1:] - 1] + 1, pos[-1] + 1)
        lo, hi = c_lo, c_hi

    start, end, n_q, depth = (np.concatenate(part) for part in zip(*leaf_parts))
    n_s = end - start
    n_full = np.rint(n_s * scale).astype(np.int64)
    distinct, which = np.unique(n_full, return_inverse=True)
    penalty = np.array([
        cache_penalty(config.theorem1_capacity(int(n))) for n in distinct.tolist()
    ])[which]
    leaf_memory = np.array([leaf_cost(int(n), config)[1] for n in distinct.tolist()])[which]
    # Tiny sampled leaves cannot exhibit probing cascades; only segments of
    # three or more keys take the Lindley pass, once per segment.
    displacement = np.zeros(len(n_s))
    multi = np.flatnonzero(n_s > 2)
    for i, s, e in zip(multi.tolist(), start[multi].tolist(), end[multi].tolist()):
        cost = probe_memo.get((s, e))
        if cost is None:
            cost = probe_memo[(s, e)] = sampled_leaf_probe_cost(sample_keys[s:e], config)
        displacement[i] = cost - 1.0
    # Displacement per key in a collision run scales with run length, i.e.
    # with the sample step: lift to full size.
    probe = 1.0 + displacement * scale + penalty
    query = float(np.sum(n_q / n_queries * (depth + probe) / 8.0))
    query += hole_hops / n_queries / 8.0
    memory += float(np.sum(n_s / n_sample * leaf_memory))
    return query, memory


def analytic_fitness(
    sample_keys: np.ndarray, config: ChameleonConfig, total_keys: int,
    w_query: float | None = None, w_memory: float | None = None,
    query_sample: np.ndarray | None = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """GA fitness from the analytic evaluator (reward = -weighted cost).

    ``query_sample`` switches the query-cost term to query-mass weighting
    (workload-aware construction; see :func:`estimate_genes_cost`). The
    closure owns one probe memo, so a leaf segment the GA meets again under
    other genes is priced once.
    """
    wq = config.w_query if w_query is None else w_query
    wm = config.w_memory if w_memory is None else w_memory
    probe_memo: dict[tuple[int, int], float] = {}

    def fitness(pool: np.ndarray) -> np.ndarray:
        rewards = np.empty(pool.shape[0])
        for i, genes in enumerate(pool):
            q, m = _genes_cost(
                sample_keys, genes, config, total_keys, query_sample, probe_memo
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
