"""Tests for Chameleon construction: partitioning, builders, cost model."""

import numpy as np
import pytest

from repro.baselines.counters import Counters
from repro.core.builder import (
    ChameleonBuilder,
    analytic_fitness,
    build_greedy,
    estimate_genes_cost,
    make_leaf,
    partition_by_rank,
    refine_with_tsmdp,
    sampled_leaf_probe_cost,
)
from repro.core import builder as builder_module
from repro.core.config import ChameleonConfig
from repro.core.costs import cache_penalty, leaf_cost, split_step_cost
from repro.core.features import node_state
from repro.core.node import InnerNode, LeafNode, subtree_stats, walk_leaves
from repro.datasets import face_like, logn, osmc_like, uden
from repro.rl.dare import (
    DAREAgent,
    gene_bounds,
    gene_length,
    interpolated_fanout,
    split_genes,
)
from repro.rl.tsmdp import TSMDPAgent


@pytest.fixture
def config():
    return ChameleonConfig()


@pytest.fixture
def counters():
    return Counters()


class TestPartitionByRank:
    def test_partition_covers_all_keys(self):
        keys = np.sort(np.random.default_rng(0).uniform(0, 100, 200))
        parts = partition_by_rank(keys, list(keys), 0.0, 100.0, 7)
        assert sum(len(p[0]) for p in parts) == 200

    def test_partition_matches_inner_routing(self, counters):
        """A key must land in the child that Eq. 1 routes it to."""
        keys = np.sort(np.random.default_rng(1).uniform(0, 1000, 300))
        node = InnerNode(0.0, 1000.0, 13, counters)
        parts = partition_by_rank(keys, list(keys), 0.0, 1000.0, 13)
        for rank, (child_keys, _) in enumerate(parts):
            for k in child_keys:
                assert node.route(float(k)) == rank

    def test_empty_children_allowed(self):
        keys = np.array([1.0, 2.0])
        parts = partition_by_rank(keys, [1.0, 2.0], 0.0, 100.0, 10)
        assert len(parts) == 10
        assert sum(len(p[0]) for p in parts) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_by_rank(np.array([1.0]), [1.0], 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            partition_by_rank(np.array([1.0]), [1.0], 5.0, 5.0, 2)


class TestMakeLeaf:
    def test_leaf_capacity_follows_theorem1(self, config, counters):
        keys = np.linspace(0, 10, 100)
        leaf = make_leaf(keys, list(keys), 0.0, 10.0, config, counters)
        assert leaf.ebh.capacity == config.theorem1_capacity(100)

    def test_ebh_interval_fitted_to_keys(self, config, counters):
        """Dense keys in a huge routing interval get a fitted hash."""
        keys = np.linspace(500.0, 501.0, 64)
        leaf = make_leaf(keys, list(keys), 0.0, 1e9, config, counters)
        assert leaf.route_low == 0.0 and leaf.route_high == 1e9
        assert leaf.ebh.low_key == 500.0
        assert leaf.ebh.high_key < 502.0
        # Fitted hash spreads them: tiny conflict degree.
        assert leaf.ebh.conflict_degree <= 3

    def test_empty_leaf(self, config, counters):
        leaf = make_leaf(np.empty(0), [], 0.0, 1.0, config, counters)
        assert leaf.n_keys == 0
        assert leaf.ebh.capacity == config.min_leaf_capacity


class TestGreedyBuilder:
    def test_height_bounded_by_h(self, config, counters):
        keys = face_like(20_000, seed=0)
        root = build_greedy(keys, list(keys), float(keys[0]),
                            float(keys[-1]) + 1, config, counters)
        stats = subtree_stats(root)
        assert stats["max_height"] <= config.h
        assert stats["n_keys"] == 20_000

    def test_small_input_is_single_leaf(self, config, counters):
        keys = np.linspace(0, 1, 10)
        root = build_greedy(keys, list(keys), 0.0, 1.1, config, counters)
        assert isinstance(root, LeafNode)

    def test_greedy_overprovisions_vs_target(self, config, counters):
        """ChaB's conservative target yields more leaves than n/target."""
        keys = uden(10_000, seed=0)
        root = build_greedy(keys, list(keys), float(keys[0]),
                            float(keys[-1]) + 1, config, counters)
        leaves = sum(1 for _ in walk_leaves(root))
        assert leaves > 10_000 // config.leaf_target_keys


class TestProbeEstimator:
    def test_uniform_keys_near_one_probe(self, config):
        keys = np.linspace(0, 1e6, 1000)
        assert sampled_leaf_probe_cost(keys, config) < 1.5

    def test_tiny_inputs(self, config):
        assert sampled_leaf_probe_cost(np.array([1.0]), config) == 1.0
        assert sampled_leaf_probe_cost(np.empty(0), config) == 1.0

    def test_locally_mixed_keys_cost_more(self, config):
        """A leaf mixing a dense cluster into a wide span must cost more
        than a uniform leaf (pre-fit estimate drives the split decision)."""
        uniform = np.linspace(0, 1e6, 1000)
        mixed = np.sort(
            np.concatenate([np.linspace(0, 1e6, 500),
                            np.linspace(5e5, 5e5 + 50, 500)])
        )
        assert sampled_leaf_probe_cost(mixed, config) > \
            sampled_leaf_probe_cost(uniform, config)


class TestGenesCost:
    def test_returns_finite_costs(self, config):
        keys = face_like(3000, seed=1)
        genes = np.full(gene_length(config), 16.0)
        genes[0] = 64.0
        q, m = estimate_genes_cost(keys, genes, config, 3000)
        assert np.isfinite(q) and np.isfinite(m)
        assert q > 0 and m > 0

    def test_memory_grows_with_fanout(self, config):
        keys = uden(3000, seed=1)
        small = np.full(gene_length(config), 2.0)
        small[0] = 8.0
        large = np.full(gene_length(config), 2.0)
        large[0] = 65536.0
        _, m_small = estimate_genes_cost(keys, small, config, 3000)
        _, m_large = estimate_genes_cost(keys, large, config, 3000)
        assert m_large > m_small

    def test_analytic_fitness_prefers_reasonable_fanouts(self, config):
        keys = face_like(4000, seed=2)
        fitness = analytic_fitness(keys, config, 4000)
        sane = np.full(gene_length(config), 8.0)
        sane[0] = 64.0
        degenerate = np.ones(gene_length(config))  # single giant leaf
        rewards = fitness(np.stack([sane, degenerate]))
        assert rewards[0] > rewards[1]


def reference_genes_cost(
    sample_keys: np.ndarray,
    genes: np.ndarray,
    config: ChameleonConfig,
    total_keys: int,
    query_sample: np.ndarray | None = None,
) -> tuple[float, float]:
    """The GA fitness walked one node at a time: the reference that the
    level-synchronous :func:`estimate_genes_cost` must reproduce.

    Each node pops off a frontier, takes its fanout (p0 at the root, Eq. 4
    below it), partitions its keys by Eq. 1 rank and pushes one child per
    occupied rank with that child's slice of the query sample: rank 0
    from the start of the node's slice and the last rank to its end, as
    Eq. 1 clamps. Queries no occupied child takes end in a hole and pay
    the node's depth in hops.
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

    def add_leaf(keys: np.ndarray, queries: np.ndarray, depth: int) -> None:
        nonlocal query, memory
        n_s = len(keys)
        key_weight = n_s / n_sample
        query_weight = len(queries) / n_queries
        n_full = int(round(n_s * scale))
        if n_s <= 2:
            probe = 1.0 + cache_penalty(config.theorem1_capacity(n_full))
        else:
            probe = sampled_leaf_probe_cost(keys, config)
            probe = 1.0 + (probe - 1.0) * scale
            probe += cache_penalty(config.theorem1_capacity(n_full))
        _, m = leaf_cost(n_full, config)
        query += query_weight * (depth + probe) / 8.0
        memory += key_weight * m

    frontier = [(sample_keys, query_sample, low, high, 0, 1)]
    while frontier:
        keys, queries, lo, hi, level, depth = frontier.pop()
        n_here = len(keys)
        key_weight = n_here / n_sample
        if level >= config.h - 1 or hi <= lo:
            fanout = 1
        elif level == 0:
            fanout = p0
        else:
            fanout = interpolated_fanout(matrix, level, lo, hi, low, high, config)
        if fanout <= 1:
            add_leaf(keys, queries, depth)
            continue
        _, sm = split_step_cost(fanout, int(round(n_here * scale)))
        memory += key_weight * sm
        span = hi - lo
        ranks = np.clip((fanout * (keys - lo) / span).astype(np.int64), 0, fanout - 1)
        occupied_ranks = np.unique(ranks)
        boundaries = np.append(np.searchsorted(ranks, occupied_ranks), n_here)
        width = span / fanout
        routed = 0
        for j, rank in enumerate(occupied_ranks):
            s, e = boundaries[j], boundaries[j + 1]
            c_lo = lo + rank * width
            c_hi = hi if rank == fanout - 1 else c_lo + width
            q_lo = 0 if rank == 0 else np.searchsorted(queries, c_lo, side="left")
            q_hi = (
                len(queries)
                if rank == fanout - 1
                else np.searchsorted(queries, c_hi, side="left")
            )
            frontier.append(
                (keys[s:e], queries[q_lo:q_hi], c_lo, c_hi, level + 1, depth + 1)
            )
            routed += q_hi - q_lo
        # Queries in keyless children pay the hops down to them, no probe.
        query += (len(queries) - routed) / n_queries * depth / 8.0
        empties = fanout - occupied_ranks.size
        memory += empties * min_cap_bytes / max(1, total_keys) / 64.0
    return query, memory


ORACLE_DATASETS = {"FACE": face_like, "UDEN": uden, "LOGN": logn, "OSMC": osmc_like}
ORACLE_KEYS = 20_000


def fitness_sample(name: str) -> np.ndarray:
    """The sample ``ChameleonBuilder`` hands the GA for a 20k-key dataset."""
    keys = ORACLE_DATASETS[name](ORACLE_KEYS, seed=0)
    return keys[:: max(1, ORACLE_KEYS // 1500)]


def reference_fitness(sample: np.ndarray, config: ChameleonConfig, total_keys: int):
    def fitness(pool: np.ndarray) -> np.ndarray:
        rewards = np.empty(pool.shape[0])
        for i, genes in enumerate(pool):
            q, m = reference_genes_cost(sample, genes, config, total_keys)
            rewards[i] = -(config.w_query * q + config.w_memory * m)
        return rewards

    return fitness


class TestGenesCostOracle:
    """The level-synchronous evaluator equals the node-at-a-time walk.

    The two sum the same terms in different orders, so they agree to
    1e-12 relative rather than bit for bit. The samples are the GA's own
    (about 1,500 keys); on a whole 20k-key dataset the walk's sequential
    sum alone drifts by a few 1e-13.
    """

    @pytest.mark.parametrize("name", sorted(ORACLE_DATASETS))
    def test_matches_reference_on_random_genes(self, name, config):
        sample = fitness_sample(name)
        rng = np.random.default_rng(sorted(ORACLE_DATASETS).index(name))
        lower, upper = gene_bounds(config)
        low, high = float(sample[0]), float(sample[-1])
        span = high - low
        query_samples = [
            None,
            sample[len(sample) // 3: len(sample) // 2].copy(),  # hot subrange
            np.sort(rng.uniform(low - 0.3 * span, low + 0.6 * span, 800)),
        ]
        genes_list = [np.exp(rng.uniform(np.log(lower), np.log(upper))) for _ in range(6)]
        genes_list[0][0] = 1.0
        genes_list[1][0] = float(config.root_fanout_max)
        for query_sample in query_samples:
            for genes in genes_list:
                for total in (ORACLE_KEYS, 1_000_000):
                    want = reference_genes_cost(sample, genes, config, total, query_sample)
                    got = estimate_genes_cost(sample, genes, config, total, query_sample)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("keys", [
        np.full(50, 7.0), np.array([3.0]), np.array([1.0, 2.0]),
        np.array([1.0, 2.0, 4.0]),
    ], ids=["all-equal", "one", "two", "three"])
    def test_matches_reference_on_degenerate_inputs(self, keys, config):
        rng = np.random.default_rng(len(keys))
        lower, upper = gene_bounds(config)
        for p0 in (1.0, 2.0, 3.0, float(config.root_fanout_max), None):
            genes = np.exp(rng.uniform(np.log(lower), np.log(upper)))
            if p0 is not None:
                genes[0] = p0
            want = reference_genes_cost(keys, genes, config, 100)
            got = estimate_genes_cost(keys, genes, config, 100)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(ORACLE_DATASETS))
    def test_ga_picks_identical_genes(self, name, config):
        """Algorithm 1 run with either fitness returns the same genes."""
        sample = fitness_sample(name)
        state = node_state(sample, config.b_d)
        picked = []
        for fitness in (
            analytic_fitness(sample, config, ORACLE_KEYS),
            reference_fitness(sample, config, ORACLE_KEYS),
        ):
            agent = DAREAgent(config)
            picked.append(agent.propose_action(
                state, fitness_fn=fitness, ga_iterations=3,
                seed_individual=agent.heuristic_action(ORACLE_KEYS),
            ))
        np.testing.assert_array_equal(picked[0], picked[1])

    def test_queries_outside_the_keys_and_in_holes_are_charged(self, config):
        """Eq. 1 clamps a query below (above) every key into the rank-0
        (last) child, down to the leaf of the lowest (highest) key; a query
        that ends in a keyless child pays the hops down to it, no probe."""
        keys = np.concatenate([np.linspace(0.0, 1.0, 500), np.linspace(99.0, 100.0, 500)])
        rng = np.random.default_rng(5)
        genes = np.exp(rng.uniform(*np.log(gene_bounds(config))))
        for p0 in (64.0, 1000.0, float(config.root_fanout_max)):
            genes[0] = p0

            def cost(queries):
                want = reference_genes_cost(keys, genes, config, 1000, queries)
                got = estimate_genes_cost(keys, genes, config, 1000, queries)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                return got[0]

            below = cost(np.sort(rng.uniform(-50.0, -10.0, 300)))
            assert below == cost(np.full(300, keys[0])) > 1.0 / 8.0
            above = cost(np.sort(rng.uniform(110.0, 150.0, 300)))
            assert above == cost(np.full(300, keys[-1])) > 1.0 / 8.0
            # Root children are at most 100 / 64 wide: [40, 60] holds no key.
            assert cost(np.sort(rng.uniform(40.0, 60.0, 300))) == pytest.approx(1.0 / 8.0)

    def test_probe_cost_priced_once_per_segment(self, monkeypatch):
        """A ChaDA build runs the Lindley pass once per distinct sample
        segment of three or more keys, however many genes meet it."""
        segments = []

        def counting(keys: np.ndarray, config: ChameleonConfig) -> float:
            segments.append(keys.tobytes())
            return sampled_leaf_probe_cost(keys, config)

        monkeypatch.setattr(builder_module, "sampled_leaf_probe_cost", counting)
        keys = face_like(ORACLE_KEYS, seed=0)
        ChameleonBuilder(strategy="ChaDA").build(keys, list(keys), Counters())
        assert len(segments) > 0
        assert min(len(segment) for segment in segments) >= 3 * keys.itemsize
        assert len(segments) == len(set(segments))


class TestRefineWithTsmdp:
    def test_small_nodes_stay_leaves(self, config, counters):
        agent = TSMDPAgent(config)
        keys = np.linspace(0, 100, 50)
        node = refine_with_tsmdp(keys, list(keys), 0.0, 101.0, agent, config, counters)
        assert isinstance(node, LeafNode)

    def test_concentrated_keys_not_split_into_chains(self, config, counters):
        """Dense cluster in a wide interval: guards must prevent chains."""
        agent = TSMDPAgent(config)
        keys = np.linspace(500.0, 510.0, 2000)
        node = refine_with_tsmdp(keys, list(keys), 0.0, 1e9, agent, config, counters)
        stats = subtree_stats(node)
        assert stats["max_height"] <= 3
        assert stats["n_keys"] == 2000

    def test_mixed_density_gets_split(self, config, counters):
        agent = TSMDPAgent(config)
        keys = np.sort(np.concatenate([
            np.linspace(0, 1e6, 3000),
            np.linspace(2e5, 2e5 + 100, 3000),
        ]))
        keys = np.unique(keys)
        node = refine_with_tsmdp(keys, list(keys), float(keys[0]),
                                 float(keys[-1]) + 1, agent, config, counters)
        assert isinstance(node, InnerNode)


class TestChameleonBuilder:
    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            ChameleonBuilder(strategy="ChaX")

    @pytest.mark.parametrize("strategy", ["ChaB", "ChaDA", "ChaDATS"])
    def test_builds_cover_all_keys(self, strategy, counters):
        keys = face_like(4000, seed=3)
        builder = ChameleonBuilder(strategy=strategy, ga_iterations=2)
        result = builder.build(keys, list(keys), counters)
        assert result.strategy == strategy
        stats = subtree_stats(result.root)
        assert stats["n_keys"] == 4000
        if strategy == "ChaB":
            assert result.genes is None
        else:
            assert result.genes is not None

    def test_empty_build_rejected(self, counters):
        with pytest.raises(ValueError):
            ChameleonBuilder().build(np.empty(0), [], counters)

    def test_deterministic_given_config_seed(self, counters):
        keys = uden(2000, seed=1)
        a = ChameleonBuilder(strategy="ChaDA", ga_iterations=2).build(
            keys, list(keys), Counters()
        )
        b = ChameleonBuilder(strategy="ChaDA", ga_iterations=2).build(
            keys, list(keys), Counters()
        )
        np.testing.assert_array_equal(a.genes, b.genes)
