"""Analytic cost model for Chameleon structures.

The construction agents need cheap estimates of (a) expected query cost and
(b) memory cost of a candidate structure — these are the two components of
the reward (Section IV-B2) and of DARE's Dynamic Reward Function. The model
here mirrors the complexity analysis of Section V-B: :func:`leaf_cost` and
:func:`split_step_cost` price one leaf (the EBH probe expectation) and one
inner-node step (a hop plus its pointer array) before any node exists,
and :func:`measured_structure_cost` prices a built subtree — depth plus
each leaf's measured probe cost, bytes per key — for the retrainer's
accept gate.
"""

from __future__ import annotations

import functools
import math
from .config import ChameleonConfig
from .node import LeafNode, Node

#: Normalisation divisors keeping reward components O(1).
QUERY_COST_SCALE = 8.0
MEMORY_COST_SCALE = 64.0

#: Probe-unit penalty per doubling of leaf capacity. A hash probe into a
#: huge slot array is O(1) comparisons but not O(1) nanoseconds — cache/TLB
#: misses grow with the working set — and without this term the optimiser
#: would happily build one giant leaf over uniform data.
CACHE_LOG_WEIGHT = 0.25


@functools.lru_cache(maxsize=1 << 16)
def cache_penalty(capacity: int) -> float:
    """Cache-miss proxy (in probe units) for a slot array of ``capacity``."""
    return CACHE_LOG_WEIGHT * math.log2(max(2, capacity))


def expected_probe_cost(n_keys: int, capacity: int) -> float:
    """Expected EBH probes for a successful lookup.

    Uses the standard linear-probing displacement estimate
    ``1 + load / (2 * (1 - load))``; a full node degenerates to a scan.
    """
    if n_keys <= 0 or capacity <= 0:
        return 1.0
    load = min(n_keys / capacity, 0.999)
    return 1.0 + load / (2.0 * (1.0 - load))


@functools.lru_cache(maxsize=1 << 16)
def leaf_cost(n_keys: int, config: ChameleonConfig) -> tuple[float, float]:
    """(query, memory) cost of turning ``n_keys`` into one EBH leaf.

    Query cost is the probe expectation; memory cost is modelled bytes per
    key at Theorem 1 capacity. Both are normalised by the module scales.
    """
    capacity = config.theorem1_capacity(n_keys)
    probe = expected_probe_cost(n_keys, capacity) + cache_penalty(capacity)
    query = probe / QUERY_COST_SCALE
    bytes_total = 16 * capacity + 48
    memory = bytes_total / max(1, n_keys) / MEMORY_COST_SCALE
    return query, memory


def split_step_cost(fanout: int, n_keys: int) -> tuple[float, float]:
    """(query, memory) cost of one inner-node split step.

    One extra hop per lookup plus the pointer array's bytes per key.
    """
    query = 1.0 / QUERY_COST_SCALE
    memory = (8 * fanout + 32) / max(1, n_keys) / MEMORY_COST_SCALE
    return query, memory


def measured_structure_cost(root: Node, config: ChameleonConfig) -> tuple[float, float]:
    """(query, memory) cost using each leaf's *measured* EBH offsets.

    Unlike the uniform-hashing estimate of :func:`expected_probe_cost`,
    this uses the leaves' actual error statistics — a drifted leaf whose
    hash no longer fits its keys shows its true probe cost here. Used by
    the retrainer to decide whether a rebuilt subtree is an improvement.
    """
    total_keys = 0
    query_weight = 0.0
    size = 0
    stack: list[tuple[Node, int]] = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        size += node.size_bytes()
        if isinstance(node, LeafNode):
            n = node.n_keys
            total_keys += n
            _, avg_offset = node.ebh.error_stats()
            probe = 1.0 + 2.0 * avg_offset + cache_penalty(node.ebh.capacity)
            query_weight += n * (depth + probe)
        else:
            for child in node.children:
                if child is not None:
                    stack.append((child, depth + 1))
    if total_keys == 0:
        return 1.0, 1.0
    query = query_weight / total_keys / QUERY_COST_SCALE
    memory = size / total_keys / MEMORY_COST_SCALE
    return query, memory
