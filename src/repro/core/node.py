"""Chameleon tree nodes.

Inner nodes partition their key interval into ``fanout`` equal sub-intervals
and route keys with the paper's Eq. 1 — an exact linear interpolation model,
so no secondary search is ever needed inside an inner node. Leaf nodes wrap
an :class:`~repro.core.ebh.ErrorBoundedHash`.
"""

from __future__ import annotations

from typing import Any, Iterator, Union

from ..baselines.counters import Counters
from .ebh import ErrorBoundedHash


class LeafNode:
    """A leaf: routing interval plus an EBH model.

    The *routing* interval is the slice of key space the parent assigns to
    this leaf (used by range queries and the retrainer). The EBH's own
    model interval is fitted to the stored keys instead — that is how the
    hash "flattens" a locally dense region: scaling by the keys' actual
    span spreads them evenly over the slots no matter how small a fraction
    of the routing interval they occupy.

    Attributes:
        ebh: the hash structure holding this interval's keys.
        route_low / route_high: the parent-assigned interval.
        update_count: inserts/deletes since the last retrain — consumed by
            the background retrainer's drift detection.
    """

    __slots__ = ("ebh", "route_low", "route_high", "update_count")

    def __init__(
        self,
        ebh: ErrorBoundedHash,
        route_low: float | None = None,
        route_high: float | None = None,
    ) -> None:
        self.ebh = ebh
        self.route_low = ebh.low_key if route_low is None else float(route_low)
        self.route_high = ebh.high_key if route_high is None else float(route_high)
        self.update_count = 0

    @property
    def low_key(self) -> float:
        return self.route_low

    @property
    def high_key(self) -> float:
        return self.route_high

    @property
    def n_keys(self) -> int:
        return self.ebh.n_keys

    def items(self) -> Iterator[tuple[float, Any]]:
        return self.ebh.items()

    def size_bytes(self) -> int:
        return self.ebh.size_bytes()

    def __repr__(self) -> str:
        return (
            f"LeafNode([{self.low_key:.4g}, {self.high_key:.4g}), "
            f"n={self.n_keys}, c={self.ebh.capacity}, cd={self.ebh.conflict_degree})"
        )


class InnerNode:
    """An inner node: equal-width interval partition with Eq. 1 routing.

    Args:
        low_key: interval lower bound lk (inclusive).
        high_key: interval upper bound uk (exclusive for routing).
        fanout: number of children f (>= 2 for a useful inner node).
        counters: shared structural-cost counters.
    """

    __slots__ = ("low_key", "high_key", "fanout", "children", "counters")

    def __init__(
        self,
        low_key: float,
        high_key: float,
        fanout: int,
        counters: Counters,
    ) -> None:
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        if high_key <= low_key:
            raise ValueError("high_key must exceed low_key for an inner node")
        self.low_key = float(low_key)
        self.high_key = float(high_key)
        self.fanout = int(fanout)
        self.children: list[Union["InnerNode", LeafNode, None]] = [None] * fanout
        self.counters = counters

    def route(self, key: float) -> int:
        """Eq. 1: the child rank for ``key``, clamped into [0, fanout)."""
        self.counters.model_evals += 1
        return self.raw_route(key)

    def raw_route(self, key: float) -> int:
        """Eq. 1 without counter traffic (certification paths)."""
        rank = int(self.fanout * (key - self.low_key) / (self.high_key - self.low_key))
        if rank < 0:
            return 0
        if rank >= self.fanout:
            return self.fanout - 1
        return rank

    def child_interval(self, rank: int) -> tuple[float, float]:
        """The key interval [lk_i, uk_i) of child ``rank``."""
        if not 0 <= rank < self.fanout:
            raise IndexError(f"child rank {rank} out of range 0..{self.fanout - 1}")
        width = (self.high_key - self.low_key) / self.fanout
        low = self.low_key + rank * width
        high = self.high_key if rank == self.fanout - 1 else low + width
        return low, high

    def size_bytes(self) -> int:
        """Modelled footprint: 8 bytes per child pointer + 32-byte header."""
        return 8 * self.fanout + 32

    def __repr__(self) -> str:
        return (
            f"InnerNode([{self.low_key:.4g}, {self.high_key:.4g}), "
            f"f={self.fanout})"
        )


Node = Union[InnerNode, LeafNode]


def walk_leaves(node: Node) -> Iterator[LeafNode]:
    """Depth-first iterator over all leaves beneath ``node``."""
    stack: list[Node] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, LeafNode):
            yield current
        else:
            stack.extend(c for c in current.children if c is not None)


def subtree_stats(node: Node) -> dict[str, float]:
    """Structural statistics of a subtree (Table V metrics).

    Returns a dict with: ``n_nodes``, ``n_keys``, ``max_height``,
    ``avg_height`` (key-weighted root-to-leaf level count, root = 1),
    ``max_error``, ``avg_error`` (key-weighted EBH offsets), and
    ``size_bytes``.
    """
    n_nodes = 0
    n_keys = 0
    max_height = 0
    height_weight = 0.0
    max_error = 0.0
    error_weight = 0.0
    size = 0
    stack: list[tuple[Node, int]] = [(node, 1)]
    while stack:
        current, depth = stack.pop()
        n_nodes += 1
        size += current.size_bytes()
        if isinstance(current, LeafNode):
            keys_here = current.n_keys
            n_keys += keys_here
            max_height = max(max_height, depth)
            height_weight += depth * keys_here
            node_max, node_avg = current.ebh.error_stats()
            max_error = max(max_error, float(node_max))
            error_weight += node_avg * keys_here
        else:
            for child in current.children:
                if child is not None:
                    stack.append((child, depth + 1))
    avg_height = height_weight / n_keys if n_keys else float(max_height)
    avg_error = error_weight / n_keys if n_keys else 0.0
    return {
        "n_nodes": n_nodes,
        "n_keys": n_keys,
        "max_height": max_height,
        "avg_height": avg_height,
        "max_error": max_error,
        "avg_error": avg_error,
        "size_bytes": size,
    }
