"""Counter-neutral structure sampling: per-leaf records and gauges.

Walks a built Chameleon tree and reports where the locally-skewed work
lands: per-leaf occupancy, Theorem 1 capacity, load factor, overflow-chain
length (the conflict degree ``cd`` that bounds every probe window), and
accumulated update counters. Reading is pure attribute access — no
:class:`~repro.baselines.counters.Counters` traffic, matching the RL013
counter-neutrality contract for diagnostics.

When a metrics registry is armed (or passed explicitly) the tree-wide
aggregates are published as gauges; the per-leaf records feed
:func:`repro.bench.visualize.leaf_heatmap`.
"""

from __future__ import annotations

from typing import Any

from . import metrics as metrics_mod


def sample_index(
    index: Any, registry: "metrics_mod.MetricsRegistry | None" = None
) -> list[dict[str, Any]]:
    """Per-leaf structure records for a Chameleon-shaped index.

    Args:
        index: anything exposing a ``_root`` tree of Inner/Leaf nodes
            (ducks like :class:`~repro.core.index.ChameleonIndex`); other
            indexes yield ``[]``.
        registry: metrics registry for the gauge aggregates; defaults to
            the armed :data:`repro.obs.metrics.ACTIVE` (no gauges when
            disarmed).

    Returns:
        One dict per leaf, in walk order: ``leaf`` ordinal, key interval,
        ``n_keys``, ``capacity``, ``load_factor``, ``overflow_chain`` (the
        conflict degree) and ``update_count``.
    """
    registry = registry if registry is not None else metrics_mod.ACTIVE
    root = getattr(index, "_root", None)
    if root is None:
        return []
    # Imported lazily: repro.core modules import repro.obs for their
    # instrumentation, so a module-level import here would cycle.
    from ..core.node import walk_leaves

    records: list[dict[str, Any]] = []
    for ordinal, leaf in enumerate(walk_leaves(root)):
        ebh = leaf.ebh
        records.append(
            {
                "leaf": ordinal,
                "low_key": float(ebh.low_key),
                "high_key": float(ebh.high_key),
                "n_keys": int(ebh.n_keys),
                "capacity": int(ebh.capacity),
                "load_factor": float(ebh.load_factor),
                "overflow_chain": int(ebh.conflict_degree),
                "update_count": int(leaf.update_count),
            }
        )
    if registry is not None and records:
        loads = [record["load_factor"] for record in records]
        registry.set_gauge("chameleon_leaf_count", float(len(records)))
        registry.set_gauge("chameleon_leaf_load_factor_avg", sum(loads) / len(loads))
        registry.set_gauge("chameleon_leaf_load_factor_max", max(loads))
        registry.set_gauge(
            "chameleon_leaf_overflow_chain_max",
            float(max(record["overflow_chain"] for record in records)),
        )
    return records
