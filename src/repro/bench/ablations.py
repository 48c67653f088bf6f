"""Ablation experiments beyond the paper (DESIGN.md section 3).

These probe the design choices Chameleon's construction depends on:
Theorem 1's tau, the hash factor alpha, the DARE fitness source, and the
interval-lock protocol versus coarser alternatives.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager
from typing import Any

import numpy as np

from ..baselines.counters import Counters
from ..core.builder import ChameleonBuilder
from ..core.config import ChameleonConfig
from ..core.index import ChameleonIndex
from ..core.interval_lock import IntervalIds, IntervalLockManager, QueryHold
from ..datasets import load as load_dataset
from ..workloads.operations import OpKind, Operation, run_workload
from ..workloads.readonly import readonly_workload
from .harness import BenchScale, build_index, measure
from .reporting import print_table


def run_ablation_tau(
    scale: BenchScale | None = None,
    taus: tuple[float, ...] = (0.15, 0.30, 0.45, 0.60, 0.75),
    dataset: str = "FACE",
) -> list[dict[str, Any]]:
    """Theorem 1's tau: capacity (memory) vs conflict rate (latency)."""
    scale = scale or BenchScale()
    keys = load_dataset(dataset, scale.base_keys // 2, seed=scale.seed)
    ops = readonly_workload(keys, scale.n_queries // 2, seed=scale.seed)
    rows = []
    for tau in taus:
        config = ChameleonConfig(tau=tau)
        index = ChameleonIndex(config=config, strategy="ChaB")
        index.bulk_load(keys)
        m = measure(index, ops)
        max_e, avg_e = index.error_stats()
        rows.append(
            {
                "tau": tau,
                "capacity_bound": config.theorem1_capacity(1000),
                "lookup_ns": m.wall_ns_per_op,
                "probes_per_op": m.result.counter_delta.get("slot_probes", 0)
                / max(1, m.result.total_ops),
                "max_error": max_e,
                "avg_error": avg_e,
                "size_mb": index.size_bytes() / 2**20,
            }
        )
    print(f"Ablation — Theorem 1 tau sweep ({dataset})")
    print_table(
        ["tau", "cap(n=1000)", "lookup ns", "probes/op", "maxE", "avgE", "size MB"],
        [list(r.values()) for r in rows],
    )
    return rows


def run_ablation_alpha(
    scale: BenchScale | None = None,
    alphas: tuple[int, ...] = (1, 3, 31, 131, 1031),
    dataset: str = "FACE",
) -> list[dict[str, Any]]:
    """Hash factor alpha: does the paper's 131 matter?"""
    scale = scale or BenchScale()
    keys = load_dataset(dataset, scale.base_keys // 2, seed=scale.seed)
    ops = readonly_workload(keys, scale.n_queries // 2, seed=scale.seed)
    rows = []
    for alpha in alphas:
        config = ChameleonConfig(alpha=alpha)
        index = ChameleonIndex(config=config, strategy="ChaB")
        index.bulk_load(keys)
        m = measure(index, ops)
        max_e, avg_e = index.error_stats()
        rows.append(
            {
                "alpha": alpha,
                "lookup_ns": m.wall_ns_per_op,
                "probes_per_op": m.result.counter_delta.get("slot_probes", 0)
                / max(1, m.result.total_ops),
                "max_error": max_e,
                "avg_error": avg_e,
            }
        )
    print(f"Ablation — hash factor alpha sweep ({dataset})")
    print_table(
        ["alpha", "lookup ns", "probes/op", "maxE", "avgE"],
        [list(r.values()) for r in rows],
    )
    return rows


def run_ablation_critic(
    scale: BenchScale | None = None,
    dataset: str = "OSMC",
    training_rounds: int = 6,
) -> list[dict[str, Any]]:
    """DARE fitness source: analytic evaluator vs trained DQN critic.

    Trains the MARL agents briefly, then builds with (a) analytic fitness
    (untrained agent path), (b) the trained critic, and compares the
    resulting structure quality and construction time.
    """
    from ..rl.trainer import MARLTrainer

    scale = scale or BenchScale()
    keys = load_dataset(dataset, scale.base_keys // 2, seed=scale.seed)
    ops = readonly_workload(keys, scale.n_queries // 2, seed=scale.seed)

    rows = []
    # (a) analytic fitness (default untrained path).
    index, build_s = build_index(lambda: ChameleonIndex(strategy="ChaDATS"), keys)
    m = measure(index, ops)
    rows.append(
        {
            "fitness": "analytic",
            "build_s": build_s,
            "lookup_ns": m.wall_ns_per_op,
            "cost": m.structural_cost,
            "nodes": index.node_count(),
        }
    )
    # (b) trained critic.
    trainer = MARLTrainer(er_decay=0.55, er_floor=0.15, seed=scale.seed)
    trainer.train(episodes_per_round=2, max_rounds=training_rounds)
    builder = ChameleonBuilder(
        ChameleonConfig(),
        strategy="ChaDATS",
        dare_agent=trainer.dare,
        tsmdp_agent=trainer.tsmdp,
    )
    index2, build_s2 = build_index(
        lambda: ChameleonIndex(builder=builder), keys
    )
    m2 = measure(index2, ops)
    rows.append(
        {
            "fitness": "trained critic",
            "build_s": build_s2,
            "lookup_ns": m2.wall_ns_per_op,
            "cost": m2.structural_cost,
            "nodes": index2.node_count(),
        }
    )
    print(f"Ablation — DARE fitness source ({dataset})")
    print_table(
        ["fitness", "build s", "lookup ns", "struct cost", "nodes"],
        [list(r.values()) for r in rows],
    )
    return rows


class _GlobalLockManager(IntervalLockManager):
    """Degenerate protocol: every interval maps to one lock entry."""

    def query_lock(
        self, ids: IntervalIds, counters: Counters | None = None
    ) -> QueryHold:
        return super().query_lock((0,), counters)

    def retrain_lock(
        self,
        ids: IntervalIds,
        counters: Counters | None = None,
        timeout: float | None = None,
    ) -> AbstractContextManager[bool]:
        return super().retrain_lock((0,), counters, timeout=timeout)


def run_ablation_locks(
    scale: BenchScale | None = None,
    dataset: str = "FACE",
    hold_seconds: float = 0.3,
) -> list[dict[str, Any]]:
    """Interval lock vs one global lock while one interval is retraining.

    Deterministic protocol probe: a helper thread holds the Retraining-Lock
    on one interval for ``hold_seconds`` while the main thread issues
    queries that all target *other* intervals. With the paper's interval
    lock those queries never touch the held entry and finish immediately;
    with a single global lock the first query blocks until the retrain
    finishes — which is exactly why node/global locking "significantly
    reduces query performance" (Section V).
    """
    scale = scale or BenchScale()
    keys = load_dataset(dataset, scale.base_keys // 4, seed=scale.seed)
    rng = np.random.default_rng(scale.seed)

    rows = []
    for mode in ("interval-lock", "global-lock"):
        lock_manager = (
            IntervalLockManager() if mode == "interval-lock" else _GlobalLockManager()
        )
        index = ChameleonIndex(lock_manager=lock_manager)
        index.bulk_load(keys)
        entries = index.h_level_entries()
        held_ids = entries[0][0]
        # Keys routed to intervals other than the held one.
        other_keys = [
            float(k)
            for k in rng.choice(keys, size=scale.n_queries // 4)
            if index._descend_upper(float(k))[0] != held_ids
        ]
        acquired_event = threading.Event()
        release_event = threading.Event()

        def hold_retrain_lock() -> None:
            with lock_manager.retrain_lock(held_ids) as acquired:
                if acquired:
                    acquired_event.set()
                    release_event.wait(timeout=hold_seconds)
            acquired_event.set()

        holder = threading.Thread(target=hold_retrain_lock, daemon=True)
        holder.start()
        acquired_event.wait(timeout=2.0)
        ops = [Operation(OpKind.LOOKUP, k) for k in other_keys]
        start = time.perf_counter()
        r = run_workload(index, ops)
        elapsed = time.perf_counter() - start
        release_event.set()
        holder.join(timeout=2.0)
        rows.append(
            {
                "mode": mode,
                "queries": len(ops),
                "wall_s": elapsed,
                "lock_waits": r.counter_delta.get("lock_waits", 0),
                "blocked": elapsed > hold_seconds * 0.8,
            }
        )
    print(f"Ablation — interval lock vs global lock ({dataset})")
    print_table(
        ["mode", "queries", "wall s", "lock waits", "blocked by retrain"],
        [list(r.values()) for r in rows],
    )
    return rows


def run_ycsb(
    scale: BenchScale | None = None,
    dataset: str = "FACE",
    workloads: tuple[str, ...] = ("A", "B", "C", "D", "E", "F"),
    indexes: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """YCSB core workloads A-F over the updatable index lineup.

    Beyond the paper: the standard storage-benchmark view of the same
    trade-offs, with Zipfian (hot-key) request skew on top of the data's
    local skew.
    """
    from ..baselines import INDEX_REGISTRY, UPDATABLE_INDEXES
    from ..workloads.mixed import split_load_and_pool
    from ..workloads.ycsb import generate_ycsb

    scale = scale or BenchScale()
    names = indexes or UPDATABLE_INDEXES
    full = load_dataset(dataset, scale.base_keys, seed=scale.seed)
    loaded, pool = split_load_and_pool(
        full, scale.mixed_bootstrap / len(full), seed=scale.seed
    )
    rows: list[dict[str, Any]] = []
    for workload in workloads:
        ops = generate_ycsb(
            workload, loaded, pool, scale.mixed_ops // 2, seed=scale.seed
        )
        for name in names:
            index = INDEX_REGISTRY[name]()
            index.bulk_load(loaded)
            m = measure(index, ops)
            rows.append(
                {
                    "workload": workload,
                    "index": name,
                    "throughput": m.throughput,
                    "cost": m.structural_cost,
                }
            )
    print(f"YCSB A-F — dataset {dataset} (zipfian requests)")
    print_table(
        ["workload", "index", "ops/s", "struct cost/op"],
        [[r["workload"], r["index"], r["throughput"], r["cost"]] for r in rows],
    )
    return rows


def run_range_scans(
    scale: BenchScale | None = None,
    dataset: str = "FACE",
    spans: tuple[int, ...] = (10, 100, 1000),
    indexes: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """Range-scan throughput across scan widths (extension).

    The paper evaluates point queries; range scans stress a different axis:
    Chameleon's hashed leaves must collect-and-sort, while comparison-based
    and PLA structures scan sequentially. This bench quantifies that
    trade-off honestly.
    """
    from ..baselines import INDEX_REGISTRY
    from ..workloads.readonly import range_workload

    scale = scale or BenchScale()
    names = indexes or tuple(INDEX_REGISTRY)
    keys = load_dataset(dataset, scale.base_keys // 2, seed=scale.seed)
    rows: list[dict[str, Any]] = []
    for span in spans:
        ops = range_workload(keys, max(50, scale.n_queries // 40), span_keys=span,
                             seed=scale.seed)
        for name in names:
            index = INDEX_REGISTRY[name]()
            index.bulk_load(keys)
            m = measure(index, ops)
            rows.append(
                {
                    "span": span,
                    "index": name,
                    "scan_us": m.wall_ns_per_op / 1e3,
                    "cost": m.structural_cost,
                }
            )
    print(f"Range scans — dataset {dataset}")
    print_table(
        ["span (keys)", "index", "scan us", "struct cost/op"],
        [[r["span"], r["index"], r["scan_us"], r["cost"]] for r in rows],
    )
    return rows
