"""Churn stationarity: a Chameleon index keeps its shape over long churn.

Balanced churn replaces every key of the index, pass after pass, while the
key count stays fixed. Setup, as perfbench's ``face-rw-scalar`` stack runs
it (minus the WAL and telemetry, which store no index structure): the FACE
stand-in, a ChaDATS index under an ``IntervalLockManager``, and a retrainer
whose ``sweep_once`` runs on the client thread every 1,024 writes (the
stack sweeps every 4,096 keys served, a quarter of them writes). A round is
128 scalar delete/insert pairs, then a 32-key ``delete_batch`` and a 32-key
``insert_batch``. Deletes take the loaded keys in a random order and then
the inserted keys in insert order, so one pass (``n`` deletes) replaces
every key once. The index holds four times the scale's base keys (80,000
at quick scale, about 11 s): below that, DARE builds the FACE stand-in
into a few large leaves (89 at 20,000 keys) that churn never empties,
while from 80,000 keys on it builds perfbench's shape, about 8 keys per
leaf.

The shape assertion: after each of two full passes, the leaf count and
``size_bytes()`` per key stay within ±10% of their post-build values. A
leaf that churn empties must become a hole again; an index that keeps its
emptied leaves grows in both. Everything asserted is a structural count,
so the assertion also holds under ``--no-wall-clock``.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro.core import ChameleonIndex, IntervalLockManager
from repro.core.node import walk_leaves
from repro.core.retrainer import RetrainingThread
from repro.datasets import registry

PASSES = 2
SEED = 0
SCALAR_PAIRS = 128
BATCH = 32
SWEEP_EVERY_WRITES = 1024
#: Allowed drift of the leaf count and of bytes per key from post-build.
TOLERANCE = 0.10
#: Index size as a multiple of ``BenchScale.base_keys`` (see above).
KEYS_PER_BASE = 4


def run_churn(n_keys: int) -> list[dict]:
    """Churn ``PASSES`` full passes; one row per checkpoint (row 0: built)."""
    keys = registry.load("FACE", (PASSES + 1) * n_keys, seed=SEED)
    rng = np.random.default_rng(SEED)
    keys = keys[rng.permutation(keys.size)]
    loaded, pool = keys[:n_keys], keys[n_keys:]
    order = np.concatenate([loaded, pool])
    manager = IntervalLockManager()
    index = ChameleonIndex(strategy="ChaDATS", lock_manager=manager)
    index.bulk_load(loaded)
    retrainer = RetrainingThread(index, manager)

    def row(done: int) -> dict:
        return {
            "pass": done / n_keys,
            "keys": len(index),
            "leaves": sum(1 for _ in walk_leaves(index._root)),
            "bytes_per_key": index.size_bytes() / len(index),
            "retrains": index.counters.retrains,
        }

    rows = [row(0)]
    done = 0  # deletes so far; inserts match them after every round
    since_sweep = 0
    for target in range(n_keys, PASSES * n_keys + 1, n_keys):
        while done < target:
            pairs = min(SCALAR_PAIRS, target - done)
            for i in range(done, done + pairs):
                index.delete(float(order[i]))
                index.insert(float(pool[i]))
            done += pairs
            batch = min(BATCH, target - done)
            if batch:
                index.delete_batch(order[done : done + batch])
                index.insert_batch(pool[done : done + batch])
                done += batch
            since_sweep += 2 * (pairs + batch)
            if since_sweep >= SWEEP_EVERY_WRITES:
                retrainer.sweep_once()
                since_sweep = 0
        rows.append(row(done))
    assert index.verify_integrity().ok
    return rows


def _report(rows: list[dict]) -> None:
    base = rows[0]
    for r in rows:
        print(
            f"pass {r['pass']:.2f}: keys={r['keys']} leaves={r['leaves']} "
            f"({r['leaves'] / base['leaves'] - 1:+.1%}) "
            f"B/key={r['bytes_per_key']:.2f} "
            f"({r['bytes_per_key'] / base['bytes_per_key'] - 1:+.1%}) "
            f"retrains={r['retrains']}"
        )


def test_churn_keeps_leaves_and_bytes_stationary(benchmark, scale):
    rows = run_once(benchmark, lambda: run_churn(KEYS_PER_BASE * scale.base_keys))
    _report(rows)
    base = rows[0]
    assert len(rows) == PASSES + 1
    for r in rows[1:]:
        assert r["keys"] == base["keys"]
        assert abs(r["leaves"] / base["leaves"] - 1) <= TOLERANCE, r
        assert abs(r["bytes_per_key"] / base["bytes_per_key"] - 1) <= TOLERANCE, r


def main() -> None:
    from repro.bench import BenchScale

    _report(run_churn(KEYS_PER_BASE * BenchScale.quick().base_keys))


if __name__ == "__main__":
    main()
