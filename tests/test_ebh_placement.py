"""Fresh-table placement must equal per-key insert into an empty EBH.

:meth:`ErrorBoundedHash.place` is the one routine that fills a fresh table
(``make_leaf`` and every ``rehash``); no production path runs the per-key
loop on an empty table any more, so this property test is its reference.
"""

import numpy as np
import pytest

from repro.baselines.counters import Counters
from repro.core.config import ChameleonConfig
from repro.core.ebh import ErrorBoundedHash

SIZES = (1, 2, 3, 5, 17, 64, 130, 159, 160, 161, 200, 333)


def _keys(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        raw = rng.uniform(0.0, 1e6, size=4 * n + 8)
    else:
        # A few tight clusters: many keys share home slots, so placement
        # walks long outward scans and the cd tail is exercised.
        centres = rng.uniform(0.0, 1e6, size=3)
        raw = rng.choice(centres, size=4 * n + 8) + rng.normal(0.0, 5.0, size=4 * n + 8)
    return np.unique(raw)[:n]


def _capacities(n: int) -> list[int]:
    """Theorem 1 capacity plus full and near-full odd/even tables.

    A table at or near ``n`` slots forces scans out to the ``c / 2`` rung,
    which is a single slot for even capacities.
    """
    caps = {ChameleonConfig().theorem1_capacity(n), n, n + 1, 2 * n, 2 * n + 1}
    return sorted(c for c in caps if c >= max(1, n))


def _pair(n_cap: int, low: float, high: float) -> tuple[ErrorBoundedHash, ErrorBoundedHash]:
    return (
        ErrorBoundedHash(low, high, n_cap, counters=Counters()),
        ErrorBoundedHash(low, high, n_cap, counters=Counters()),
    )


@pytest.mark.parametrize("kind", ["uniform", "clustered"])
@pytest.mark.parametrize("n", SIZES)
def test_place_equals_per_key_insert(kind, n):
    for seed in range(3):
        keys = _keys(kind, n, seed)
        order = np.random.default_rng(seed + 100).permutation(keys)
        values = [("v", float(k)) for k in order]
        low = float(keys.min())
        high = float(keys.max()) + (float(keys.max()) - float(keys.min())) / n
        if high <= low:
            high = low + 1.0
        for cap in _capacities(n):
            placed, inserted = _pair(cap, low, high)
            placed.place(order, values)
            for k, v in zip(order.tolist(), values):
                inserted.insert(k, v)
            assert np.array_equal(placed._keys, inserted._keys, equal_nan=True), (n, cap)
            assert placed._values.tolist() == inserted._values.tolist()
            assert placed.conflict_degree == inserted.conflict_degree, (n, cap)
            assert placed.n_keys == inserted.n_keys == n
            assert placed.counters.slot_probes == inserted.counters.slot_probes, (n, cap)
            assert placed.counters.model_evals == inserted.counters.model_evals == n
            assert placed.counters.snapshot() == inserted.counters.snapshot()


def test_place_on_degenerate_interval_uses_slot_zero_home():
    # span 0: every key's home slot is 0, the longest possible scans.
    keys = np.arange(9, dtype=np.float64)
    placed, inserted = _pair(10, 5.0, 5.0)
    placed.place(keys, keys.tolist())
    for k in keys.tolist():
        inserted.insert(k, k)
    assert np.array_equal(placed._keys, inserted._keys, equal_nan=True)
    assert placed.conflict_degree == inserted.conflict_degree
    assert placed.counters.snapshot() == inserted.counters.snapshot()


def test_place_stores_sequence_values_as_objects():
    keys = np.array([1.0, 2.0, 3.0])
    ebh = ErrorBoundedHash(0.0, 4.0, 8, counters=Counters())
    ebh.place(keys, [(1, 2), [3], {"a": 4}])
    assert sorted(ebh.items(), key=lambda kv: kv[0]) == [
        (1.0, (1, 2)),
        (2.0, [3]),
        (3.0, {"a": 4}),
    ]


def test_place_requires_an_empty_table_that_fits():
    ebh = ErrorBoundedHash(0.0, 10.0, 4, counters=Counters())
    with pytest.raises(OverflowError):
        ebh.place(np.arange(5, dtype=np.float64), list(range(5)))
    ebh.insert(1.0, 1.0)
    with pytest.raises(ValueError):
        ebh.place(np.array([2.0]), [2.0])


def test_rehash_equals_reinsert_in_slot_order():
    rng = np.random.default_rng(7)
    keys = np.unique(rng.uniform(0.0, 1e4, size=150))
    ebh = ErrorBoundedHash(0.0, 1e4, 400, counters=Counters())
    for k in keys.tolist():
        ebh.insert(k, -k)
    live = ebh._live_slots()
    slot_order = ebh._keys[live].tolist()
    ebh.rehash(260, refit=True)
    ref = ErrorBoundedHash(ebh.low_key, ebh.high_key, 260, counters=Counters())
    for k in slot_order:
        ref.insert(k, -k)
    assert np.array_equal(ebh._keys, ref._keys, equal_nan=True)
    assert ebh._values.tolist() == ref._values.tolist()
    assert ebh.conflict_degree == ref.conflict_degree
