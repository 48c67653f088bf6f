"""The ``pop`` contract: a delete that hands back the removed value.

``ChameleonIndex.pop`` shares ``delete``'s walk, lock and probe; every
other updatable index takes the ``BaseIndex`` default (a counter-neutral
peek, then ``delete``). Either way ``pop`` returns the stored value,
removes the key, returns ``default`` on a miss, charges exactly what
``delete`` charges, and feeds the SLO tracker what ``delete`` feeds it.
"""

import pytest

from repro import obs
from repro.baselines import INDEX_REGISTRY, UPDATABLE_INDEXES
from repro.core import ChameleonIndex, IntervalLockManager
from repro.datasets import face_like

KEYS = [float(k) for k in face_like(800, seed=8)]
VALUES = [2.0 * k + 1.0 for k in KEYS]
VICTIMS = list(zip(KEYS[5::97], VALUES[5::97]))
ABSENT_KEYS = [(a + b) / 2.0 for a, b in zip(KEYS[3::101], KEYS[4::101]) if a < b]

FACTORIES = {
    "Chameleon": lambda: ChameleonIndex(strategy="ChaB"),
    "Chameleon-locked": lambda: ChameleonIndex(
        strategy="ChaB", lock_manager=IntervalLockManager(debug_asserts=True)
    ),
    **{name: INDEX_REGISTRY[name] for name in UPDATABLE_INDEXES if name != "Chameleon"},
}


def _loaded(name):
    index = FACTORIES[name]()
    index.bulk_load(KEYS, VALUES)
    return index


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_pop_returns_the_value_removes_the_key_and_charges_what_delete_charges(name):
    popped, deleted = _loaded(name), _loaded(name)
    missing = object()
    for key, value in VICTIMS:
        assert popped.pop(key) == value
        assert deleted.delete(key)
        assert popped.lookup(key) is None and deleted.lookup(key) is None
        assert popped.pop(key, missing) is missing
        assert not deleted.delete(key)
    for key in ABSENT_KEYS:
        assert popped.pop(key) is None
        assert popped.pop(key, "default") == "default"
        assert not deleted.delete(key)
        assert not deleted.delete(key)
    assert len(popped) == len(deleted) == len(KEYS) - len(VICTIMS)
    assert popped.counters.snapshot() == deleted.counters.snapshot()
    assert sorted(popped.items()) == sorted(deleted.items())


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_pop_feeds_the_slo_tracker_what_delete_feeds_it(name):
    popped, deleted = _loaded(name), _loaded(name)
    tracker = obs.arm_slo()
    try:
        key = VICTIMS[0][0]
        popped.pop(key)
        by_pop = tracker.window_count("delete")
        deleted.delete(key)
        by_delete = tracker.window_count("delete") - by_pop
    finally:
        obs.disarm_slo()
    assert by_pop == by_delete
    if name.startswith("Chameleon"):
        assert by_pop == 1
