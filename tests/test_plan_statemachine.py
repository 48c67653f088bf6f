"""Stateful differential test of the cached fused batch plan.

One bare ChameleonIndex runs a random interleaving of scalar lookups,
inserts and deletes, the three batch ops at fused sizes, subtree swaps
and whole-tree rebuilds — so the plan lives across scalar writes,
rehashes, splits and topology changes. A scalar-only twin replays every
step one key at a time, and a dict oracle holds the expected contents.
After every step the results match the oracle and the structural
counters match the twin's bit for bit (lock counters aside, as in
test_batch_ops.py); at teardown both trees pass ``verify_integrity``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines.interfaces import DuplicateKeyError
from repro.core.config import ChameleonConfig
from repro.core.index import _FUSED_MIN, ChameleonIndex
from repro.datasets import load as load_dataset

BASE = load_dataset("UDEN", 1200, seed=12)
LO, HI = float(BASE.min()), float(BASE.max())
#: Fresh keys crowd into a narrow, skewed window so that inserts collide,
#: grow conflict degrees, rehash leaves and split them within a few steps.
HOT = LO + 0.4 * (HI - LO)
HOT_SPAN = 0.004 * (HI - LO)
#: Small split threshold: a hot leaf becomes a subtree after a few dozen
#: inserts instead of hundreds.
CONFIG = ChameleonConfig(leaf_target_keys=16, leaf_split_keys=48)
LOCK_COUNTERS = ("lock_acquisitions", "lock_waits")

seeds = st.integers(0, 2**32 - 1)
batch_sizes = st.integers(_FUSED_MIN, 3 * _FUSED_MIN)
scalar_sizes = st.integers(1, 4)


def _build() -> ChameleonIndex:
    ix = ChameleonIndex(CONFIG, strategy="ChaB")
    ix.bulk_load(BASE)
    return ix


class PlanMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fused = _build()
        self.twin = _build()
        self.oracle = {float(k): float(k) for k in BASE}
        #: Keys of the latest scalar inserts: batches revisit them, since a
        #: stale leaf state shows on the leaves scalar writes just touched.
        self.recent: list[float] = []

    # -- key pickers ---------------------------------------------------------

    def _fresh(self, rng: np.random.Generator, n: int) -> list[float]:
        """``n`` distinct absent keys, half of them in the hot window."""
        out: list[float] = []
        while len(out) < n:
            if rng.random() < 0.5:
                k = HOT + HOT_SPAN * rng.lognormal(0.0, 1.5) / 20.0
            else:
                k = rng.uniform(LO, HI)
            k = float(k)
            if k not in self.oracle and k not in out:
                out.append(k)
        return out

    def _mixed(self, rng: np.random.Generator, n: int) -> list[float]:
        """``n`` distinct keys: recent scalar inserts, other present keys,
        and absent keys."""
        third = -(-n // 3)
        recent = [k for k in self.recent if k in self.oracle][-third:]
        taken = set(recent)
        live = np.fromiter(
            (k for k in self.oracle if k not in taken), dtype=np.float64
        )
        present = rng.choice(live, min(live.size, third), replace=False)
        keys = (recent + present.tolist())[:n]
        keys += self._fresh(rng, n - len(keys))
        rng.shuffle(keys)
        return keys

    # -- scalar ops ----------------------------------------------------------

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_lookup(self, seed: int, n: int) -> None:
        for k in self._mixed(np.random.default_rng(seed), n):
            want = self.oracle.get(k)
            assert self.fused.lookup(k) == want
            assert self.twin.lookup(k) == want

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_insert(self, seed: int, n: int) -> None:
        for k in self._fresh(np.random.default_rng(seed), n):
            self.fused.insert(k)
            self.twin.insert(k)
            self.oracle[k] = k
            self.recent.append(k)

    @rule(seed=seeds, n=scalar_sizes)
    def scalar_delete(self, seed: int, n: int) -> None:
        for k in self._mixed(np.random.default_rng(seed), n):
            want = self.oracle.pop(k, None) is not None
            assert self.fused.delete(k) == want
            assert self.twin.delete(k) == want

    # -- batch ops (the twin runs them one key at a time) ---------------------

    @rule(seed=seeds, n=batch_sizes)
    def lookup_batch(self, seed: int, n: int) -> None:
        keys = self._mixed(np.random.default_rng(seed), n)
        want = [self.oracle.get(k) for k in keys]
        assert self.fused.lookup_batch(np.asarray(keys)) == want
        assert [self.twin.lookup(k) for k in keys] == want

    @rule(seed=seeds, n=batch_sizes)
    def insert_batch(self, seed: int, n: int) -> None:
        keys = self._fresh(np.random.default_rng(seed), n)
        self.fused.insert_batch(np.asarray(keys))
        for k in keys:
            self.twin.insert(k)
            self.oracle[k] = k

    @rule(seed=seeds, n=batch_sizes)
    def insert_batch_with_duplicate(self, seed: int, n: int) -> None:
        """A present key mid-batch: the keys before it land, then it raises."""
        rng = np.random.default_rng(seed)
        keys = self._fresh(rng, n)
        at = int(rng.integers(0, n))
        keys.insert(at, float(rng.choice(np.fromiter(self.oracle, dtype=np.float64))))
        with pytest.raises(DuplicateKeyError):
            self.fused.insert_batch(np.asarray(keys))
        with pytest.raises(DuplicateKeyError):
            for k in keys:
                self.twin.insert(k)
        for k in keys[:at]:
            self.oracle[k] = k

    @rule(seed=seeds, n=batch_sizes)
    def delete_batch(self, seed: int, n: int) -> None:
        keys = self._mixed(np.random.default_rng(seed), n)
        want = [self.oracle.pop(k, None) is not None for k in keys]
        assert self.fused.delete_batch(np.asarray(keys)) == want
        assert [self.twin.delete(k) for k in keys] == want

    # -- topology changes ----------------------------------------------------

    @rule(pick=st.integers(0, 2**16))
    def rebuild_subtree(self, pick: int) -> None:
        entries = self.fused.h_level_entries()
        twin_entries = self.twin.h_level_entries()
        assert len(entries) == len(twin_entries)
        if not entries:
            return
        ids, parent, rank = entries[pick % len(entries)]
        _, t_parent, t_rank = twin_entries[pick % len(entries)]
        assert self.fused.rebuild_subtree(parent, rank, ids) == (
            self.twin.rebuild_subtree(t_parent, t_rank, ids)
        )

    @rule()
    def rebuild_all(self) -> None:
        assert self.fused.rebuild_all() == self.twin.rebuild_all()

    # -- checks --------------------------------------------------------------

    @invariant()
    def counters_match_twin(self) -> None:
        fused = self.fused.counters.snapshot()
        twin = self.twin.counters.snapshot()
        for name in LOCK_COUNTERS:
            fused.pop(name)
            twin.pop(name)
        assert fused == twin
        assert len(self.fused) == len(self.twin) == len(self.oracle)

    def teardown(self) -> None:
        assert sorted(self.fused.items()) == sorted(self.oracle.items())
        assert self.fused.verify_integrity().ok
        assert self.twin.verify_integrity().ok


PlanMachine.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPlanMachine = PlanMachine.TestCase
