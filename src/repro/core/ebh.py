"""Error Bounded Hashing (EBH) — Chameleon's leaf-node model.

An EBH node is a circular slot array addressed by the paper's Eq. 2:

    P(k) = alpha * (c / (uk - lk) * (k - lk))  mod  c

Hash collisions are resolved by probing outward from the home slot; the node
tracks its conflict degree ``cd`` (Definition 2's maximum offset), which
bounds every lookup to the window [P(k) - cd, P(k) + cd]. Because lookups
scan that bounded window exhaustively, deletion can simply clear a slot — no
tombstones and no probe-chain repair — which is also why EBH retraining needs
no sorting (Section VI-C4).

Capacity follows Theorem 1: ``c >= (n - 1) / (-ln(1 - tau))`` for a desired
collision probability tau, adaptively enlarged when inserts push the load
factor past the configured maximum.

Storage is a ``float64`` slot array with a NaN empty-sentinel plus an
object array for values. The fused batch plan
(:mod:`repro.core.batch_plan`) rebinds these arrays onto views of one
concatenated store and probes every leaf's windows with full-vector
operations, charging the same counters by the same totals as the scalar
probe loop here (see docs/cost_model.md).
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

import numpy as np

from ..baselines.counters import Counters
from ..baselines.interfaces import DuplicateKeyError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace


class ErrorBoundedHash:
    """One EBH leaf: hash-addressed key/value slots with bounded offset.

    Args:
        low_key: interval lower bound (inclusive) — the paper's lk.
        high_key: interval upper bound — the paper's uk. Must be > low_key
            unless the node holds at most one distinct key.
        capacity: slot count c (use
            :meth:`ChameleonConfig.theorem1_capacity`).
        alpha: hash factor (paper example: 131).
        counters: shared structural-cost counters.
    """

    __slots__ = ("low_key", "high_key", "capacity", "alpha", "_keys", "_values",
                 "n_keys", "conflict_degree", "counters")

    def __init__(
        self,
        low_key: float,
        high_key: float,
        capacity: int,
        alpha: int = 131,
        counters: Counters | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if high_key < low_key:
            raise ValueError("high_key must be >= low_key")
        self.low_key = float(low_key)
        self.high_key = float(high_key)
        self.capacity = int(capacity)
        self.alpha = int(alpha)
        self._keys: np.ndarray = np.full(self.capacity, np.nan, dtype=np.float64)
        self._values: np.ndarray = np.empty(self.capacity, dtype=object)
        self.n_keys = 0
        self.conflict_degree = 0
        self.counters = counters if counters is not None else Counters()

    # -- hashing -------------------------------------------------------------

    def _raw_home_slot(self, key: float) -> int:
        """Eq. 2 without counter traffic — statistics/diagnostics paths."""
        span = self.high_key - self.low_key
        if span <= 0.0:
            return 0
        scaled = self.capacity * (key - self.low_key) / span
        return int(math.floor(self.alpha * scaled)) % self.capacity

    def home_slot(self, key: float) -> int:
        """Eq. 2: the predicted slot for ``key`` (counted as query work)."""
        self.counters.model_evals += 1
        return self._raw_home_slot(key)

    def _raw_home_slots(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised Eq. 2, bit-identical to :meth:`_raw_home_slot`."""
        span = self.high_key - self.low_key
        if span <= 0.0:
            return np.zeros(keys.shape, dtype=np.int64)
        scaled = self.capacity * (keys - self.low_key) / span
        return np.floor(self.alpha * scaled).astype(np.int64) % self.capacity

    # -- probe geometry ------------------------------------------------------

    def _window_limit(self) -> int:
        """Largest distinct probe offset: min(cd, c // 2).

        Beyond ``c // 2`` the ring wraps and ``(home + o) % c`` revisits
        slots that ``(home - (c - o)) % c`` already probed, so offsets are
        capped there — every ring slot is still reachable exactly once.
        """
        return min(self.conflict_degree, self.capacity // 2)

    def _offset_slots(self, home: int, offset: int) -> tuple[int, ...]:
        """Distinct slots at ``offset`` from ``home`` (deduplicated).

        ``(home + o) % c`` and ``(home - o) % c`` coincide when
        ``2 * o % c == 0`` — at offset 0 and, for even capacity, at
        ``c / 2`` — in which case the slot is probed (and counted) once.
        """
        cap = self.capacity
        if offset == 0 or 2 * offset == cap:
            return ((home + offset) % cap,)
        return ((home + offset) % cap, (home - offset) % cap)

    # -- operations ----------------------------------------------------------

    def lookup(self, key: float) -> Any | None:
        """Find ``key`` within the conflict-degree window, else None."""
        home = self.home_slot(key)
        keys = self._keys
        probes = 0
        for offset in range(self._window_limit() + 1):
            for slot in self._offset_slots(home, offset):
                probes += 1
                if keys[slot] == key:
                    self.counters.slot_probes += probes
                    if obs_metrics.ACTIVE is not None:
                        obs_metrics.ACTIVE.observe("chameleon_probe_length_slots", probes)
                    return self._values[slot]
        self.counters.slot_probes += probes
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe("chameleon_probe_length_slots", probes)
        return None

    def peek(self, key: float) -> Any | None:
        """:meth:`lookup` without counter traffic or metric observes."""
        home = self._raw_home_slot(key)
        keys = self._keys
        for offset in range(self._window_limit() + 1):
            for slot in self._offset_slots(home, offset):
                if keys[slot] == key:
                    return self._values[slot]
        return None

    def insert(self, key: float, value: Any) -> None:
        """Place ``key`` at the nearest free slot to its home slot.

        Raises:
            DuplicateKeyError: if the key is already stored.
            OverflowError: if the node is full (callers expand first).
        """
        if self.n_keys >= self.capacity:
            raise OverflowError("EBH node is full; expand before inserting")
        home = self.home_slot(key)
        keys = self._keys
        cap = self.capacity
        probes = 0
        free_slot = -1
        free_offset = -1
        # One pass outward: detect duplicates inside the cd window and find
        # the nearest free slot. Beyond the cd window a duplicate cannot
        # exist, so the scan may stop at the first free slot found there.
        # Offsets past c // 2 only revisit already-probed slots, so the
        # deduplicated scan covers the whole ring by then.
        for offset in range(cap // 2 + 1):
            for slot in self._offset_slots(home, offset):
                probes += 1
                stored = keys[slot]
                if stored == key:
                    self.counters.slot_probes += probes
                    raise DuplicateKeyError(f"key already present: {key!r}")
                if free_slot < 0 and math.isnan(stored):
                    free_slot, free_offset = slot, offset
            if free_slot >= 0 and offset >= self.conflict_degree:
                break
        self.counters.slot_probes += probes
        if free_slot < 0:
            raise OverflowError("EBH node is full; expand before inserting")
        keys[free_slot] = key
        self._values[free_slot] = value
        self.n_keys += 1
        if free_offset > self.conflict_degree:
            self.conflict_degree = free_offset

    def delete(self, key: float) -> bool:
        """Clear ``key``'s slot; return True if the key was present."""
        home = self.home_slot(key)
        keys = self._keys
        probes = 0
        for offset in range(self._window_limit() + 1):
            for slot in self._offset_slots(home, offset):
                probes += 1
                if keys[slot] == key:
                    keys[slot] = np.nan
                    self._values[slot] = None
                    self.n_keys -= 1
                    self.counters.slot_probes += probes
                    return True
        self.counters.slot_probes += probes
        return False

    # -- batch entry points ----------------------------------------------------

    # The index never calls these: its batches run the fused plan or the
    # scalar stream. They stay as plain per-key loops because the
    # benchmark's tracer (perfbench/tracing.py) wraps them by name.

    def lookup_batch(self, keys: "np.ndarray | Sequence[float]") -> list[Any | None]:
        """:meth:`lookup` per key; results aligned with ``keys``."""
        return [self.lookup(k) for k in np.asarray(keys, dtype=np.float64).tolist()]

    def insert_batch(
        self,
        keys: "np.ndarray | Sequence[float]",
        values: "Sequence[Any] | None" = None,
    ) -> None:
        """:meth:`insert` per key, in stream order; ``values=None`` stores
        each key as its own value, matching the index convention."""
        key_list = np.asarray(keys, dtype=np.float64).tolist()
        if values is not None and len(values) != len(key_list):
            raise ValueError(
                f"keys and values length mismatch: {len(key_list)} != {len(values)}"
            )
        for i, k in enumerate(key_list):
            self.insert(k, k if values is None else values[i])

    def delete_batch(self, keys: "np.ndarray | Sequence[float]") -> list[bool]:
        """:meth:`delete` per key; flags aligned with ``keys``."""
        return [self.delete(k) for k in np.asarray(keys, dtype=np.float64).tolist()]

    # -- maintenance -----------------------------------------------------------

    @property
    def load_factor(self) -> float:
        """n / c."""
        return self.n_keys / self.capacity if self.capacity else 1.0

    def _live_slots(self) -> np.ndarray:
        """Indices of occupied slots, in slot order."""
        return np.flatnonzero(~np.isnan(self._keys))

    def items(self) -> Iterator[tuple[float, Any]]:
        """Live (key, value) pairs in slot order (unsorted)."""
        keys = self._keys
        values = self._values
        for i in self._live_slots().tolist():
            yield float(keys[i]), values[i]

    def sorted_items(self) -> list[tuple[float, Any]]:
        """Live pairs sorted by key (range queries / rebuilds).

        One vectorised argsort over the live slots — keys are unique, so
        sorting by key alone reproduces the old sort-by-pair order.
        """
        live = self._live_slots()
        order = np.argsort(self._keys[live], kind="stable")
        ordered = live[order]
        return list(zip(self._keys[ordered].tolist(), self._values[ordered].tolist()))

    def rehash(self, new_capacity: int, low_key: float | None = None,
               high_key: float | None = None, refit: bool = False) -> None:
        """Rebuild in place at a new capacity (and optionally new interval).

        No sorting is required — this is the property Fig. 14 credits for
        Chameleon's low retraining time. The live pairs are re-placed in
        slot order by :meth:`place`, so counters, conflict degree and slot
        layout are those of re-inserting them one by one.

        Args:
            new_capacity: slot count after the rebuild.
            low_key/high_key: explicit new model interval.
            refit: when True, refit the model interval to the live keys'
                span (keeps the hash flat as inserts drift the key range).
        """
        if new_capacity < self.n_keys:
            raise ValueError("new capacity below live key count")
        live = self._live_slots()
        live_keys = self._keys[live]
        live_values = self._values[live]
        n_live = int(live.size)
        if refit and n_live >= 2:
            k_min = float(live_keys.min())
            k_max = float(live_keys.max())
            if k_max > k_min:
                low_key = k_min
                high_key = k_max + (k_max - k_min) / n_live
        self.capacity = int(new_capacity)
        if low_key is not None:
            self.low_key = float(low_key)
        if high_key is not None:
            self.high_key = float(high_key)
        self._keys = np.full(self.capacity, np.nan, dtype=np.float64)
        self._values = np.empty(self.capacity, dtype=object)
        self.n_keys = 0
        self.conflict_degree = 0
        self.counters.retrains += 1
        self.counters.retrain_keys += n_live
        if obs_trace.ACTIVE is not None:
            obs_trace.ACTIVE.event(
                "ebh.rehash", {"capacity": self.capacity, "n_keys": n_live}
            )
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.inc("chameleon_leaf_rehash_total")
        self.place(live_keys, live_values)

    def place(self, keys: np.ndarray, values: Sequence[Any]) -> None:
        """Place distinct keys into this empty table, in the given order.

        Equivalent to :meth:`insert` per key — same slot for every key,
        same conflict degree, same ``model_evals`` and ``slot_probes`` —
        but with one vectorised Eq. 2 pass for the home slots and an
        occupancy simulation of the outward scan. On an empty table a
        probed slot is either free or holds a different key, so the scan
        reduces to "first free slot in candidate order", and the probes
        the scalar scan spends past it up to ``cd`` have the closed form
        ``2 * (cd - f)`` (one less when the single-slot ``c / 2`` rung
        falls in that tail). Callers guarantee distinct keys (bulk-load
        input, or one leaf's live keys) that fit the capacity.
        """
        keys = np.asarray(keys, dtype=np.float64)
        n = int(keys.size)
        if n == 0:
            return
        if self.n_keys:
            raise ValueError("place() needs an empty table")
        if n > self.capacity:
            raise OverflowError("EBH node is full; expand before inserting")
        cap = self.capacity
        half = cap // 2
        occupied = bytearray(cap)
        slots = [0] * n
        cd = 0
        total_probes = 0
        for i, home in enumerate(self._raw_home_slots(keys).tolist()):
            probes = 1
            free_slot = home
            free_offset = 0
            if occupied[home]:
                for offset in range(1, half + 1):
                    plus = home + offset
                    if plus >= cap:
                        plus -= cap
                    probes += 1
                    single = offset + offset == cap
                    if not occupied[plus]:
                        free_slot, free_offset = plus, offset
                        if not single:
                            probes += 1
                        break
                    if not single:
                        minus = home - offset
                        if minus < 0:
                            minus += cap
                        probes += 1
                        if not occupied[minus]:
                            free_slot, free_offset = minus, offset
                            break
            if free_offset < cd:
                probes += 2 * (cd - free_offset)
                if cd + cd == cap:
                    probes -= 1
            elif free_offset > cd:
                cd = free_offset
            total_probes += probes
            occupied[free_slot] = 1
            slots[i] = free_slot
        self._keys[slots] = keys
        vals = self._values
        for slot, value in zip(slots, values):
            vals[slot] = value
        self.n_keys = n
        self.conflict_degree = cd
        self.counters.model_evals += n
        self.counters.slot_probes += total_probes

    # -- statistics -------------------------------------------------------------

    def offset_of(self, slot: int) -> int:
        """Circular distance between a stored key's slot and its home slot.

        A statistics accessor, not query work: routes through the
        counter-neutral :meth:`_raw_home_slot` so diagnostics never perturb
        the cost model (RL013).
        """
        key = self._keys[slot]
        if math.isnan(key):
            raise ValueError("slot is empty")
        home = self._raw_home_slot(float(key))
        direct = abs(slot - home)
        return min(direct, self.capacity - direct)

    def error_stats(self) -> tuple[int, float]:
        """(max offset, mean offset) over stored keys — Table V errors.

        Vectorised over the slot array; counter-neutral like
        :meth:`offset_of`.
        """
        live = self._live_slots()
        if live.size == 0:
            return 0, 0.0
        homes = self._raw_home_slots(self._keys[live])
        direct = np.abs(live - homes)
        offsets = np.minimum(direct, self.capacity - direct)
        return int(offsets.max()), float(offsets.mean())

    def size_bytes(self) -> int:
        """Modelled C++ footprint: 16 bytes per slot plus a 48-byte header."""
        return 16 * self.capacity + 48

    def __len__(self) -> int:
        return self.n_keys
