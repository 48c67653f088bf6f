"""PGM-index baseline (paper reference [8]).

A multi-level piecewise-linear-model index: each level is an error-bounded
PLA over the level below, built bottom-up in one pass with the shrinking-
cone segmentation (linear-time; the original uses an exact convex-hull PLA —
the cone variant produces slightly more segments with identical query-path
behaviour, which is what the comparison needs). Queries descend the levels,
each time predicting a position and binary-searching a 2*epsilon window —
the "imprecise inner nodes" weakness Table I records.

Updates are out-of-place (the dynamic PGM's LSM flavour, simplified to one
sorted delta buffer plus tombstones): inserts go to the buffer; the whole
index rebuilds — a blocking retrain — when the buffer outgrows its bound.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .interfaces import (
    BaseIndex,
    Capabilities,
    DuplicateKeyError,
    Key,
    Value,
    as_key_value_arrays,
    vector_bit_length,
)

#: Default PLA error bound (PGM's common epsilon).
DEFAULT_EPSILON = 32
#: Buffer capacity as a fraction of the main array before a rebuild.
BUFFER_FRACTION = 0.25


@dataclass(frozen=True)
class _Segment:
    """One linear segment: predicts positions for keys >= ``first_key``."""

    first_key: float
    slope: float
    intercept: float

    def predict(self, key: float) -> float:
        return self.slope * key + self.intercept


def build_pla_segments(
    keys: list[float], epsilon: int, start_rank: int = 0
) -> list[_Segment]:
    """Shrinking-cone PLA: maximal segments with error <= ``epsilon``.

    Args:
        keys: sorted keys to segment.
        epsilon: max |predicted - actual| rank error per segment.
        start_rank: rank of ``keys[0]`` in the underlying array.

    Returns:
        Segments covering all keys in order.
    """
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1")
    segments: list[_Segment] = []
    i = 0
    n = len(keys)
    while i < n:
        origin_key = keys[i]
        origin_rank = start_rank + i
        slope_low = float("-inf")
        slope_high = float("inf")
        j = i + 1
        while j < n:
            dx = keys[j] - origin_key
            if dx <= 0:
                break
            rank = start_rank + j
            low = (rank - origin_rank - epsilon) / dx
            high = (rank - origin_rank + epsilon) / dx
            new_low = max(slope_low, low)
            new_high = min(slope_high, high)
            if new_low > new_high:
                break
            slope_low, slope_high = new_low, new_high
            j += 1
        if j == i + 1:
            slope = 0.0
        else:
            slope = (
                (slope_low + slope_high) / 2.0
                if slope_low != float("-inf")
                else 0.0
            )
        segments.append(
            _Segment(origin_key, slope, origin_rank - slope * origin_key)
        )
        i = j
    return segments


class PGMIndex(BaseIndex):
    """Multi-level PGM with an out-of-place delta buffer.

    Args:
        epsilon: PLA error bound for every level.
    """

    capabilities = Capabilities(
        name="PGM",
        construction_direction="BU",
        construction_strategy="Greedy",
        inner_search="PLM+BS",
        leaf_search="PLM+BS",
        insertion_strategy="Out-of-place",
        retraining="Blocking",
        skew_strategy="Rebuild balance",
        skew_support=1,
        supports_updates=True,
    )

    def __init__(self, epsilon: int = DEFAULT_EPSILON) -> None:
        super().__init__()
        self.epsilon = int(epsilon)
        self._keys: list[float] = []
        self._values: list[Any] = []
        self._levels: list[list[_Segment]] = []  # [0] = leaf level
        self._buffer_keys: list[float] = []
        self._buffer_values: list[Any] = []
        self._tombstones: set[float] = set()
        self._n = 0
        #: Per-level numpy mirrors (first_keys, slopes, intercepts) plus a
        #: main-key array, rebuilt with the levels for batch search.
        self._level_cache: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._key_arr: np.ndarray = np.empty(0, dtype=np.float64)

    # -- construction -----------------------------------------------------------

    def bulk_load(self, keys: Iterable[Key], values: Iterable[Value] | None = None) -> None:
        self._keys, self._values = as_key_value_arrays(keys, values)
        self._buffer_keys = []
        self._buffer_values = []
        self._tombstones = set()
        self._n = len(self._keys)
        self._build_levels()

    def _build_levels(self) -> None:
        self._levels = []
        self._level_cache = []
        self._key_arr = np.asarray(self._keys, dtype=np.float64)
        if not self._keys:
            return
        level = build_pla_segments(self._keys, self.epsilon)
        self._levels.append(level)
        while len(level) > 1:
            first_keys = [seg.first_key for seg in level]
            level = build_pla_segments(first_keys, self.epsilon)
            self._levels.append(level)
        self._level_cache = [
            (
                np.asarray([s.first_key for s in lvl], dtype=np.float64),
                np.asarray([s.slope for s in lvl], dtype=np.float64),
                np.asarray([s.intercept for s in lvl], dtype=np.float64),
            )
            for lvl in self._levels
        ]

    def _rebuild(self) -> None:
        """Merge the buffer into the main array and rebuild (blocking)."""
        self.counters.retrains += 1
        self.counters.retrain_keys += self._n
        merged_keys: list[float] = []
        merged_values: list[Any] = []
        bi = 0
        for k, v in zip(self._keys, self._values):
            while bi < len(self._buffer_keys) and self._buffer_keys[bi] < k:
                merged_keys.append(self._buffer_keys[bi])
                merged_values.append(self._buffer_values[bi])
                bi += 1
            if k not in self._tombstones:
                merged_keys.append(k)
                merged_values.append(v)
        merged_keys.extend(self._buffer_keys[bi:])
        merged_values.extend(self._buffer_values[bi:])
        self._keys, self._values = merged_keys, merged_values
        self._buffer_keys = []
        self._buffer_values = []
        self._tombstones = set()
        self._build_levels()

    # -- search ------------------------------------------------------------------

    def _segment_for(self, key: float) -> _Segment | None:
        """Descend the levels to the leaf segment covering ``key``."""
        if not self._levels:
            return None
        eps = self.epsilon
        top = self._levels[-1]
        idx = 0  # single root segment
        for depth in range(len(self._levels) - 1, 0, -1):
            segs = self._levels[depth]
            self.counters.node_hops += 1
            self.counters.model_evals += 1
            predicted = int(segs[idx].predict(key))
            below = self._levels[depth - 1]
            lo = max(0, predicted - eps)
            hi = min(len(below) - 1, predicted + eps)
            idx = self._search_segments(below, key, lo, hi)
        return self._levels[0][idx] if self._levels[0] else None

    def _search_segments(
        self, segs: list[_Segment], key: float, lo: int, hi: int
    ) -> int:
        """Last segment with first_key <= key inside [lo, hi] (binary)."""
        # The epsilon window can miss when prediction is off at the ends —
        # widen until the invariant first_key[lo] <= key holds.
        while lo > 0 and segs[lo].first_key > key:
            lo = max(0, lo - self.epsilon)
            self.counters.comparisons += 1
        while hi < len(segs) - 1 and segs[hi].first_key < key:
            hi = min(len(segs) - 1, hi + self.epsilon)
            self.counters.comparisons += 1
        # Modelled binary-search cost over the widened window (the suite's
        # usual bit_length form — data-independent, so the batch path can
        # reproduce it in closed form).
        self.counters.comparisons += max(1, (hi - lo + 1).bit_length())
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if segs[mid].first_key <= key:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _main_lookup(self, key: float) -> int:
        """Rank of ``key`` in the main array (-1 when absent)."""
        seg = self._segment_for(key)
        if seg is None:
            return -1
        self.counters.model_evals += 1
        predicted = int(seg.predict(key))
        lo = max(0, predicted - self.epsilon)
        hi = min(len(self._keys), predicted + self.epsilon + 1)
        self.counters.comparisons += max(1, (hi - lo).bit_length())
        i = bisect.bisect_left(self._keys, key, lo, hi)
        if i < len(self._keys) and self._keys[i] == key:
            return i
        # Defensive widening (segment boundary rounding).
        self.counters.comparisons += max(1, len(self._keys).bit_length())
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return i
        return -1

    def _segment_for_batch(self, karr: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_segment_for`: leaf-segment index per key.

        Each level routes the whole vector with one fused predict; the
        widening loops and the modelled binary-search cost are reproduced
        in closed form (widening steps are ceil-divisions of the distance
        between the epsilon window and the key's true segment rank), so
        counter totals match the scalar descent exactly.
        """
        eps = self.epsilon
        idx = np.zeros(karr.size, dtype=np.int64)
        m = int(karr.size)
        for depth in range(len(self._levels) - 1, 0, -1):
            _, slopes, intercepts = self._level_cache[depth]
            self.counters.node_hops += m
            self.counters.model_evals += m
            predicted = np.trunc(slopes[idx] * karr + intercepts[idx]).astype(np.int64)
            below_fk = self._level_cache[depth - 1][0]
            nb = int(below_fk.size)
            lo = np.maximum(0, predicted - eps)
            hi = np.minimum(nb - 1, predicted + eps)
            # t: last segment with first_key <= key; u: first with >= key.
            t = np.searchsorted(below_fk, karr, side="right") - 1
            u = np.searchsorted(below_fk, karr, side="left")
            steps_low = np.maximum(0, (lo - np.maximum(t, 0) + eps - 1) // eps)
            steps_high = np.maximum(0, (np.minimum(u, nb - 1) - hi + eps - 1) // eps)
            lo_w = np.maximum(0, lo - steps_low * eps)
            hi_w = np.minimum(nb - 1, hi + steps_high * eps)
            self.counters.comparisons += int(steps_low.sum() + steps_high.sum())
            self.counters.comparisons += int(
                np.maximum(1, vector_bit_length(hi_w - lo_w + 1)).sum()
            )
            idx = np.maximum(np.minimum(t, hi_w), lo_w)
        return idx

    def _main_lookup_batch(self, karr: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`_main_lookup`: rank per key (-1 when absent)."""
        m = int(karr.size)
        if not self._levels:
            return np.full(m, -1, dtype=np.int64)
        idx = self._segment_for_batch(karr)
        arr = self._key_arr
        n = int(arr.size)
        eps = self.epsilon
        _, slopes, intercepts = self._level_cache[0]
        self.counters.model_evals += m
        predicted = np.trunc(slopes[idx] * karr + intercepts[idx]).astype(np.int64)
        lo = np.maximum(0, predicted - eps)
        hi = np.minimum(n, predicted + eps + 1)
        self.counters.comparisons += int(
            np.maximum(1, vector_bit_length(hi - lo)).sum()
        )
        global_pos = np.searchsorted(arr, karr, side="left")
        pos = np.maximum(np.minimum(global_pos, hi), lo)
        hit = (pos < n) & (arr[np.minimum(pos, n - 1)] == karr)
        miss = ~hit
        n_miss = int(miss.sum())
        if n_miss:
            # Defensive widening: an unbounded binary search per miss.
            self.counters.comparisons += n_miss * max(1, n.bit_length())
            wide_hit = miss & (global_pos < n) & (
                arr[np.minimum(global_pos, n - 1)] == karr
            )
            pos = np.where(hit, pos, global_pos)
            hit = hit | wide_hit
        return np.where(hit, pos, -1)

    # -- public API ------------------------------------------------------------------

    def lookup_batch(self, keys: "Sequence[Key] | np.ndarray") -> list[Value | None]:
        """Vectorised lookup: buffer probe, tombstone filter, main descent.

        Same protocol and counter totals as the scalar :meth:`lookup`
        applied key by key.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if m == 0:
            return []
        self.counters.buffer_ops += m
        out: list[Value | None] = [None] * m
        if self._buffer_keys:
            barr = np.asarray(self._buffer_keys, dtype=np.float64)
            bpos = np.searchsorted(barr, karr, side="left")
            buf_hit = barr[np.minimum(bpos, barr.size - 1)] == karr
            for j in np.flatnonzero(buf_hit).tolist():
                out[j] = self._buffer_values[bpos[j]]
        else:
            buf_hit = np.zeros(m, dtype=bool)
        rest = ~buf_hit
        if self._tombstones:
            tombs = self._tombstones
            dead = np.fromiter(
                (k in tombs for k in karr.tolist()), dtype=bool, count=m
            )
            rest &= ~dead
        rest_idx = np.flatnonzero(rest)
        if rest_idx.size:
            ranks = self._main_lookup_batch(karr[rest_idx])
            values = self._values
            for j, r in zip(rest_idx.tolist(), ranks.tolist()):
                if r >= 0:
                    out[j] = values[r]
        return out

    def lookup(self, key: Key) -> Value | None:
        key = float(key)
        self.counters.buffer_ops += 1
        bi = bisect.bisect_left(self._buffer_keys, key)
        if bi < len(self._buffer_keys) and self._buffer_keys[bi] == key:
            return self._buffer_values[bi]
        if key in self._tombstones:
            return None
        i = self._main_lookup(key)
        return self._values[i] if i >= 0 else None

    def insert(self, key: Key, value: Value | None = None) -> None:
        key = float(key)
        stored = key if value is None else value
        if self.lookup(key) is not None:
            raise DuplicateKeyError(f"key already present: {key!r}")
        # A main-array tombstone stays: the key lives on in the buffer
        # only, so a later delete (buffer first) leaves no copy behind.
        bi = bisect.bisect_left(self._buffer_keys, key)
        self._buffer_keys.insert(bi, key)
        self._buffer_values.insert(bi, stored)
        self.counters.buffer_ops += 1
        self.counters.shifts += len(self._buffer_keys) - bi
        self._n += 1
        if len(self._buffer_keys) > max(64, int(len(self._keys) * BUFFER_FRACTION)):
            self._rebuild()

    def delete(self, key: Key) -> bool:
        key = float(key)
        bi = bisect.bisect_left(self._buffer_keys, key)
        self.counters.buffer_ops += 1
        if bi < len(self._buffer_keys) and self._buffer_keys[bi] == key:
            del self._buffer_keys[bi]
            del self._buffer_values[bi]
            self._n -= 1
            return True
        if key in self._tombstones:
            return False
        if self._main_lookup(key) >= 0:
            self._tombstones.add(key)
            self._n -= 1
            return True
        return False

    def range_query(self, low: Key, high: Key) -> list[tuple[Key, Value]]:
        out: list[tuple[Key, Value]] = []
        self.counters.comparisons += max(1, len(self._keys).bit_length())
        i = bisect.bisect_left(self._keys, low)
        while i < len(self._keys) and self._keys[i] <= high:
            self.counters.comparisons += 1
            if self._keys[i] not in self._tombstones:
                out.append((self._keys[i], self._values[i]))
            i += 1
        bi = bisect.bisect_left(self._buffer_keys, low)
        while bi < len(self._buffer_keys) and self._buffer_keys[bi] <= high:
            self.counters.buffer_ops += 1
            out.append((self._buffer_keys[bi], self._buffer_values[bi]))
            bi += 1
        out.sort()
        return out

    def items(self) -> Iterator[tuple[Key, Value]]:
        for k, v in zip(self._keys, self._values):
            if k not in self._tombstones:
                yield k, v
        yield from zip(self._buffer_keys, self._buffer_values)

    # -- structure --------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def size_bytes(self) -> int:
        seg_bytes = sum(24 * len(level) for level in self._levels)
        return (
            16 * len(self._keys)
            + 16 * len(self._buffer_keys)
            + 8 * len(self._tombstones)
            + seg_bytes
        )

    def height_stats(self) -> tuple[int, float]:
        h = len(self._levels) + 1  # levels + the data array
        return h, float(h)

    def node_count(self) -> int:
        return sum(len(level) for level in self._levels)

    def error_stats(self) -> tuple[float, float]:
        return float(self.epsilon), float(self.epsilon) / 2.0
