"""Common interface and capability metadata for every index in the suite.

All indexes — Chameleon and the eight baselines — expose the same ordered-map
API so that workloads, benchmarks, and differential tests can drive them
interchangeably. Capability descriptors reproduce the qualitative columns of
the paper's Table I.
"""

from __future__ import annotations

import abc
import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..analysis.contracts import declared_contract
from .counters import Counters

Key = float
Value = Any

#: A ``pop`` default that tells an absent key apart from a stored ``None``.
ABSENT: Any = object()

#: On-disk snapshot header: magic + little-endian u16 format version. The
#: magic rejects arbitrary pickles (and pre-header snapshots) up front; the
#: version lets a future layout change fail loudly instead of unpickling
#: garbage into a live index.
INDEX_MAGIC = b"RIDX"
INDEX_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sH")


class IndexError_(Exception):
    """Base error for index operations."""


class DuplicateKeyError(IndexError_):
    """Raised when inserting a key that already exists."""


class EmptyIndexError(IndexError_):
    """Raised when querying an index that was never loaded."""


class PersistenceError(IndexError_):
    """Raised when an on-disk snapshot is unreadable or version-mismatched."""


@dataclass(frozen=True)
class Capabilities:
    """Qualitative capability descriptor mirroring the paper's Table I.

    Attributes:
        name: display name used in tables.
        construction_direction: "TD", "BU", or "BU+TD".
        construction_strategy: "Greedy", "Cost-based", "RL", or "MARL".
        inner_search: search method inside inner nodes.
        leaf_search: search method inside leaf nodes.
        insertion_strategy: "In-place", "Out-of-place", or "None".
        retraining: "Blocking", "non-Blocking", or "None".
        skew_strategy: how local skewness is handled ("-" if not).
        skew_support: 0 (unsupported) .. 3 (strongest), the check-mark count.
        supports_updates: whether insert/delete are implemented.
    """

    name: str
    construction_direction: str
    construction_strategy: str
    inner_search: str
    leaf_search: str
    insertion_strategy: str
    retraining: str
    skew_strategy: str
    skew_support: int
    supports_updates: bool


class BaseIndex(abc.ABC):
    """Abstract ordered index over 64-bit-style numeric keys.

    Concrete subclasses must implement :meth:`bulk_load`, :meth:`lookup`, and
    the structural accessors. Updatable indexes also implement
    :meth:`insert` and :meth:`delete`; static ones raise
    ``NotImplementedError`` from the defaults here.
    """

    #: Filled in by each subclass; consumed by the Table I bench.
    capabilities: Capabilities

    def __init__(self) -> None:
        self.counters = Counters()

    # -- required API ------------------------------------------------------

    @abc.abstractmethod
    def bulk_load(self, keys: Iterable[Key], values: Iterable[Value] | None = None) -> None:
        """Build the index over sorted, unique keys.

        Args:
            keys: keys in ascending order (implementations may sort copies).
            values: optional payloads aligned with ``keys``; defaults to the
                keys themselves.
        """

    @abc.abstractmethod
    def lookup(self, key: Key) -> Value | None:
        """Return the value stored under ``key`` or ``None`` if absent."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    # -- optional API (updatable indexes) ----------------------------------

    def insert(self, key: Key, value: Value | None = None) -> None:
        """Insert ``key`` (with ``value``, default the key itself).

        Raises:
            DuplicateKeyError: if the key is already present.
            NotImplementedError: for read-only index structures.
        """
        raise NotImplementedError(f"{type(self).__name__} is read-only")

    def delete(self, key: Key) -> bool:
        """Delete ``key``; return True if it was present.

        Raises:
            NotImplementedError: for read-only index structures.
        """
        raise NotImplementedError(f"{type(self).__name__} is read-only")

    def pop(self, key: Key, default: Value = None) -> Value:
        """Delete ``key`` and return its value, or ``default`` if absent.

        Charges exactly what :meth:`delete` charges. The default is a
        counter-neutral :meth:`peek` followed by :meth:`delete`; an index
        that can read the value on its delete walk overrides this.
        """
        value = self.peek(key)
        return value if self.delete(key) else default

    # -- batch API ----------------------------------------------------------

    def lookup_batch(self, keys: "Sequence[Key] | np.ndarray") -> list[Value | None]:
        """Look up a key vector; result aligned positionally with ``keys``.

        The default is a scalar loop, so every index conforms; structures
        with vectorisable search override it. Overrides must increment the
        same :class:`Counters` fields by the same totals as the scalar
        loop — batching changes wall-clock cost, never modelled cost (see
        docs/cost_model.md).
        """
        return [self.lookup(float(k)) for k in keys]

    def insert_batch(
        self,
        keys: "Sequence[Key] | np.ndarray",
        values: "Sequence[Value] | None" = None,
    ) -> None:
        """Insert a key vector (values default to the keys themselves).

        Keys are inserted in order; a failure (duplicate, read-only) raises
        after the preceding keys have landed, mirroring the scalar loop.
        """
        if values is None:
            for k in keys:
                self.insert(float(k))
        else:
            if len(values) != len(keys):
                raise ValueError(
                    f"keys and values length mismatch: {len(keys)} != {len(values)}"
                )
            for k, v in zip(keys, values):
                self.insert(float(k), v)

    def delete_batch(self, keys: "Sequence[Key] | np.ndarray") -> list[bool]:
        """Delete a key vector; returns per-key presence flags in order."""
        return [self.delete(float(k)) for k in keys]

    # -- peeks ------------------------------------------------------------------

    @declared_contract("counter_neutral")
    def peek(self, key: Key) -> Value | None:
        """:meth:`lookup` outside the cost model and the telemetry.

        For callers that must read a value without it counting as a
        read — the :meth:`pop` default, or the durable batch delete's
        rollback values. The default brackets :meth:`lookup` with a
        counter snapshot/restore; an index that feeds armed telemetry
        sinks from its lookup overrides this with a raw walk that feeds
        none.
        """
        before = self.counters.snapshot()
        try:
            return self.lookup(key)
        finally:
            self.counters.restore(before)

    @declared_contract("counter_neutral")
    def peek_batch(self, keys: "Sequence[Key]") -> list[Value | None]:
        """:meth:`peek` per key; results aligned with ``keys``."""
        before = self.counters.snapshot()
        try:
            return self.lookup_batch(keys)
        finally:
            self.counters.restore(before)

    def range_query(self, low: Key, high: Key) -> list[tuple[Key, Value]]:
        """Return ``(key, value)`` pairs with ``low <= key <= high``, sorted.

        Default implementation scans :meth:`items`; subclasses override with
        structure-aware versions where profitable.
        """
        return sorted((k, v) for k, v in self.items() if low <= k <= high)

    def items(self) -> Iterator[tuple[Key, Value]]:
        """Iterate over all live ``(key, value)`` pairs in any order."""
        raise NotImplementedError

    # -- structural accessors ----------------------------------------------

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Estimated index size in bytes under the paper's C++ layout.

        Keys/values count 8 bytes each, pointers 8 bytes, model parameters
        8 bytes per float. This is a model of the C++ artifact's footprint,
        not Python object overhead, so size comparisons match the paper's.
        """

    def height_stats(self) -> tuple[int, float]:
        """Return ``(max_height, avg_height)`` over root-to-leaf paths.

        Heights count levels (root = 1). Non-tree structures return (1, 1.0).
        """
        return 1, 1.0

    def node_count(self) -> int:
        """Total number of nodes (inner + leaf); 1 for flat structures."""
        return 1

    def error_stats(self) -> tuple[float, float]:
        """Return ``(max_error, avg_error)`` of leaf-model predictions.

        Error is measured in slots between predicted and actual position,
        matching Table V's MaxError/AvgError columns.
        """
        return 0.0, 0.0

    # -- integrity -----------------------------------------------------------

    def verify_integrity(self) -> "IntegrityReport":
        """Validate structural invariants; return a violation report.

        Runs the interface-level checks (live-count consistency, duplicate
        keys, reachability of every stored pair) plus the structure-specific
        invariants contributed by :meth:`_verify_structure` overrides. The
        pass is counter-neutral: the probe work it performs is rolled back
        so diagnostics never perturb the cost model.
        """
        from ..robustness.integrity import IntegrityReport, verify_ordered_map

        report = IntegrityReport(
            index_name=getattr(self.capabilities, "name", type(self).__name__)
            if hasattr(self, "capabilities")
            else type(self).__name__
        )
        before = self.counters.snapshot()
        try:
            verify_ordered_map(self, report)
            self._verify_structure(report)
        finally:
            self.counters.restore(before)
        return report

    def _verify_structure(self, report: "IntegrityReport") -> None:
        """Subclass hook: append structure-specific violations to ``report``."""

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the index to disk atomically (header + pickle).

        The snapshot is written to a temporary file in the target
        directory, flushed and fsynced, then promoted with ``os.replace``
        — a reader (or a crash) never observes a half-written snapshot at
        ``path``; either the old file or the new one is there. The payload
        is prefixed with :data:`INDEX_MAGIC` and
        :data:`INDEX_FORMAT_VERSION` so :meth:`load` can reject foreign or
        stale-format files before unpickling.

        Runtime-only attachments (lock managers, live threads) are dropped
        by the owning class's ``__getstate__`` where applicable; reattach
        them after :meth:`load`.
        """
        final = Path(path)
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as f:
                f.write(_HEADER.pack(INDEX_MAGIC, INDEX_FORMAT_VERSION))
                pickle.dump(self, f, protocol=pickle.HIGHEST_PROTOCOL)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, final)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "BaseIndex":
        """Load an index previously written by :meth:`save`.

        Raises:
            PersistenceError: if the file lacks the snapshot header (not a
                repro snapshot, or written before headers existed) or its
                format version does not match this build.
            TypeError: if the file holds a different index class.
        """
        with open(path, "rb") as f:
            header = f.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise PersistenceError(
                    f"{path} is too short to be an index snapshot "
                    f"({len(header)} bytes)"
                )
            magic, version = _HEADER.unpack(header)
            if magic != INDEX_MAGIC:
                raise PersistenceError(
                    f"{path} is not a repro index snapshot (bad magic "
                    f"{magic!r}; expected {INDEX_MAGIC!r}). Pre-header "
                    "snapshots must be regenerated with save()."
                )
            if version != INDEX_FORMAT_VERSION:
                raise PersistenceError(
                    f"{path} uses snapshot format v{version}; this build "
                    f"reads v{INDEX_FORMAT_VERSION} — regenerate the "
                    "snapshot with save()"
                )
            index = pickle.load(f)
        if not isinstance(index, cls):
            raise TypeError(
                f"{path} holds a {type(index).__name__}, not a {cls.__name__}"
            )
        return index


def vector_bit_length(widths: np.ndarray) -> np.ndarray:
    """Element-wise ``int.bit_length`` over an integer array.

    Matches Python semantics for the magnitudes the cost model feeds it
    (``(-v).bit_length() == v.bit_length()``, ``0 -> 0``); exact for
    ``|v| < 2**53`` via the float exponent.
    """
    return np.frexp(np.abs(widths).astype(np.float64))[1]


def as_key_value_arrays(
    keys: Iterable[Key], values: Iterable[Value] | None
) -> tuple[list[Key], list[Value]]:
    """Normalise bulk-load input: sort by key, default values to keys.

    A ``None`` value also means the key, as it does for ``insert``.

    Raises:
        ValueError: if duplicate keys are supplied or lengths mismatch.
    """
    key_list = [float(k) for k in keys]
    if values is None:
        value_list: list[Value] = list(key_list)
    else:
        value_list = list(values)
        if len(value_list) != len(key_list):
            raise ValueError(
                f"keys and values length mismatch: {len(key_list)} != {len(value_list)}"
            )
        value_list = [k if v is None else v for k, v in zip(key_list, value_list)]
    if not key_list:
        return [], []
    import math

    for k in key_list:
        if not math.isfinite(k):
            raise ValueError(f"keys must be finite, got {k!r}")
    order = sorted(range(len(key_list)), key=key_list.__getitem__)
    key_list = [key_list[i] for i in order]
    value_list = [value_list[i] for i in order]
    for i in range(1, len(key_list)):
        if key_list[i] == key_list[i - 1]:
            raise ValueError(f"duplicate key in bulk load: {key_list[i]!r}")
    return key_list, value_list
