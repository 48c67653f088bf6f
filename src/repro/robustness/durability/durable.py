"""DurableIndex: a write-ahead-logged wrapper around any BaseIndex.

Wraps a live index with a :class:`~repro.robustness.durability.wal.
WriteAheadLog` and a :class:`~repro.robustness.durability.checkpoint.
CheckpointManager` in one directory::

    directory/
        MANIFEST               # atomic pointer to the current snapshot
        checkpoint-<lsn>.snap  # BaseIndex.save() snapshots
        wal/wal-<lsn>.seg      # CRC-framed log segments

Write ordering is *apply-then-log*: the in-memory mutation runs first,
then the record is appended (and under ``fsync="always"`` fsynced)
before the call returns. The ack — the caller seeing the method return —
therefore always happens after the log write, which is the durability
contract ("no acknowledged op precedes its durable log record"). Apply
failures (duplicate key, injected index faults) simply propagate before
any logging, so the log never holds a record for a mutation that did not
happen. Conversely, if the *append* fails after a successful apply, the
in-memory mutation is rolled back before the error propagates — memory
and log never diverge inside a live process. (Only a crash can lose
state, and then exactly the unlogged suffix, which is what the crash
matrix verifies.)

Counter-neutrality: durability must not perturb the paper's cost model.
A durable delete runs :meth:`~repro.baselines.interfaces.BaseIndex.pop`,
which charges exactly what ``delete`` charges and returns the rollback
value. The wrapper's only index touches beyond the caller's own
operation are the batch peeks
(:meth:`~repro.baselines.interfaces.BaseIndex.peek_batch`) that capture
rollback values and certify batches; they charge no counters and feed no
SLO window or metric — WAL-on and WAL-off runs produce bit-identical
structural :class:`~repro.baselines.counters.Counters` and the same read
telemetry, pinned by tests.
"""

from __future__ import annotations

import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from ...analysis.contracts import declared_contract
from ...baselines.counters import Counters
from ...baselines.interfaces import ABSENT, BaseIndex, Key, Value
from .. import faults
from .checkpoint import CheckpointManager
from .recovery import RecoveryManager, RecoveryReport
from .wal import (
    WriteAheadLog,
    log_bulk_load,
    log_delete,
    log_delete_batch,
    log_insert,
    log_insert_batch,
)


@declared_contract("no_raise")
@contextmanager
def _rollback_guard() -> Iterator[None]:
    """Suppress fault injection around a compensating index write.

    The rollback after a failed append is the one index mutation that
    must not fail: if it did, memory and log would diverge — the exact
    invariant the rollback exists to protect. Under the chaos harness
    the inner index's own fault points (``ebh.insert``, ``ebh.expand``)
    would otherwise fire *inside the rollback*, silently dropping the
    key from memory while the oracle and the log both keep it. Real
    rollbacks are pure in-memory compensation, so detaching the
    injector here models reality, not an escape hatch. (Chaos sweeps
    run synchronously on the workload thread, so the brief global
    detach cannot hide faults from a concurrent sweep.)
    """
    active = faults.ACTIVE
    faults.ACTIVE = None
    try:
        yield
    finally:
        faults.ACTIVE = active


class DurableIndex:
    """Durability wrapper; see the module docstring for the contract.

    Args:
        index: the live index to wrap (already-loaded state is *not*
            retro-logged; call :meth:`bulk_load` through the wrapper).
        directory: durability root; created if missing.
        fsync: WAL fsync policy (``always`` / ``group`` / ``none``).
        group_every: appends per group fsync under ``group``.
        segment_max_bytes: WAL segment rotation threshold.
        checkpoint_every_records: automatic checkpoint cadence in logged
            records (None disables; explicit :meth:`checkpoint` always
            works).
        keep_checkpoints: snapshots retained after pruning.
    """

    def __init__(
        self,
        index: BaseIndex,
        directory: str | Path,
        fsync: str = "always",
        group_every: int = 64,
        segment_max_bytes: int = 4 * 1024 * 1024,
        checkpoint_every_records: int | None = None,
        keep_checkpoints: int = 2,
    ) -> None:
        self.index = index
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(
            self.directory / "wal",
            fsync=fsync,
            segment_max_bytes=segment_max_bytes,
            group_every=group_every,
        )
        self.checkpointer = CheckpointManager(
            self.directory, keep=keep_checkpoints
        )
        self.checkpoint_every_records = checkpoint_every_records
        self._records_since_checkpoint = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def recover(
        cls,
        directory: str | Path,
        index_factory: Callable[[], BaseIndex],
        fsync: str = "always",
        **kwargs: Any,
    ) -> "tuple[DurableIndex, RecoveryReport]":
        """Recover ``directory`` and wrap the result for further writes."""
        index, report = RecoveryManager(directory, index_factory).recover()
        durable = cls(index, directory, fsync=fsync, **kwargs)
        return durable, report

    def close(self) -> None:
        """Flush and close the WAL (the index itself stays usable)."""
        self.wal.close()

    def __enter__(self) -> "DurableIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- durable writes ------------------------------------------------------

    def bulk_load(
        self, keys: Iterable[Key], values: Iterable[Value] | None = None
    ) -> None:
        """Bulk load through the log (apply, then one BULK_LOAD record).

        Materialises the iterables (they must be logged verbatim). Not
        rolled back on an append failure — a half-built base state has no
        single-record undo; the caller should discard the index if the
        append raises.
        """
        key_list = [float(k) for k in keys]
        value_list = None if values is None else list(values)
        self.index.bulk_load(key_list, value_list)
        log_bulk_load(self.wal, key_list, value_list)
        self._after_logged_record()

    def insert(self, key: Key, value: Value | None = None) -> None:
        """Insert; durable (per the fsync policy) once this returns."""
        self.index.insert(key, value)
        try:
            log_insert(self.wal, float(key), value)
        except BaseException:
            with _rollback_guard():
                self.index.delete(float(key))  # roll back the apply
            raise
        self._after_logged_record()

    def delete(self, key: Key) -> bool:
        """Delete; returns presence. Logged only when it mutated.

        One :meth:`~repro.baselines.interfaces.BaseIndex.pop` removes the
        key and hands back its value for the rollback, so the value
        restored is the one removed — no separate read, and no window in
        which a concurrent writer could change it.
        """
        old_value = self.index.pop(key, ABSENT)
        if old_value is ABSENT:
            return False
        try:
            log_delete(self.wal, float(key))
        except BaseException:
            with _rollback_guard():
                self.index.insert(float(key), old_value)  # roll back
            raise
        self._after_logged_record()
        return True

    def insert_batch(
        self,
        keys: "Sequence[Key]",
        values: "Sequence[Value] | None" = None,
    ) -> None:
        """Batch insert: one bulk WAL record when no key can raise.

        A counter-neutral peek certifies the batch (unique keys, none
        present); certified batches run ``index.insert_batch`` and log
        one INSERT_BATCH frame — one append, one fsync under ``always`` —
        with batch-level rollback: if the apply dies mid-batch or the
        append fails, every key the batch placed is removed before the
        error propagates, so memory and log never diverge. Uncertified batches (an in-batch duplicate, a key already
        present) fall back to the per-op loop, which preserves the scalar
        stream's exact semantics: a mid-batch ``DuplicateKeyError`` leaves
        every earlier key applied *and* individually logged.
        """
        key_list = [float(k) for k in keys]
        if values is not None and len(values) != len(key_list):
            raise ValueError(
                f"keys and values length mismatch: "
                f"{len(keys)} != {len(values)}"
            )
        if not key_list:
            return
        value_list = None if values is None else list(values)
        certified = len(set(key_list)) == len(key_list) and not any(
            v is not None for v in self.index.peek_batch(key_list)
        )
        if not certified:
            if value_list is None:
                for k in key_list:
                    self.insert(k)
            else:
                for k, v in zip(key_list, value_list):
                    self.insert(k, v)
            return
        try:
            self.index.insert_batch(key_list, value_list)
        except BaseException:
            # Mid-apply failure (an injected fault): drop whatever prefix
            # landed — every batch key was certified fresh, so a plain
            # delete sweep restores the pre-batch state.
            with _rollback_guard():
                for k in key_list:
                    self.index.delete(k)
            raise
        try:
            log_insert_batch(self.wal, key_list, value_list)
        except BaseException:
            with _rollback_guard():
                for k in key_list:
                    self.index.delete(k)  # roll back the whole batch
            raise
        self._after_logged_record()

    def delete_batch(self, keys: "Sequence[Key]") -> list[bool]:
        """Batch delete; one bulk WAL record covering the removed keys.

        The peek capturing rollback values is counter-neutral, the apply
        is ``index.delete_batch``, and the single
        DELETE_BATCH frame logs only the keys that were actually present.
        A mid-apply or append failure reinserts every key the batch had
        removed (with its peeked value) before propagating.
        """
        key_list = [float(k) for k in keys]
        if not key_list:
            return []
        old_values = self.index.peek_batch(key_list)
        try:
            out = self.index.delete_batch(key_list)
        except BaseException:
            with _rollback_guard():
                for k, v in zip(key_list, old_values):
                    if v is not None and self.index.peek(k) is None:
                        self.index.insert(k, v)
            raise
        removed = [k for k, present in zip(key_list, out) if present]
        if not removed:
            return out
        try:
            log_delete_batch(self.wal, removed)
        except BaseException:
            with _rollback_guard():
                for k, present, v in zip(key_list, out, old_values):
                    if present:
                        self.index.insert(k, v)  # roll back the batch
            raise
        self._after_logged_record()
        return out

    def _after_logged_record(self) -> None:
        if self.checkpoint_every_records is None:
            return
        self._records_since_checkpoint += 1
        if self._records_since_checkpoint >= self.checkpoint_every_records:
            self.checkpoint()

    # -- durability controls -------------------------------------------------

    def sync(self) -> int:
        """Force-fsync pending WAL records; returns the durable LSN."""
        return self.wal.sync()

    def checkpoint(self) -> None:
        """Write a checkpoint now (snapshot + manifest + WAL truncation)."""
        self.checkpointer.checkpoint(self.index, self.wal)
        self._records_since_checkpoint = 0

    @property
    def last_lsn(self) -> int:
        """LSN of the latest logged (acked) record."""
        return self.wal.last_lsn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN guaranteed on disk (== last_lsn under ``always``)."""
        return self.wal.durable_lsn

    def wipe(self) -> None:
        """Delete the durability directory (testing helper)."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- read delegation -----------------------------------------------------

    def lookup(self, key: Key) -> Value | None:
        return self.index.lookup(key)

    def lookup_batch(self, keys: "Sequence[Key]") -> list[Value | None]:
        return self.index.lookup_batch(keys)

    def range_query(self, low: Key, high: Key) -> list[tuple[Key, Value]]:
        return self.index.range_query(low, high)

    def items(self) -> Iterator[tuple[Key, Value]]:
        return self.index.items()

    def __len__(self) -> int:
        return len(self.index)

    @property
    def counters(self) -> Counters:
        return self.index.counters

    def verify_integrity(self) -> Any:
        return self.index.verify_integrity()
