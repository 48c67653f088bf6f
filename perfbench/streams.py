"""Workload definitions and their seeded op streams.

Each workload's dataset, and its split into loaded keys and a pool of fresh
keys from the same distribution, is fixed (``DATA_SEED``), so every run
builds the same index and runs differ in what is done to it. ``--seed``
drives the op stream: the order in which loaded keys are deleted, the order
in which pool keys are inserted, and which keys are read. The stream is
generated before any clock starts, together with the answer the index must
give to each call.

The bookkeeping that makes the answers cheap to know is one sequence
``W = D ++ P``: ``D`` is the loaded keys in delete order and ``P`` the pool
in insert order. Inserts take the next key of ``P``, deletes take the next
key of ``W``, so at any moment the live set is the contiguous slice
``W[deleted : n_load + inserted]`` and every read's expected value follows
from two counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import registry

#: Seed of every workload's dataset and of its loaded/pool split.
DATA_SEED = 0

#: Fresh pool keys kept beyond the last insert so absent-key reads always
#: have keys to pick from that are guaranteed not to be live.
ABSENT_WINDOW = 4096

#: Zipfian skew of the hot-key reads (YCSB's constant).
ZIPF_THETA = 0.99


@dataclass(frozen=True)
class Workload:
    """One closed-loop, single-client workload.

    A round is ``cycles`` scalar cycles followed by one batch trio. A cycle
    is ``reads_per_cycle`` lookups with one insert in their middle and one
    delete at their end (two reads make the Fig. 11 write-ratio-0.5 cycle
    read, insert, read, delete). The trio is ``lookup_batch``,
    ``delete_batch`` and ``insert_batch``; deletes and inserts per batch are
    equal, so the live key count returns to ``n_load`` after every round.
    """

    name: str
    dataset: str
    n_load: int
    durable: bool
    obs: bool
    cycles: int
    reads_per_cycle: int
    read_dist: str
    absent_share: float
    batch_lookup: int
    batch_write: int
    #: Fresh keys available to inserts. It bounds the stream's length, which
    #: is several times what a timed phase of ten seconds consumes today.
    pool_keys: int

    @property
    def writes_per_round(self) -> int:
        return self.cycles + self.batch_write

    @property
    def scalar_calls_per_round(self) -> int:
        return self.cycles * (self.reads_per_cycle + 2)

    @property
    def keys_per_round(self) -> int:
        return self.scalar_calls_per_round + self.batch_lookup + 2 * self.batch_write


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="face-rw-scalar",
            dataset="FACE",
            n_load=100_000,
            durable=True,
            obs=True,
            cycles=128,
            reads_per_cycle=2,
            read_dist="uniform",
            absent_share=0.0,
            batch_lookup=64,
            batch_write=32,
            pool_keys=300_000,
        ),
        Workload(
            name="logn-batch-locked",
            dataset="LOGN",
            n_load=100_000,
            durable=True,
            obs=False,
            cycles=16,
            reads_per_cycle=4,
            read_dist="zipf",
            absent_share=0.0,
            batch_lookup=1024,
            batch_write=512,
            pool_keys=300_000,
        ),
        Workload(
            name="uden-embedded",
            dataset="UDEN",
            n_load=1_000_000,
            durable=False,
            obs=False,
            cycles=32,
            reads_per_cycle=16,
            read_dist="zipf",
            absent_share=0.1,
            batch_lookup=1024,
            batch_write=128,
            pool_keys=250_000,
        ),
    )
}


@dataclass
class Round:
    """One round's calls, as Python lists so the timed loop only indexes."""

    reads: list[float]
    read_expect: list[float | None]
    inserts: list[float]
    deletes: list[float]
    batch_lookup: np.ndarray
    #: Expected values; NaN marks a key that must be absent.
    batch_lookup_expect: np.ndarray
    batch_delete: np.ndarray
    batch_insert: np.ndarray


@dataclass
class Stream:
    workload: Workload
    load_keys: np.ndarray
    warm_keys: np.ndarray
    rounds: list[Round]
    #: ``D ++ P``; see the module docstring.
    order: np.ndarray

    def live_keys(self, rounds_done: int) -> np.ndarray:
        """Sorted live key set after the first ``rounds_done`` rounds."""
        step = rounds_done * self.workload.writes_per_round
        live = self.order[step : self.workload.n_load + step]
        return np.sort(live)


def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def build_stream(workload: Workload, seed: int) -> Stream:
    """The loaded keys and every round the pool allows, for one seed."""
    w = workload
    n = w.n_load
    keys = registry.load(w.dataset, n + w.pool_keys, seed=DATA_SEED)
    split = np.random.default_rng(DATA_SEED).permutation(keys.size)
    loaded, pool = keys[split[:n]], keys[split[n:]]
    rng = np.random.default_rng(seed)
    order = np.concatenate([loaded[rng.permutation(n)], pool[rng.permutation(pool.size)]])
    n_rounds = (w.pool_keys - ABSENT_WINDOW) // w.writes_per_round

    # Per-position state offsets within one round: how many inserts and
    # deletes precede each read, in execution order.
    a = (w.reads_per_cycle + 1) // 2
    b = w.reads_per_cycle - a
    ins_off = np.tile(np.r_[np.zeros(a), np.ones(b)], w.cycles) + np.repeat(
        np.arange(w.cycles), w.reads_per_cycle
    )
    del_off = np.repeat(np.arange(w.cycles), w.reads_per_cycle)
    ins_off = np.r_[ins_off, np.full(w.batch_lookup, w.cycles)].astype(np.int64)
    del_off = np.r_[del_off, np.full(w.batch_lookup, w.cycles)].astype(np.int64)
    base = (np.arange(n_rounds, dtype=np.int64) * w.writes_per_round)[:, None]
    ins_at = base + ins_off[None, :]
    del_at = base + del_off[None, :]
    # The live slice of W at each read is W[del_at : n + ins_at].
    live_size = n + ins_at - del_at

    shape = ins_at.shape
    if w.read_dist == "zipf":
        ranks = np.searchsorted(_zipf_cdf(n, ZIPF_THETA), rng.random(shape))
        scramble = rng.permutation(n)
        pos = del_at + scramble[np.minimum(ranks, n - 1)] % live_size
    else:
        pos = del_at + (rng.random(shape) * live_size).astype(np.int64)
    read_keys = order[pos]
    absent = rng.random(shape) < w.absent_share
    if absent.any():
        # Pool keys not inserted yet at the moment of the read.
        ahead = rng.integers(0, ABSENT_WINDOW, size=shape)
        read_keys = np.where(absent, order[n + ins_at + ahead], read_keys)

    n_reads = w.cycles * w.reads_per_cycle
    rounds: list[Round] = []
    for r in range(n_rounds):
        step = r * w.writes_per_round
        keys_r = read_keys[r]
        key_list = keys_r.tolist()
        expect_r = [None if x else k for k, x in zip(key_list, absent[r].tolist())]
        after_cycles = step + w.cycles
        rounds.append(
            Round(
                reads=key_list[:n_reads],
                read_expect=expect_r[:n_reads],
                inserts=order[n + step : n + after_cycles].tolist(),
                deletes=order[step:after_cycles].tolist(),
                batch_lookup=np.ascontiguousarray(keys_r[n_reads:]),
                batch_lookup_expect=np.where(absent[r, n_reads:], np.nan, keys_r[n_reads:]),
                batch_delete=order[after_cycles : after_cycles + w.batch_write].copy(),
                batch_insert=order[
                    n + after_cycles : n + after_cycles + w.batch_write
                ].copy(),
            )
        )
    return Stream(
        workload=w,
        load_keys=np.sort(loaded),
        warm_keys=order[: w.batch_lookup].copy(),
        rounds=rounds,
        order=order,
    )
