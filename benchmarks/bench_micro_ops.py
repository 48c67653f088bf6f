"""Per-operation micro-benchmarks (pytest-benchmark round statistics).

These give honest per-op Python timings for every index — the numbers the
README quotes — complementing the experiment-level benches.
"""

import numpy as np
import pytest

from repro.baselines import INDEX_REGISTRY, UPDATABLE_INDEXES
from repro.datasets import load as load_dataset

N_KEYS = 20_000
RNG_SEED = 0  # probe/permutation stream; vary per sweep if needed


@pytest.fixture(scope="module")
def face_keys():
    return load_dataset("FACE", N_KEYS, seed=1)


@pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
def test_lookup_latency(benchmark, name, face_keys):
    index = INDEX_REGISTRY[name]()
    index.bulk_load(face_keys)
    rng = np.random.default_rng(RNG_SEED)
    probes = [float(k) for k in rng.choice(face_keys, 256)]
    state = {"i": 0}

    def one_lookup():
        state["i"] = (state["i"] + 1) % len(probes)
        return index.lookup(probes[state["i"]])

    benchmark(one_lookup)


@pytest.mark.parametrize("name", sorted(UPDATABLE_INDEXES))
def test_insert_delete_cycle(benchmark, name, face_keys):
    index = INDEX_REGISTRY[name]()
    rng = np.random.default_rng(RNG_SEED)
    perm = rng.permutation(face_keys)
    index.bulk_load(np.sort(perm[: N_KEYS // 2]))
    pool = [float(k) for k in perm[N_KEYS // 2 :]]
    state = {"i": 0}

    def insert_then_delete():
        key = pool[state["i"] % len(pool)]
        state["i"] += 1
        index.insert(key)
        index.delete(key)

    benchmark(insert_then_delete)


@pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
def test_lookup_batch_throughput(benchmark, name, face_keys):
    """Batch-API lookup over 1024-key vectors (PR-4 batch layer).

    Indexes without a vectorised override run the scalar-loop default, so
    this row doubles as a conformance check; ``python -m
    repro.bench.floors`` gates the batch-vs-scalar speedups.
    """
    index = INDEX_REGISTRY[name]()
    index.bulk_load(face_keys)
    rng = np.random.default_rng(RNG_SEED)
    queries = rng.choice(face_keys, 1024)
    index.lookup_batch(queries)  # warm any plan/cache builds

    benchmark(lambda: index.lookup_batch(queries))


@pytest.mark.parametrize("name", sorted(UPDATABLE_INDEXES))
def test_insert_batch_throughput(benchmark, name, face_keys):
    """Batch-API insert of 1024 fresh keys, then batch delete to reset.

    Only the ``insert_batch`` call is timed (the delete runs between
    rounds); ``python -m repro.bench.floors`` gates Chameleon's
    batch-vs-scalar write speedups.
    """
    index = INDEX_REGISTRY[name]()
    rng = np.random.default_rng(RNG_SEED)
    perm = rng.permutation(face_keys)
    index.bulk_load(np.sort(perm[: N_KEYS // 2]))
    batch = np.sort(perm[N_KEYS // 2 : N_KEYS // 2 + 1024])
    index.lookup_batch(batch)  # warm any plan/cache builds

    def insert_batch():
        index.insert_batch(batch)

    def reset():
        index.delete_batch(batch)
        return (), {}

    benchmark.pedantic(insert_batch, setup=reset, rounds=30)


@pytest.mark.parametrize("name", sorted(UPDATABLE_INDEXES))
def test_delete_batch_throughput(benchmark, name, face_keys):
    """Batch-API delete of 1024 present keys (re-inserted between rounds)."""
    index = INDEX_REGISTRY[name]()
    index.bulk_load(face_keys)
    rng = np.random.default_rng(RNG_SEED)
    batch = np.sort(rng.choice(face_keys, 1024, replace=False))
    index.lookup_batch(batch)  # warm any plan/cache builds
    state = {"first": True}

    def delete_batch():
        index.delete_batch(batch)

    def reset():
        if state["first"]:
            state["first"] = False
        else:
            index.insert_batch(batch)
        return (), {}

    benchmark.pedantic(delete_batch, setup=reset, rounds=30)


@pytest.mark.parametrize("name", sorted(INDEX_REGISTRY))
def test_bulk_load_time(benchmark, name, face_keys):
    small = face_keys[: N_KEYS // 4]

    def build():
        index = INDEX_REGISTRY[name]()
        index.bulk_load(small)
        return index

    benchmark.pedantic(build, rounds=1, iterations=1)
