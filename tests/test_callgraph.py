"""Unit tests for the project call graph and the effect summaries' may-block,
lock and counter facts.

Everything here builds graphs from in-memory modules via
``ModuleContext.from_source`` — no files, no imports executed — mirroring
how the lint engine hands parsed modules to ``CallGraph.build``.
"""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import MAX_NAME_CANDIDATES, CallGraph
from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.effects import compute_effects


def project(*sources: tuple[str, str, str | None]) -> ProjectContext:
    """Build a ProjectContext from (path, source, dotted) triples."""
    return ProjectContext(
        modules=[
            ModuleContext.from_source(src, path=path, dotted=dotted)
            for path, src, dotted in sources
        ]
    )


class TestGraphConstruction:
    def test_module_functions_and_methods_registered(self):
        ctx = project(
            (
                "m.py",
                "def free():\n"
                "    pass\n"
                "class C:\n"
                "    def method(self):\n"
                "        pass\n",
                "m",
            )
        )
        graph = ctx.callgraph()
        assert set(graph.functions) == {"m.free", "m.C.method"}
        assert graph.functions["m.C.method"].cls == "C"
        assert graph.by_name["method"] == ["m.C.method"]

    def test_local_call_edge(self):
        ctx = project(
            ("m.py", "def g():\n    pass\ndef f():\n    g()\n", "m")
        )
        assert ctx.callgraph().edges["m.f"] == {"m.g"}

    def test_self_method_edge_through_base_class(self):
        ctx = project(
            (
                "m.py",
                "class Base:\n"
                "    def helper(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def run(self):\n"
                "        self.helper()\n",
                "m",
            )
        )
        assert ctx.callgraph().edges["m.Child.run"] == {"m.Base.helper"}

    def test_constructor_binds_to_init(self):
        ctx = project(
            (
                "m.py",
                "class C:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "def make():\n"
                "    return C()\n",
                "m",
            )
        )
        assert ctx.callgraph().edges["m.make"] == {"m.C.__init__"}

    def test_constructing_a_context_manager_binds_enter_and_exit(self):
        ctx = project(
            (
                "m.py",
                "class Hold:\n"
                "    def __init__(self, counters):\n"
                "        self.counters = counters\n"
                "    def __enter__(self):\n"
                "        self.counters.lock_acquisitions += 1\n"
                "    def __exit__(self, *exc):\n"
                "        self.cond.wait()\n"
                "def make(counters):\n"
                "    return Hold(counters)\n"
                "class Mgr:\n"
                "    def query_lock(self, counters):\n"
                "        return Hold(counters)\n",
                "m",
            )
        )
        graph = ctx.callgraph()
        assert graph.edges["m.make"] == {
            "m.Hold.__init__", "m.Hold.__enter__", "m.Hold.__exit__"
        }
        table = compute_effects(graph)
        # A hold factory carries what entering and leaving the hold does,
        # as a @contextmanager generator's body did; a lock method stays
        # walled against the hold's sanctioned condition wait.
        assert table.effect_of("m.make").counter_mutates
        assert table.effect_of("m.make").may_block
        assert table.effect_of("m.Mgr.query_lock").counter_mutates
        assert not table.effect_of("m.Mgr.query_lock").may_block

    def test_cross_module_from_import(self):
        ctx = project(
            ("pkg/helpers.py", "def slow():\n    pass\n", "pkg.helpers"),
            (
                "pkg/store.py",
                "from .helpers import slow\ndef run():\n    slow()\n",
                "pkg.store",
            ),
        )
        assert ctx.callgraph().edges["pkg.store.run"] == {"pkg.helpers.slow"}

    def test_generic_names_stay_unresolved_past_the_cap(self):
        # One class per candidate, all defining `lookup`: one past the cap
        # the bare-attribute call must not be attributed to any of them.
        classes = "\n".join(
            f"class C{i}:\n    def lookup(self):\n        pass"
            for i in range(MAX_NAME_CANDIDATES + 1)
        )
        ctx = project(
            ("m.py", f"{classes}\ndef f(x):\n    x.lookup()\n", "m")
        )
        graph = ctx.callgraph()
        assert "m.f" not in graph.edges
        assert "lookup" in graph.unresolved["m.f"]


class TestTypedReceivers:
    def test_annotated_param_resolves_generic_name_past_the_cap(self):
        # The acceptance case: `lookup` is defined by more classes than
        # the name-match cap allows, but an annotated receiver pins the
        # owner exactly, so the edge lands on the right class anyway.
        classes = "\n".join(
            f"class C{i}:\n    def lookup(self):\n        pass"
            for i in range(MAX_NAME_CANDIDATES + 2)
        )
        ctx = project(
            ("m.py", f"{classes}\ndef f(x: C3):\n    x.lookup()\n", "m")
        )
        assert ctx.callgraph().edges["m.f"] == {"m.C3.lookup"}

    def test_annotated_param_disambiguates_insert(self):
        ctx = project(
            (
                "m.py",
                "class Btree:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "class Hash:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "def g(t: Btree):\n"
                "    t.insert(1)\n",
                "m",
            )
        )
        assert ctx.callgraph().edges["m.g"] == {"m.Btree.insert"}

    def test_local_constructor_assignment_types_the_receiver(self):
        ctx = project(
            (
                "m.py",
                "class Btree:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "class Hash:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "def f():\n"
                "    idx = Btree()\n"
                "    idx.insert(1)\n",
                "m",
            )
        )
        assert "m.Btree.insert" in ctx.callgraph().edges["m.f"]
        assert "m.Hash.insert" not in ctx.callgraph().edges["m.f"]

    def test_return_annotation_propagates_to_local(self):
        ctx = project(
            (
                "m.py",
                "class Btree:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "class Hash:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "def make() -> Btree:\n"
                "    return Btree()\n"
                "def f():\n"
                "    t = make()\n"
                "    t.insert(1)\n",
                "m",
            )
        )
        edges = ctx.callgraph().edges["m.f"]
        assert "m.make" in edges
        assert "m.Btree.insert" in edges
        assert "m.Hash.insert" not in edges

    def test_self_attribute_assignment_types_the_receiver(self):
        ctx = project(
            (
                "m.py",
                "class Btree:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "class Hash:\n"
                "    def insert(self, k):\n"
                "        pass\n"
                "class Store:\n"
                "    def __init__(self):\n"
                "        self.tree = Btree()\n"
                "    def put(self, k):\n"
                "        self.tree.insert(k)\n",
                "m",
            )
        )
        assert ctx.callgraph().edges["m.Store.put"] == {"m.Btree.insert"}

    def test_externally_typed_receiver_classifies_external(self):
        ctx = project(
            (
                "m.py",
                "import threading\n"
                "def acquire(lock: threading.Lock):\n"
                "    lock.acquire()\n",
                "m",
            )
        )
        graph = ctx.callgraph()
        (site,) = graph.sites["m"]
        assert site.kind == "external"
        assert "m.acquire" not in graph.unresolved


class TestHigherOrder:
    def test_project_decorator_creates_edge(self):
        ctx = project(
            (
                "m.py",
                "def traced(fn):\n"
                "    def wrapper(*a, **k):\n"
                "        return fn(*a, **k)\n"
                "    return wrapper\n"
                "@traced\n"
                "def op():\n"
                "    pass\n",
                "m",
            )
        )
        assert "m.traced" in ctx.callgraph().edges["m.op"]

    def test_callable_stored_on_attribute_flows_to_call_site(self):
        ctx = project(
            (
                "m.py",
                "def slow_flush():\n"
                "    pass\n"
                "class Writer:\n"
                "    def __init__(self, hook):\n"
                "        self.hook = hook\n"
                "    def flush(self):\n"
                "        self.hook()\n"
                "def build():\n"
                "    return Writer(slow_flush)\n",
                "m",
            )
        )
        assert "m.slow_flush" in ctx.callgraph().edges["m.Writer.flush"]

    def test_callable_passed_to_invoking_param_creates_edge(self):
        ctx = project(
            (
                "m.py",
                "def slow():\n"
                "    pass\n"
                "def run_hook(fn):\n"
                "    fn()\n"
                "def caller():\n"
                "    run_hook(slow)\n",
                "m",
            )
        )
        edges = ctx.callgraph().edges
        assert "m.slow" in edges["m.run_hook"]
        assert "m.run_hook" in edges["m.caller"]

    def test_thread_target_is_a_non_invoking_sink(self):
        ctx = project(
            (
                "m.py",
                "import threading\n"
                "def slow():\n"
                "    pass\n"
                "def spawn():\n"
                "    threading.Thread(target=slow).start()\n",
                "m",
            )
        )
        assert "m.slow" not in ctx.callgraph().edges.get("m.spawn", set())


class TestLockSites:
    def test_protocol_lock_site_recorded(self):
        ctx = project(
            (
                "m.py",
                "def swap(mgr, ids):\n"
                "    with mgr.retrain_lock(ids):\n"
                "        pass\n",
                "m",
            )
        )
        (site,) = ctx.callgraph().lock_sites["m.swap"]
        assert site.lock == "interval.retrain_lock"
        assert site.line <= site.end_line

    def test_typed_mutex_attribute_gets_class_scoped_identity(self):
        ctx = project(
            (
                "m.py",
                "import threading\n"
                "class Wal:\n"
                "    def __init__(self):\n"
                "        self._mutex = threading.Lock()\n"
                "    def append(self):\n"
                "        with self._mutex:\n"
                "            pass\n",
                "m",
            )
        )
        (site,) = ctx.callgraph().lock_sites["m.Wal.append"]
        assert site.lock == "m.Wal._mutex"


class TestCoverage:
    def test_sites_classified_and_rate_computed(self):
        classes = "\n".join(
            f"class C{i}:\n    def lookup(self):\n        pass"
            for i in range(MAX_NAME_CANDIDATES + 1)
        )
        ctx = project(
            (
                "m.py",
                "import numpy as np\n"
                f"{classes}\n"
                "def helper():\n"
                "    pass\n"
                "def f(x):\n"
                "    helper()\n"
                "    np.sum([1])\n"
                "    x.lookup()\n",
                "m",
            )
        )
        coverage = ctx.coverage()
        entry = coverage.modules["m"]
        assert entry.project >= 1
        assert entry.external >= 1
        assert entry.unresolved == 1
        ((line, caller, name),) = entry.unresolved_sites
        assert (caller, name) == ("m.f", "lookup")
        assert 0.0 < coverage.rate < 1.0
        doc = coverage.to_dict()
        assert doc["schema"] == "repro-lint-coverage/v1"
        assert doc["totals"]["call_sites"] == entry.total


class TestSummaries:
    """May-block, lock and counter facts of the effect summaries."""

    def test_direct_and_transitive_blocking(self):
        ctx = project(
            (
                "m.py",
                "import time\n"
                "def nap():\n"
                "    time.sleep(1)\n"
                "def relay():\n"
                "    nap()\n"
                "def outer():\n"
                "    relay()\n"
                "def clean():\n"
                "    pass\n",
                "m",
            )
        )
        table = compute_effects(ctx.callgraph())
        assert table.effect_of("m.nap").block_fact.chain == ("m.nap",)
        assert table.effect_of("m.relay").may_block
        assert table.effect_of("m.outer").may_block
        assert table.effect_of("m.outer").block_fact.chain == (
            "m.outer",
            "m.relay",
            "m.nap",
        )
        assert not table.effect_of("m.clean").may_block

    def test_recursion_reaches_fixpoint(self):
        ctx = project(
            (
                "m.py",
                "import time\n"
                "def a(n):\n"
                "    b(n)\n"
                "def b(n):\n"
                "    a(n)\n"
                "    time.sleep(1)\n",
                "m",
            )
        )
        table = compute_effects(ctx.callgraph())
        assert table.effect_of("m.a").may_block
        assert table.effect_of("m.b").may_block

    def test_retrain_lock_acquisition_is_blocking(self):
        ctx = project(
            (
                "m.py",
                "def swap(mgr, ids):\n"
                "    with mgr.retrain_lock(ids):\n"
                "        pass\n",
                "m",
            )
        )
        summary = compute_effects(ctx.callgraph()).effect_of("m.swap")
        assert "interval.retrain_lock" in summary.acquires_locks
        assert summary.may_block
        assert summary.block_fact.reason == "retrain_lock acquisition"

    def test_counter_mutation_direct_and_transitive(self):
        ctx = project(
            (
                "m.py",
                "def bump(counters):\n"
                "    counters.comparisons += 1\n"
                "def probe(counters):\n"
                "    bump(counters)\n",
                "m",
            )
        )
        table = compute_effects(ctx.callgraph())
        assert table.effect_of("m.bump").counter_mutates
        assert table.effect_of("m.probe").counter_mutates
        assert table.effect_of("m.probe").counter_fact.chain == ("m.probe", "m.bump")

    def test_faults_module_is_exempt_from_blocking(self):
        ctx = project(
            (
                "src/repro/robustness/faults.py",
                "import time\ndef fire():\n    time.sleep(1)\n",
                "repro.robustness.faults",
            )
        )
        table = compute_effects(ctx.callgraph())
        assert not table.effect_of("repro.robustness.faults.fire").may_block

    def test_durability_module_is_a_wall_for_propagated_blocking(self):
        # The WAL fsyncs outside the wall; the durability wrapper that calls
        # it, and an index path that resolves into the wrapper by name, must
        # not receive may-block through the call chain.
        ctx = project(
            (
                "src/repro/robustness/wal.py",
                "import os\ndef sync(fd):\n    os.fsync(fd)\n",
                "repro.robustness.wal",
            ),
            (
                "src/repro/robustness/durability.py",
                "from repro.robustness.wal import sync\n"
                "def commit(fd):\n"
                "    sync(fd)\n",
                "repro.robustness.durability",
            ),
            (
                "m.py",
                "from repro.robustness.durability import commit\n"
                "def insert(fd):\n"
                "    commit(fd)\n",
                "m",
            ),
        )
        table = compute_effects(ctx.callgraph())
        assert table.effect_of("repro.robustness.wal.sync").may_block
        assert not table.effect_of("repro.robustness.durability.commit").may_block
        assert not table.effect_of("m.insert").may_block

    def test_lock_manager_methods_are_exempt(self):
        # The protocol's own condition waits are sanctioned blocking.
        ctx = project(
            (
                "m.py",
                "class Mgr:\n"
                "    def query_lock(self, ids):\n"
                "        self.cond.wait()\n",
                "m",
            )
        )
        table = compute_effects(ctx.callgraph())
        assert not table.effect_of("m.Mgr.query_lock").may_block


class TestRealProject:
    @pytest.fixture(scope="class")
    def src_project(self):
        from pathlib import Path

        src = Path(__file__).parent.parent / "src"
        modules = [
            ModuleContext.from_path(p) for p in sorted(src.rglob("*.py"))
        ]
        return ProjectContext(modules=modules)

    def test_retrainer_sweep_may_block(self, src_project):
        table = src_project.effects()
        assert table.effect_of("repro.core.retrainer.RetrainingThread.sweep_once").may_block

    def test_index_lookup_does_not_block(self, src_project):
        table = src_project.effects()
        assert not table.effect_of("repro.core.index.ChameleonIndex.lookup").may_block

    def test_lock_manager_counter_mutation_recorded(self, src_project):
        # query_lock bumps counters.lock_acquisitions — a direct mutation
        # the summary must record even though the function itself is
        # exempt from *blocking* facts.
        table = src_project.effects()
        summary = table.effect_of("repro.core.interval_lock.IntervalLockManager.query_lock")
        assert summary is not None and summary.counter_mutates
        assert not summary.may_block  # protocol exemption
