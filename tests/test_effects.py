"""Unit tests for the interprocedural effect analysis (RL012–RL014).

Like ``test_callgraph.py``, everything builds from in-memory modules via
``ModuleContext.from_source`` — no files, no imports executed. The
fixture-driven exact-line tests live in ``test_repro_lint.py``; this file
exercises the analysis semantics directly: may-raise narrowing, witness
chains, counter-effect summaries, resource pairing, and the contract
registry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, compute_effects, get_rule, lint_paths
from repro.analysis.__main__ import main as lint_main
from repro.analysis.context import ModuleContext, ProjectContext
from repro.analysis.contracts import (
    CONTRACT_ATTR,
    KNOWN_CONTRACTS,
    curated_contracts_of,
    declared_contract,
)
from repro.analysis.effects import EXCLUDED_RAISES, EffectTable

FIXTURES = Path(__file__).parent / "lint_fixtures"


def project(*sources: tuple[str, str, str | None]) -> ProjectContext:
    return ProjectContext(
        modules=[
            ModuleContext.from_source(src, path=path, dotted=dotted)
            for path, src, dotted in sources
        ]
    )


def effects_of(source: str) -> EffectTable:
    """Effect table for one in-memory module registered as ``m``."""
    return compute_effects(project(("m.py", source, "m")).callgraph())


def raises_of(table: EffectTable, qname: str) -> set[str]:
    summary = table.effect_of(qname)
    assert summary is not None, f"{qname} not analyzed"
    return set(summary.raises)


class TestMayRaiseNarrowing:
    def test_unhandled_raise_escapes(self):
        table = effects_of("def f():\n    raise ValueError('x')\n")
        assert raises_of(table, "m.f") == {"ValueError"}

    def test_exact_handler_catches(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise ValueError('x')\n"
            "    except ValueError:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.f") == set()

    def test_base_class_handler_catches_subclass(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise FileNotFoundError('gone')\n"
            "    except OSError:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.f") == set()

    def test_subclass_handler_misses_base(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise OSError('io')\n"
            "    except FileNotFoundError:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.f") == {"OSError"}

    def test_except_exception_misses_keyboard_interrupt(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise KeyboardInterrupt\n"
            "    except Exception:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.f") == {"KeyboardInterrupt"}

    def test_contextlib_suppress_narrows(self):
        table = effects_of(
            "from contextlib import suppress\n"
            "def f(path):\n"
            "    with suppress(OSError):\n"
            "        return open(path).read()\n"
            "    return ''\n"
        )
        assert raises_of(table, "m.f") == set()

    def test_curated_external_call_raises(self):
        table = effects_of(
            "import os\ndef f(a, b):\n    os.replace(a, b)\n"
        )
        assert raises_of(table, "m.f") == {"OSError"}
        fact = table.effect_of("m.f").raises["OSError"]
        assert fact.origin == "call to os.replace()"
        assert fact.site == "m.py:3"

    def test_bare_raise_rethrows_caught_type(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise ValueError('x')\n"
            "    except ValueError:\n"
            "        raise\n"
        )
        assert raises_of(table, "m.f") == {"ValueError"}

    def test_raise_bound_var_rethrows_caught_type(self):
        table = effects_of(
            "def f():\n"
            "    try:\n"
            "        raise KeyError('x')\n"
            "    except KeyError as e:\n"
            "        raise e\n"
        )
        assert raises_of(table, "m.f") == {"KeyError"}

    def test_excluded_raises_never_tracked(self):
        table = effects_of(
            "def f():\n    raise NotImplementedError\n"
            "def g():\n    assert False\n    raise AssertionError\n"
        )
        assert raises_of(table, "m.f") == set()
        assert raises_of(table, "m.g") == set()
        assert EXCLUDED_RAISES >= {"NotImplementedError", "AssertionError"}

    def test_project_exception_hierarchy(self):
        table = effects_of(
            "class WALError(Exception):\n    pass\n"
            "class TornFrame(WALError):\n    pass\n"
            "def f():\n"
            "    try:\n"
            "        raise TornFrame('torn')\n"
            "    except WALError:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.f") == set()


class TestPropagation:
    def test_callee_raise_propagates_with_chain(self):
        table = effects_of(
            "def inner():\n    raise RuntimeError('deep')\n"
            "def outer():\n    return inner()\n"
        )
        fact = table.effect_of("m.outer").raises["RuntimeError"]
        assert fact.chain == ("m.outer", "m.inner")
        assert fact.chain_text() == "outer -> inner"
        assert fact.site == "m.py:2"

    def test_caller_handler_stops_propagation(self):
        table = effects_of(
            "def inner():\n    raise RuntimeError('deep')\n"
            "def outer():\n"
            "    try:\n"
            "        return inner()\n"
            "    except RuntimeError:\n"
            "        return 0\n"
        )
        assert raises_of(table, "m.outer") == set()

    def test_recursion_converges(self):
        table = effects_of(
            "def ping(n):\n"
            "    if n <= 0:\n"
            "        raise ValueError('done')\n"
            "    return pong(n - 1)\n"
            "def pong(n):\n"
            "    return ping(n)\n"
        )
        assert raises_of(table, "m.ping") == {"ValueError"}
        assert raises_of(table, "m.pong") == {"ValueError"}


class TestCounterEffects:
    SRC = (
        "class P:\n"
        "    def _touch(self, k):\n"
        "        self.counters.comparisons += 1\n"
        "        return k\n"
        "    def unbracketed(self, keys):\n"
        "        return [self._touch(k) for k in keys]\n"
        "    def bracketed(self, keys):\n"
        "        before = self.counters.snapshot()\n"
        "        try:\n"
        "            return [self._touch(k) for k in keys]\n"
        "        finally:\n"
        "            self.counters.restore(before)\n"
    )

    def test_direct_and_transitive_mutation(self):
        table = effects_of(self.SRC)
        assert table.effect_of("m.P._touch").counter_mutates
        outer = table.effect_of("m.P.unbracketed")
        assert outer.counter_mutates
        assert outer.counter_fact.chain == ("m.P.unbracketed", "m.P._touch")
        assert "comparisons" in outer.counter_fact.origin

    def test_bracketed_call_is_neutral(self):
        table = effects_of(self.SRC)
        assert not table.effect_of("m.P.bracketed").counter_mutates


class TestResourcePairing:
    def test_unreleased_open_is_flagged(self):
        table = effects_of(
            "def f(path):\n"
            "    handle = open(path)\n"
            "    data = handle.read()\n"
            "    return len(data)\n"
        )
        (fact,) = table.effect_of("m.f").resources
        assert fact.name == "handle"
        assert fact.line == 2
        assert "never released" in fact.reason

    def test_finally_release_is_clean(self):
        table = effects_of(
            "def f(path):\n"
            "    handle = open(path)\n"
            "    try:\n"
            "        return handle.read()\n"
            "    finally:\n"
            "        handle.close()\n"
        )
        assert table.effect_of("m.f").resources == ()


class TestContracts:
    def test_unknown_contract_rejected_at_decoration(self):
        with pytest.raises(ValueError, match="no_rise"):
            declared_contract("no_rise")

    def test_decorator_is_a_runtime_noop_marker(self):
        @declared_contract("no_raise", "counter_neutral")
        def f():
            return 1

        assert f() == 1
        assert getattr(f, CONTRACT_ATTR) == ("no_raise", "counter_neutral")

    def test_curated_surfaces(self):
        assert "counter_neutral" in curated_contracts_of("repro.obs.trace.event")
        assert "counter_neutral" in curated_contracts_of("x.LeakyIndex.verify_order")
        assert "no_raise" in curated_contracts_of("a.B.verify_integrity")
        assert curated_contracts_of("repro.core.node.split") == set()
        assert set(KNOWN_CONTRACTS) == {
            "no_raise",
            "counter_neutral",
            "releases_resources",
        }


class TestWitnessChains:
    def test_every_rl012_finding_names_a_path(self):
        report = lint_paths(
            [FIXTURES / "rl012_bad.py"], rules=[get_rule("RL012")]
        )
        assert report.findings
        for finding in report.findings:
            assert "(path " in finding.message
            assert " at " in finding.message

    def test_rl013_findings_name_a_path(self):
        report = lint_paths(
            [FIXTURES / "rl013_bad.py"], rules=[get_rule("RL013")]
        )
        assert report.findings
        for finding in report.findings:
            assert "(path " in finding.message


class TestEffectsArtifact:
    def test_cli_effects_artifact_schema(self, tmp_path, capsys):
        out = tmp_path / "effects.json"
        code = lint_main(
            [str(FIXTURES / "rl012_bad.py"), "--effects", str(out)]
        )
        capsys.readouterr()
        assert code == 1  # the bad fixture still fails the lint
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-lint-effects/v1"
        assert payload["functions_analyzed"] > 0
        statuses = payload["contracts"]["no_raise"]
        assert set(statuses.values()) == {"violated"}
        # Every reported function entry is auditable: site + chain.
        assert payload["functions"]
        for entry in payload["functions"].values():
            for fact in entry["raises"].values():
                assert set(fact) == {"site", "origin", "chain"}
                assert fact["chain"]

    def test_proven_status_for_clean_surfaces(self, tmp_path, capsys):
        out = tmp_path / "effects.json"
        assert (
            lint_main([str(FIXTURES / "rl012_good.py"), "--effects", str(out)])
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        statuses = payload["contracts"]["no_raise"]
        assert statuses and set(statuses.values()) == {"proven"}

    def test_src_no_raise_surfaces_all_proven(self):
        src = Path(__file__).parent.parent / "src"
        report = lint_paths([src])
        table = report.effects
        assert table is not None
        statuses = table.to_dict()["contracts"]["no_raise"]
        proven = {q for q, s in statuses.items() if s == "proven"}
        assert proven == set(statuses)
        assert any(q.endswith("RecoveryManager.recover") for q in proven)
        assert any(q.endswith("wal.scan") for q in proven)


class TestFixtureSelfCheck:
    def test_self_check_passes_on_repo_fixtures(self, capsys):
        assert (
            lint_main(["--self-check-fixtures", str(FIXTURES)]) == 0
        )
        out = capsys.readouterr().out
        assert "RL012" in out and "RL014" in out

    def test_self_check_fails_on_missing_fixture(self, tmp_path, capsys):
        (tmp_path / "rl001_bad.py").write_text("x = 1\n")
        assert lint_main(["--self-check-fixtures", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "MISSING" in out

    def test_self_check_fails_on_fixture_of_unregistered_rule(self, tmp_path, capsys):
        # A full fixture set for every registered rule, plus a leftover
        # pair for a rule id that is not registered (a deleted rule).
        for rule in all_rules():
            rid = rule.rule_id.lower()
            (tmp_path / f"{rid}_bad.py").write_text("x = 1\n")
            (tmp_path / f"{rid}_good.py").write_text("x = 1\n")
        assert lint_main(["--self-check-fixtures", str(tmp_path)]) == 0
        capsys.readouterr()
        (tmp_path / "rl099_bad.py").write_text("x = 1\n")
        (tmp_path / "rl099_good.py").write_text("x = 1\n")
        assert lint_main(["--self-check-fixtures", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RL099" in captured.out + captured.err
