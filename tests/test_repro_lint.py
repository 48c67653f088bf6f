"""Tests for repro-lint: every rule, the engine, suppression, and the CLI.

Fixture modules live in ``tests/lint_fixtures/``; each known-bad line
carries an ``# expect[RLxxx]`` marker, and the tests assert the finding set
matches the marker set *exactly* (same rule, same line) — no extra
findings, none missing.
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

from repro.analysis import (
    Severity,
    all_rules,
    get_rule,
    lint_paths,
    lint_source,
)
from repro.analysis.__main__ import main as lint_main
from repro.analysis.context import ModuleContext, dotted_name
from repro.analysis.reporting import render_github, render_json, render_text
from repro.baselines.interfaces import BaseIndex

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src"

_EXPECT = re.compile(r"#\s*expect\[(RL\d{3})\]")


def expected_markers(path: Path) -> set[tuple[str, int]]:
    """(rule_id, line) pairs tagged ``# expect[RLxxx]`` in a fixture."""
    out = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        for match in _EXPECT.finditer(text):
            out.add((match.group(1), lineno))
    return out


def findings_for(path: Path, rule_id: str) -> set[tuple[str, int]]:
    report = lint_paths([path], rules=[get_rule(rule_id)])
    return {(f.rule_id, f.line) for f in report.findings}


@pytest.mark.parametrize(
    "rule_id, bad, good",
    [
        ("RL001", "rl001_bad.py", "rl001_good.py"),
        ("RL001", "rl001_interproc_bad.py", "rl001_interproc_good.py"),
        ("RL001", "rl001_decorator_bad.py", "rl001_decorator_good.py"),
        ("RL001", "rl001_hook_bad.py", "rl001_hook_good.py"),
        ("RL002", "rl002_bad.py", "rl002_good.py"),
        ("RL002", "rl002_batch_bad.py", "rl002_batch_good.py"),
        ("RL003", "rl003_bad.py", "rl003_good.py"),
        ("RL004", "rl004_bad.py", "rl004_good.py"),
        ("RL005", "baselines/rl005_bad.py", "baselines/rl005_good.py"),
        ("RL005", "baselines/rl005_batch_bad.py", "baselines/rl005_batch_good.py"),
        ("RL006", "rl006_bad.py", "rl006_good.py"),
        ("RL008", "core/rl008_bad.py", "core/rl008_good.py"),
        ("RL009", "rl009_bad.py", "rl009_good.py"),
        ("RL012", "rl012_bad.py", "rl012_good.py"),
        ("RL012", "rl012_flight_bad.py", "rl012_flight_good.py"),
        ("RL013", "rl013_bad.py", "rl013_good.py"),
        ("RL013", "rl013_timeline_bad.py", "rl013_timeline_good.py"),
        ("RL013", "rl013_verify_bad.py", "rl013_verify_good.py"),
        (
            "RL013",
            "core/rl013_fused_insert_bad.py",
            "core/rl013_fused_insert_good.py",
        ),
        ("RL014", "durability/rl014_bad.py", "durability/rl014_good.py"),
    ],
)
def test_rule_detects_exactly_the_marked_lines(rule_id, bad, good):
    bad_path = FIXTURES / bad
    markers = expected_markers(bad_path)
    assert markers, f"fixture {bad} has no expect markers"
    assert findings_for(bad_path, rule_id) == markers
    assert findings_for(FIXTURES / good, rule_id) == set()


def test_fourteen_rules_registered():
    ids = [r.rule_id for r in all_rules()]
    assert ids == [
        "RL001",
        "RL002",
        "RL003",
        "RL004",
        "RL005",
        "RL006",
        "RL008",
        "RL009",
        "RL012",
        "RL013",
        "RL014",
    ]
    for rule in all_rules():
        assert rule.name and rule.description
        assert rule.severity is Severity.ERROR


def test_cross_module_blocking_attributed():
    """RL001 follows a call into another module of the same lint run."""
    report = lint_paths([FIXTURES / "xmod"], rules=[get_rule("RL001")])
    found = {(f.rule_id, f.line) for f in report.findings}
    assert found == expected_markers(FIXTURES / "xmod" / "store.py")
    (finding,) = report.findings
    assert "slow_touch" in finding.message
    assert "helpers.py" in finding.message  # witness names the other module


def test_exact_location_of_a_finding():
    source = "def f(ids, m, c):\n    h = m.query_lock(ids, c)\n    return h\n"
    report = lint_source(source, rules=[get_rule("RL001")])
    (finding,) = report.findings
    assert (finding.line, finding.col) == (2, 8)
    assert finding.rule_id == "RL001"
    assert finding.severity is Severity.ERROR


def test_suppression_pragma_silences_findings():
    report = lint_paths([FIXTURES / "suppressed.py"])
    assert report.findings == []
    assert report.suppressed == 2


def test_suppression_is_rule_specific():
    source = "import numpy as np\nr = np.random.default_rng(3)  # repro-lint: disable=RL001\n"
    report = lint_source(source, rules=[get_rule("RL006")])
    assert len(report.findings) == 1  # wrong rule id: not suppressed


def test_src_tree_is_clean():
    report = lint_paths([SRC])
    assert report.errors() == [], render_text(report)
    assert report.files_scanned > 60
    assert report.suppressed >= 1  # supervisor's mirror-stat pragma


def test_rl004_live_import_detects_abstract_class(monkeypatch):
    mod = types.ModuleType("repro.baselines._lint_probe")

    class GhostIndex(BaseIndex):
        pass

    GhostIndex.__module__ = mod.__name__
    mod.GhostIndex = GhostIndex
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    report = lint_source(
        "class GhostIndex:\n    pass\n",
        path="_lint_probe.py",
        dotted=mod.__name__,
        rules=[get_rule("RL004")],
    )
    messages = [f.message for f in report.findings]
    assert any("silently abstract" in m for m in messages)
    assert any("capabilities" in m for m in messages)


def test_dotted_name_resolution(tmp_path):
    pkg = tmp_path / "pkg" / "sub"
    pkg.mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text("x = 1\n")
    assert dotted_name(pkg / "mod.py") == "pkg.sub.mod"
    assert dotted_name(pkg / "__init__.py") == "pkg.sub"
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert dotted_name(loose) is None


def test_unparseable_file_reports_rl000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = lint_paths([bad])
    assert report.exit_code() == 1
    assert report.findings[0].rule_id == "RL000"


def test_json_report_schema():
    report = lint_paths([FIXTURES / "rl006_bad.py"])
    payload = json.loads(render_json(report))
    assert payload["version"] == 3
    assert payload["files_scanned"] == 1
    assert payload["summary"].get("RL006") == 4
    assert set(payload["timings"]) >= {"parse", "analyze", "rules", "total"}
    assert 0.0 <= payload["resolution"]["rate"] <= 1.0
    effects = payload["effects"]
    assert set(effects) >= {
        "functions_analyzed",
        "may_raise",
        "counter_mutating",
        "resource_findings",
        "declared_contracts",
    }
    assert effects["functions_analyzed"] > 0
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "severity", "message"}


def test_github_annotation_format():
    report = lint_paths([FIXTURES / "rl002_bad.py"])
    lines = render_github(report).splitlines()
    assert lines[0].startswith("::error file=")
    assert "title=repro-lint RL002" in lines[0]
    assert lines[-1].startswith("::notice")


def test_cli_exit_codes_and_flags(tmp_path, capsys):
    assert lint_main([str(SRC)]) == 0
    capsys.readouterr()

    assert lint_main([str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "RL006" in out

    # --select narrows the rule set; --ignore drops it back to clean.
    assert lint_main([str(FIXTURES / "rl006_bad.py"), "--select", "RL001"]) == 0
    capsys.readouterr()
    assert lint_main([str(FIXTURES / "rl006_bad.py"), "--ignore", "RL006"]) == 0
    capsys.readouterr()
    assert lint_main(["--select", "RL999", str(FIXTURES)]) == 2
    capsys.readouterr()

    json_out = tmp_path / "report.json"
    assert (
        lint_main(
            [str(FIXTURES / "rl003_bad.py"), "--format", "github", "--json", str(json_out)]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert out.startswith("::error")
    assert json.loads(json_out.read_text())["summary"]["RL003"] == 5

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert out.count("RL0") == 11


def test_cli_coverage_report_and_resolution_gate(tmp_path, capsys):
    cov_out = tmp_path / "coverage.json"
    assert lint_main([str(SRC), "--coverage", str(cov_out)]) == 0
    capsys.readouterr()
    payload = json.loads(cov_out.read_text())
    assert payload["schema"] == "repro-lint-coverage/v1"
    totals = payload["totals"]
    assert totals["call_sites"] == (
        totals["project"] + totals["external"] + totals["unresolved"]
    )
    assert totals["rate"] >= 0.95  # acceptance floor for src/
    assert payload["modules"], "per-module breakdown missing"
    assert "repro.analysis.engine" in payload["modules"]
    for entry in payload["modules"].values():
        assert set(entry) >= {"path", "call_sites", "unresolved", "rate"}
        for site in entry["unresolved_sites"]:
            assert set(site) == {"line", "caller", "name"}

    # `--coverage` with no path streams the JSON doc to stdout.
    assert lint_main([str(FIXTURES / "rl006_bad.py"), "--coverage"]) == 1
    out = capsys.readouterr().out
    start = out.index("{")
    assert json.loads(out[start:])["schema"] == "repro-lint-coverage/v1"


def test_cli_min_resolution_floor(capsys):
    # An impossible floor turns an otherwise-clean run into a failure.
    assert lint_main([str(SRC), "--min-resolution", "1.0"]) >= 1
    err = capsys.readouterr().err
    assert "resolution" in err

    assert lint_main([str(SRC), "--min-resolution", "0.95"]) == 0
    capsys.readouterr()


def test_cli_parallel_jobs_match_serial(capsys):
    assert lint_main([str(FIXTURES), "--jobs", "4"]) == 1
    parallel_out = capsys.readouterr().out
    assert lint_main([str(FIXTURES)]) == 1
    serial_out = capsys.readouterr().out
    strip = lambda text: [  # noqa: E731 - timings differ run to run
        line for line in text.splitlines() if not line.startswith("repro-lint:")
    ]
    assert strip(parallel_out) == strip(serial_out)

    assert lint_main([str(FIXTURES), "--jobs", "0"]) == 2
    capsys.readouterr()


def test_src_resolution_rate_meets_floor():
    report = lint_paths([SRC])
    assert report.resolution is not None
    assert report.resolution.rate >= 0.95
    assert report.resolution.total > 1000


def test_module_context_from_source_suppressions():
    ctx = ModuleContext.from_source(
        "x = 1  # repro-lint: disable=RL002, RL005\ny = 2\n"
    )
    assert ctx.is_suppressed("RL002", 1)
    assert ctx.is_suppressed("rl005", 1)
    assert not ctx.is_suppressed("RL001", 1)
    assert not ctx.is_suppressed("RL002", 2)
