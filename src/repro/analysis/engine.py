"""File walker and rule runner for repro-lint."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .context import ModuleContext, ProjectContext
from .coverage import ResolutionCoverage
from .effects import EffectTable
from .findings import Finding, Severity
from .registry import Rule, all_rules

#: Directories never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache"})


@dataclass
class LintReport:
    """Aggregated result of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0
    #: Wall-time per phase (seconds): parse, analyze, rules, total.
    timings: dict[str, float] = field(default_factory=dict)
    #: Call-site resolution coverage of the run's call graph.
    resolution: ResolutionCoverage | None = None
    #: Interprocedural effect summaries (drives the ``--effects`` artifact).
    effects: EffectTable | None = None

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self) -> int:
        return 1 if self.errors() else 0

    def to_dict(self) -> dict[str, object]:
        resolution: dict[str, object] | None = None
        if self.resolution is not None:
            resolution = {
                "call_sites": self.resolution.total,
                "project": self.resolution.project,
                "external": self.resolution.external,
                "unresolved": self.resolution.unresolved,
                "rate": round(self.resolution.rate, 4),
            }
        effects: dict[str, object] | None = None
        if self.effects is not None:
            summaries = self.effects.effects.values()
            effects = {
                "functions_analyzed": len(self.effects.effects),
                "may_raise": sum(1 for s in summaries if s.raises),
                "counter_mutating": sum(
                    1 for s in self.effects.effects.values() if s.counter_mutates
                ),
                "resource_findings": sum(
                    len(s.resources) for s in self.effects.effects.values()
                ),
                "declared_contracts": len(self.effects.declared),
            }
        return {
            "version": 3,
            "files_scanned": self.files_scanned,
            "suppressed": self.suppressed,
            "timings": {k: round(v, 3) for k, v in self.timings.items()},
            "resolution": resolution,
            "effects": effects,
            "summary": self.by_rule(),
            "findings": [f.to_dict() for f in self.findings],
        }


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in SKIP_DIRS for part in p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            continue
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                out.append(candidate)
    return out


def _run_module_rules(
    ctx: ModuleContext, rules: Iterable[Rule], report: LintReport
) -> None:
    for rule in rules:
        try:
            if not rule.applies_to(ctx):
                continue
            found = list(rule.check(ctx))
        except Exception as exc:  # noqa: BLE001 — a crashing rule is a finding
            report.findings.append(
                Finding(
                    path=ctx.path,
                    line=1,
                    col=0,
                    rule_id=rule.rule_id,
                    message=f"rule crashed: {type(exc).__name__}: {exc}",
                )
            )
            continue
        for finding in found:
            if ctx.is_suppressed(finding.rule_id, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)


def _run_project_rules(
    project: ProjectContext, rules: Iterable[Rule], report: LintReport
) -> None:
    """One whole-program pass per project rule, suppression per module."""
    for rule in rules:
        try:
            found = list(rule.check_project(project))
        except Exception as exc:  # noqa: BLE001 — a crashing rule is a finding
            report.findings.append(
                Finding(
                    path="<project>",
                    line=1,
                    col=0,
                    rule_id=rule.rule_id,
                    message=f"rule crashed: {type(exc).__name__}: {exc}",
                )
            )
            continue
        for finding in found:
            if project.is_suppressed(finding.rule_id, finding.path, finding.line):
                report.suppressed += 1
            else:
                report.findings.append(finding)


def _lint_project(
    modules: list[ModuleContext], rules: Sequence[Rule], report: LintReport
) -> None:
    project = ProjectContext(modules=modules)
    # Build the whole-program analyses eagerly (and exactly once for the
    # run — every project rule shares this ProjectContext) so the cost is
    # attributed to the analyze phase, not to whichever rule runs first,
    # and so the resolution coverage exists even on a rule-less run.
    t0 = time.perf_counter()
    report.effects = project.effects()
    report.timings["analyze"] = time.perf_counter() - t0
    report.resolution = project.coverage()

    module_rules = [r for r in rules if not r.project]
    project_rules = [r for r in rules if r.project]
    t0 = time.perf_counter()
    for ctx in modules:
        _run_module_rules(ctx, module_rules, report)
    _run_project_rules(project, project_rules, report)
    report.timings["rules"] = time.perf_counter() - t0
    report.findings.sort()


def _parse_files(
    paths: Sequence[Path], report: LintReport, jobs: int
) -> list[ModuleContext]:
    """Parse every file, optionally across a thread pool (``--jobs``)."""

    def parse(path: Path) -> ModuleContext | Finding:
        try:
            return ModuleContext.from_path(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            return Finding(
                path=str(path),
                line=getattr(exc, "lineno", 1) or 1,
                col=0,
                rule_id="RL000",
                message=f"unparseable module: {exc}",
            )

    def parse_threaded(path: Path) -> ModuleContext | Finding | None:
        try:
            return parse(path)
        except (RecursionError, SystemError):
            # CPython 3.11's compile() recursion accounting is not
            # reliably thread-safe and can raise a spurious SystemError
            # ("AST constructor recursion depth mismatch") under
            # concurrent parses; None marks the file for the serial
            # second pass below.
            return None

    if jobs > 1 and len(paths) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            threaded = list(pool.map(parse_threaded, paths))
        results = [
            got if got is not None else parse(path)
            for got, path in zip(threaded, paths)
        ]
    else:
        results = [parse(path) for path in paths]

    modules: list[ModuleContext] = []
    for result in results:  # executor.map preserves input order
        if isinstance(result, Finding):
            report.findings.append(result)
        else:
            modules.append(result)
    return modules


def lint_paths(
    paths: Sequence[Path | str],
    rules: Sequence[Rule] | None = None,
    jobs: int = 1,
) -> LintReport:
    """Lint every .py file under ``paths`` with ``rules`` (default: all).

    All modules are parsed up front — across ``jobs`` worker threads when
    asked — so project rules (``rule.project``) see the whole program,
    cross-module helper chains included.
    """
    active = list(rules) if rules is not None else all_rules()
    report = LintReport()
    t_start = time.perf_counter()
    modules = _parse_files(iter_python_files(paths), report, jobs)
    report.timings["parse"] = time.perf_counter() - t_start
    report.files_scanned = len(modules)
    _lint_project(modules, active, report)
    report.timings["total"] = time.perf_counter() - t_start
    return report


def lint_source(
    source: str,
    path: str = "<string>",
    dotted: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintReport:
    """Lint one in-memory module (the rule tests' entry point).

    Project rules run over a single-module project, so interprocedural
    resolution still works within the module.
    """
    active = list(rules) if rules is not None else all_rules()
    report = LintReport()
    ctx = ModuleContext.from_source(source, path=path, dotted=dotted)
    report.files_scanned = 1
    _lint_project([ctx], active, report)
    return report
