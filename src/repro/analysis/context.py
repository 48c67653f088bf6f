"""Per-module and whole-project analysis contexts handed to rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .suppress import is_suppressed, parse_suppressions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import CallGraph
    from .coverage import ResolutionCoverage
    from .effects import EffectTable


def dotted_name(path: Path) -> str | None:
    """Importable dotted module name for ``path``, or None.

    Walks upward while each directory is a package (has ``__init__.py``);
    the result is e.g. ``repro.core.index`` for
    ``src/repro/core/index.py``. Files outside any package (test fixtures)
    return None and rules fall back to pure-AST checks.
    """
    path = path.resolve()
    if path.suffix != ".py":
        return None
    parts: list[str] = []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        return None  # not inside any package: loose file / fixture
    if path.stem != "__init__":
        parts.append(path.stem)
    return ".".join(parts)


@dataclass
class ModuleContext:
    """One parsed module: source, AST, dotted name, and suppressions.

    Attributes:
        path: display path used in findings (kept as given, not resolved,
            so CI annotations match the checkout layout).
        source: the file's text.
        tree: parsed :class:`ast.Module`.
        dotted: importable dotted name, or None for loose files.
        suppressions: line -> disabled rule ids (see :mod:`.suppress`).
    """

    path: str
    source: str
    tree: ast.Module
    dotted: str | None = None
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_path(cls, path: Path, display: str | None = None) -> "ModuleContext":
        """Parse ``path``; raises SyntaxError for unparseable files."""
        source = path.read_text(encoding="utf-8")
        return cls(
            path=display or str(path),
            source=source,
            tree=ast.parse(source, filename=str(path)),
            dotted=dotted_name(path),
            suppressions=parse_suppressions(source),
        )

    @classmethod
    def from_source(
        cls, source: str, path: str = "<string>", dotted: str | None = None
    ) -> "ModuleContext":
        """Parse an in-memory module (used heavily by the rule tests)."""
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            dotted=dotted,
            suppressions=parse_suppressions(source),
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return is_suppressed(self.suppressions, rule_id, line)

    def path_parts(self) -> tuple[str, ...]:
        """Normalised path components, for rule scoping decisions."""
        return Path(self.path).parts


@dataclass
class ProjectContext:
    """Every module of one lint run, plus cached whole-program analyses.

    The engine builds one per run (``lint_source`` builds a single-module
    project, so interprocedural rules degrade gracefully to intra-module
    resolution there). The call graph and the effect table are built
    lazily on first use and cached for the run — rules share one fixpoint
    instead of recomputing it per module.
    """

    modules: list[ModuleContext] = field(default_factory=list)
    _by_path: dict[str, ModuleContext] = field(default_factory=dict, repr=False)
    _callgraph: "CallGraph | None" = field(default=None, repr=False)
    _effects: "EffectTable | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._by_path = {m.path: m for m in self.modules}

    def module_for(self, path: str) -> ModuleContext | None:
        return self._by_path.get(path)

    def callgraph(self) -> "CallGraph":
        if self._callgraph is None:
            from .callgraph import CallGraph

            self._callgraph = CallGraph.build(self.modules)
        return self._callgraph

    def effects(self) -> "EffectTable":
        """Interprocedural effect summaries (raise/counter/block/lock/resource)."""
        if self._effects is None:
            from .effects import compute_effects

            self._effects = compute_effects(self.callgraph())
        return self._effects

    def coverage(self) -> "ResolutionCoverage":
        """Call-site resolution coverage of this run's call graph."""
        from .coverage import compute_coverage

        return compute_coverage(self.callgraph())

    def is_suppressed(self, rule_id: str, path: str, line: int) -> bool:
        """Suppression lookup routed to the owning module's pragmas."""
        ctx = self._by_path.get(path)
        return ctx.is_suppressed(rule_id, line) if ctx is not None else False
