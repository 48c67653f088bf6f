"""Interprocedural effect analysis: the one fixpoint behind every proof rule.

Computes one :class:`EffectSummary` per function over the typed call
graph with a single reverse-edge worklist fixpoint. Its facts:

* **may-raise** — the set of exception types that can escape the
  function, with a witness chain down to the raising site. A ``raise``
  contributes its type; a call contributes its callees' escaping sets
  (plus a curated table of raising stdlib surfaces for external calls);
  ``try/except`` narrows by exception-type matching against a small
  class hierarchy (stdlib + project ``class X(Y)`` edges), and
  ``contextlib.suppress(T)`` narrows its ``with`` body. A bare
  ``raise`` re-raises the enclosing handler's caught set.
* **net counter effect** — whether any :class:`~repro.baselines.
  counters.Counters` write (direct, or through a callee with a mutating
  net effect) can execute outside a snapshot/restore bracket. A
  bracketed call to a mutating helper is *neutral*, an unbracketed one
  is not, however deep the mutation sits.
* **may-block** — the function, or anything it calls, performs blocking
  work: ``time.sleep``, a condition/event ``.wait()``, ``os.fsync``,
  blocking I/O (``open``/``input``), a retrain/rebuild entry point, a
  retraining sweep, or a ``retrain_lock`` acquisition (taking the
  exclusive lock waits for the interval's readers to drain). RL001
  flags any call inside a ``query_lock`` body that may block.
* **lock acquisitions** — every lock identity the function may take,
  directly or through any callee, each with its witness chain. Feeds
  the RL009 lock-order graph.
* **resource pairing** — per-function findings for acquisition sites
  (``open``/``os.open``/``mkstemp``/``mmap``/lock ``.acquire()``) that
  can escape the function on an exception path without a ``finally`` /
  ``with`` / catch-all-handler release, computed against the converged
  may-raise facts so "exception path" means *provably possible* raise,
  not "any call at all".

May-raise and counter effects combine per call site, because the
site's guards decide what escapes. May-block and lock facts follow
every edge of ``graph.edges`` instead, which also carries decorator,
callable-argument and hook-slot edges: a wrapper that sleeps taints
everything it wraps. Those two facts only grow, so a function keeps the
first may-block and lock witnesses found for it, and their chains stay
simple paths.

Two walls stop may-block; a walled function never *receives* it,
neither from its own body nor through a callee. The first is two
modules. The fault injector (:mod:`repro.robustness.faults`) injects
delays that *simulate* slow operations under test, so routing every hot
path's ``fire()`` hook into a "may block" verdict would poison the whole
graph. The durability layer (:mod:`repro.robustness.durability`)
mirrors the index write API (``insert``/``delete``), so name-based
resolution would route the index's internal calls through the WAL
wrapper; the wrapper is apply-then-log, so its file I/O never runs
under a query lock. The second wall is the lock protocol's own context
managers (functions named ``query_lock``/``retrain_lock``): their
condition waits are the sanctioned blocking, and their internal mutexes
are released before they yield, so they neither block nor pass those
mutexes to callers.

Soundness model (documented, deliberate): external calls are assumed
non-raising unless listed in the curated tables below — the analysis
proves "no *known-modelled* exception escapes", which is the strongest
claim available without whole-stdlib summaries. Three exception types
are excluded from may-raise sets by design: ``NotImplementedError``
(marks abstract/read-only surfaces, resolved away by dispatch at
runtime), ``AssertionError`` (debug-mode only, stripped under ``-O``),
and ``InjectedFault`` (the fault-injection harness's own signal — the
testing mechanism, not a production failure path).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import CallGraph, FunctionInfo, FunctionNode
from .contracts import curated_contracts_of, declared_in_ast

# -- exception hierarchy -----------------------------------------------------

#: Exception types whose raises are excluded from may-raise sets (see
#: the module docstring for the rationale of each).
EXCLUDED_RAISES = frozenset(
    {"NotImplementedError", "AssertionError", "InjectedFault"}
)

#: Stdlib exception -> immediate base, for `except` type matching.
#: Unknown names default to rooting at Exception.
STDLIB_BASES: dict[str, str] = {
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ProcessLookupError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "TimeoutError": "OSError",
    "IOError": "OSError",
    "EnvironmentError": "OSError",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeTranslateError": "UnicodeError",
    "KeyError": "LookupError",
    "IndexError": "LookupError",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "ModuleNotFoundError": "ImportError",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "PicklingError": "Exception",
    "UnpicklingError": "Exception",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
}

# -- curated raising surfaces ------------------------------------------------

#: Dotted call targets (``os.replace``-style) known to raise.
RAISING_DOTTED: dict[str, tuple[str, ...]] = {
    "os.open": ("OSError",),
    "os.close": ("OSError",),
    "os.read": ("OSError",),
    "os.write": ("OSError",),
    "os.fsync": ("OSError",),
    "os.fstat": ("OSError",),
    "os.stat": ("OSError",),
    "os.ftruncate": ("OSError",),
    "os.replace": ("OSError",),
    "os.rename": ("OSError",),
    "os.remove": ("OSError",),
    "os.unlink": ("OSError",),
    "os.mkdir": ("OSError",),
    "os.makedirs": ("OSError",),
    "os.rmdir": ("OSError",),
    "os.listdir": ("OSError",),
    "os.getcwd": ("OSError",),
    "tempfile.mkstemp": ("OSError",),
    "tempfile.mkdtemp": ("OSError",),
    "mmap.mmap": ("OSError",),
    "pickle.loads": ("Exception",),
    "pickle.load": ("Exception",),
    "pickle.dumps": ("PicklingError",),
    "pickle.dump": ("PicklingError",),
    "json.loads": ("ValueError",),
    "json.load": ("ValueError",),
    "shutil.copyfile": ("OSError",),
    "shutil.move": ("OSError",),
}

#: Bare-name call targets known to raise.
RAISING_BARE: dict[str, tuple[str, ...]] = {
    "open": ("OSError",),
    "int": ("ValueError",),
    "float": ("ValueError",),
}

#: Method calls recognised by terminal name on any receiver. Restricted
#: to names distinctive of ``pathlib.Path`` / file objects so ordinary
#: method names never false-positive.
RAISING_METHODS: dict[str, tuple[str, ...]] = {
    "read_bytes": ("OSError",),
    "read_text": ("OSError",),
    "write_bytes": ("OSError",),
    "write_text": ("OSError",),
    "iterdir": ("OSError",),
    "stat": ("OSError",),
    "unlink": ("OSError",),
    "mkdir": ("OSError",),
    "rmdir": ("OSError",),
    "touch": ("OSError",),
    "rename": ("OSError",),
    "mkstemp": ("OSError",),
    "write": ("OSError",),
    "flush": ("OSError",),
    "truncate": ("OSError",),
    "fsync": ("OSError",),
}

#: Acquisition calls for the resource-pairing analysis: display kind by
#: dotted / bare / terminal-method target.
ACQUIRE_DOTTED = {"os.open": "fd", "tempfile.mkstemp": "temp file", "mmap.mmap": "mmap"}
ACQUIRE_BARE = {"open": "file", "mkstemp": "temp file"}

#: Method releases recognised on a tracked resource.
RELEASE_METHODS = frozenset({"close", "release", "shutdown", "terminate"})

#: Receiver identifiers that designate a Counters instance by convention.
COUNTER_RECEIVERS = frozenset({"counters", "_counters", "ctrs"})

# -- blocking work -----------------------------------------------------------

LOCK_METHODS = ("query_lock", "retrain_lock")

#: Call-name fragments that count as blocking work.
BLOCKING_FRAGMENTS = ("retrain", "rebuild")
#: Exact terminal names that count as blocking work. "join" is deliberately
#: absent: str.join is ubiquitous and harmless. "fsync" waits on the disk
#: and is the single slowest syscall in the durability layer.
BLOCKING_EXACT = ("sleep", "sweep_once", "wait", "fsync")
#: Blocking I/O builtins (flagged only as plain-name calls).
BLOCKING_BUILTINS = ("open", "input")

#: Modules whose functions never receive may-block (see the docstring).
BLOCKING_EXEMPT_MODULES = (
    "repro.robustness.faults",
    "repro.robustness.durability",
)


def blocking_reason_of(call: ast.Call) -> str | None:
    """Why one call expression is blocking work, or None.

    The direct (lexical) classification shared with RL001: exact names,
    retrain/rebuild fragments, and the I/O builtins. Lock acquisitions
    are classified from the call graph's lock sites instead.
    """
    func = call.func
    name = _terminal(func)
    if name is None:
        return None
    if isinstance(func, ast.Name) and name in BLOCKING_BUILTINS:
        return f"blocking I/O builtin {name!r}"
    if name in BLOCKING_EXACT:
        return f"blocking call {name!r}"
    if name in LOCK_METHODS:
        return None
    for fragment in BLOCKING_FRAGMENTS:
        if fragment in name:
            return f"{fragment} call {name!r}"
    return None


def _block_walled(info: FunctionInfo) -> bool:
    """True when ``info`` never receives may-block (the two walls)."""
    return info.name in LOCK_METHODS or any(
        info.module == mod or info.module.startswith(mod + ".")
        for mod in BLOCKING_EXEMPT_MODULES
    )


# -- facts -------------------------------------------------------------------


@dataclass(frozen=True)
class RaiseFact:
    """One exception type that can escape a function.

    Attributes:
        exc: exception type name.
        site: ``path:line`` of the originating raise / raising call.
        origin: human-readable source, e.g. ``raise WALError`` or
            ``call to iterdir()``.
        chain: witness call chain, caller-first, down to the function
            containing the raising site.
    """

    exc: str
    site: str
    origin: str
    chain: tuple[str, ...]

    def chain_text(self) -> str:
        return " -> ".join(q.rsplit(".", 1)[-1] for q in self.chain)


@dataclass(frozen=True)
class CounterFact:
    """Witness for a net counter mutation."""

    site: str
    origin: str
    chain: tuple[str, ...]

    def chain_text(self) -> str:
        return " -> ".join(q.rsplit(".", 1)[-1] for q in self.chain)


@dataclass(frozen=True)
class BlockFact:
    """Witness for may-block: the direct reason (e.g. ``"blocking call
    'sleep'"``) and the chain down to the function doing that work."""

    reason: str
    chain: tuple[str, ...]

    def chain_text(self) -> str:
        return " -> ".join(q.rsplit(".", 1)[-1] for q in self.chain)


@dataclass(frozen=True)
class ResourceFact:
    """One resource acquisition that can escape without release."""

    kind: str
    name: str
    line: int
    col: int
    reason: str


@dataclass
class EffectSummary:
    """Converged effect facts for one function."""

    qname: str
    raises: dict[str, RaiseFact] = field(default_factory=dict)
    counter_fact: CounterFact | None = None
    resources: tuple[ResourceFact, ...] = ()
    block_fact: BlockFact | None = None
    #: Lock identity -> witness chain (this function first, the function
    #: containing the ``with`` last) for every lock it may acquire.
    acquires_locks: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def counter_mutates(self) -> bool:
        return self.counter_fact is not None

    @property
    def may_block(self) -> bool:
        return self.block_fact is not None


# -- local (per-function) facts ----------------------------------------------

Guards = tuple[frozenset[str], ...]


@dataclass(frozen=True)
class _CallFact:
    """One call site with its guard context, for fixpoint recombination."""

    line: int
    col: int
    name: str
    callees: tuple[str, ...]
    external_raises: tuple[str, ...]
    guards: Guards
    bracketed: bool


@dataclass
class _LocalFacts:
    """Guard-filtered intraprocedural facts (computed once per function)."""

    escaping_raises: list[tuple[str, int, str]] = field(default_factory=list)
    calls: list[_CallFact] = field(default_factory=list)
    counter_write: tuple[int, str] | None = None
    has_acquires: bool = False
    #: Behind a wall: never receives may-block (see the module docstring).
    block_walled: bool = False
    #: Direct blocking work (first blocking call, else a retrain_lock
    #: acquisition); always None behind a wall.
    blocking: str | None = None


class _Hierarchy:
    """``except`` matching over stdlib + project exception classes."""

    def __init__(self, project_bases: dict[str, str]) -> None:
        self._bases = dict(STDLIB_BASES)
        # Project classes never shadow the stdlib hierarchy.
        for name, base in project_bases.items():
            self._bases.setdefault(name, base)

    def ancestors(self, exc: str) -> tuple[str, ...]:
        """``exc`` and its base classes, rooted at BaseException."""
        chain = [exc]
        seen = {exc}
        while True:
            base = self._bases.get(chain[-1])
            if base is None or base in seen:
                break
            chain.append(base)
            seen.add(base)
        if chain[-1] == "BaseException":
            return tuple(chain)
        if chain[-1] != "Exception":
            chain.append("Exception")
        chain.append("BaseException")
        return tuple(chain)

    def catches(self, handler: str, exc: str) -> bool:
        return handler in self.ancestors(exc)

    def escapes(self, guards: Guards, exc: str) -> bool:
        """True when no guard level catches ``exc``."""
        ancestors = self.ancestors(exc)
        for level in guards:
            if any(h in ancestors for h in level):
                return False
        return True


def _project_exception_bases(graph: CallGraph) -> dict[str, str]:
    """``class X(Y)`` edges from every module, for handler matching."""
    bases: dict[str, str] = {}
    seen: set[int] = set()
    for info in graph.functions.values():
        if id(info.ctx) in seen:
            continue
        seen.add(id(info.ctx))
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.ClassDef) and node.bases:
                base = _terminal(node.bases[0])
                if base is not None:
                    bases[node.name] = base
    return bases


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_display_name(call: ast.Call) -> str:
    return _dotted(call.func) or _terminal(call.func) or "<call>"


def _external_raise_types(call: ast.Call) -> tuple[str, ...]:
    """Curated raise set for an externally-resolved call, or ()."""
    dotted = _dotted(call.func)
    if dotted is not None and dotted in RAISING_DOTTED:
        return RAISING_DOTTED[dotted]
    if isinstance(call.func, ast.Name):
        return RAISING_BARE.get(call.func.id, ())
    if isinstance(call.func, ast.Attribute):
        return RAISING_METHODS.get(call.func.attr, ())
    return ()


def _handler_types(handler: ast.ExceptHandler) -> frozenset[str]:
    """Exception names one handler catches (bare ``except`` = everything)."""
    spec = handler.type
    if spec is None:
        return frozenset({"BaseException"})
    if isinstance(spec, ast.Tuple):
        names = {_terminal(el) for el in spec.elts}
        known = {n for n in names if n is not None}
        return frozenset(known) if known else frozenset({"BaseException"})
    name = _terminal(spec)
    return frozenset({name}) if name is not None else frozenset({"BaseException"})


def _suppressed_types(stmt: ast.With | ast.AsyncWith) -> frozenset[str]:
    """Types swallowed by ``contextlib.suppress(...)`` with-items."""
    out: set[str] = set()
    for item in stmt.items:
        call = item.context_expr
        if isinstance(call, ast.Call) and _terminal(call.func) == "suppress":
            for arg in call.args:
                name = _terminal(arg)
                if name is not None:
                    out.add(name)
    return frozenset(out)


def _bracket_spans(fn: FunctionNode) -> list[tuple[int, int]]:
    """Line spans of snapshot/restore-bracketed ``try`` bodies.

    A bracket is the neutralizing shape RL013 honours:
    a ``.snapshot()`` call on a counters-ish receiver anywhere in the
    function, plus a ``try`` whose ``finally`` restores it — everything
    inside that ``try`` body has zero *net* counter effect.
    """
    has_snapshot = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "snapshot"
        for node in ast.walk(fn)
    )
    if not has_snapshot:
        return []
    spans: list[tuple[int, int]] = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        restores = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "restore"
            for final_stmt in node.finalbody
            for sub in ast.walk(final_stmt)
        )
        if restores and node.body:
            first, last = node.body[0], node.body[-1]
            spans.append((first.lineno, last.end_lineno or last.lineno))
    return spans


def _is_counter_write(node: ast.AST) -> tuple[int, str] | None:
    """(line, description) when ``node`` writes a Counters field."""
    targets: list[ast.expr] = []
    if isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = list(node.targets)
    for target in targets:
        if isinstance(target, ast.Attribute):
            recv = _terminal(target.value)
            if recv in COUNTER_RECEIVERS:
                return node.lineno, f"write to {recv}.{target.attr}"
    return None


class _LocalExtractor:
    """One guard-tracking AST pass producing :class:`_LocalFacts`."""

    def __init__(self, info: FunctionInfo, graph: CallGraph, hierarchy: _Hierarchy):
        self.info = info
        self.graph = graph
        self.hierarchy = hierarchy
        self.facts = _LocalFacts(block_walled=_block_walled(info))
        self.brackets = _bracket_spans(info.node)

    def run(self) -> _LocalFacts:
        self._walk(list(self.info.node.body), guards=(), caught=())
        facts = self.facts
        if facts.blocking is None and not facts.block_walled:
            sites = self.graph.lock_sites.get(self.info.qname, ())
            if any(site.lock == "interval.retrain_lock" for site in sites):
                # Taking the exclusive lock waits for the interval's
                # readers to drain: blocking work in its own right.
                facts.blocking = "retrain_lock acquisition"
        return facts

    # -- statement walk ------------------------------------------------------

    def _walk(
        self,
        stmts: list[ast.stmt],
        guards: Guards,
        caught: tuple[tuple[frozenset[str], str | None], ...],
    ) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, guards, caught)

    def _walk_stmt(
        self,
        stmt: ast.stmt,
        guards: Guards,
        caught: tuple[tuple[frozenset[str], str | None], ...],
    ) -> None:
        if isinstance(stmt, ast.Try):
            handler_union = frozenset().union(
                *[_handler_types(h) for h in stmt.handlers]
            ) if stmt.handlers else frozenset()
            body_guards = guards + ((handler_union,) if handler_union else ())
            self._walk(stmt.body, body_guards, caught)
            for handler in stmt.handlers:
                self._walk(
                    handler.body,
                    guards,
                    caught + ((_handler_types(handler), handler.name),),
                )
            # else/finally run outside the handlers' protection.
            self._walk(stmt.orelse, guards, caught)
            self._walk(stmt.finalbody, guards, caught)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._visit_exprs(item.context_expr, guards)
                if item.optional_vars is not None:
                    self._visit_exprs(item.optional_vars, guards)
            suppressed = _suppressed_types(stmt)
            body_guards = guards + ((suppressed,) if suppressed else ())
            self._walk(stmt.body, body_guards, caught)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._visit_exprs(stmt.test, guards)
            self._walk(stmt.body, guards, caught)
            self._walk(stmt.orelse, guards, caught)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_exprs(stmt.iter, guards)
            self._visit_exprs(stmt.target, guards)
            self._walk(stmt.body, guards, caught)
            self._walk(stmt.orelse, guards, caught)
        elif isinstance(stmt, ast.Match):
            self._visit_exprs(stmt.subject, guards)
            for case in stmt.cases:
                self._walk(case.body, guards, caught)
        elif isinstance(stmt, ast.Raise):
            self._visit_raise(stmt, guards, caught)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested definitions: the call graph attributes their calls
            # to the enclosing function, so effects follow suit — walked
            # under the guards of the definition site.
            for dec in stmt.decorator_list:
                self._visit_exprs(dec, guards)
            self._walk(list(stmt.body), guards, caught)
        else:
            self._visit_exprs(stmt, guards)

    def _visit_raise(
        self,
        stmt: ast.Raise,
        guards: Guards,
        caught: tuple[tuple[frozenset[str], str | None], ...],
    ) -> None:
        if stmt.exc is not None:
            self._visit_exprs(stmt.exc, guards)
        for exc in self._raise_types(stmt, caught):
            if exc in EXCLUDED_RAISES:
                continue
            if self.hierarchy.escapes(guards, exc):
                origin = (
                    "bare re-raise" if stmt.exc is None else f"raise {exc}"
                )
                self.facts.escaping_raises.append((exc, stmt.lineno, origin))

    def _raise_types(
        self,
        stmt: ast.Raise,
        caught: tuple[tuple[frozenset[str], str | None], ...],
    ) -> frozenset[str]:
        if stmt.exc is None:
            # Bare `raise`: re-raises whatever the enclosing handler caught.
            return caught[-1][0] if caught else frozenset({"Exception"})
        exc = stmt.exc
        if isinstance(exc, ast.Name):
            # `raise e` where e is a handler's bound variable re-raises
            # that handler's caught set.
            for types, varname in reversed(caught):
                if varname is not None and exc.id == varname:
                    return types
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = _terminal(target)
        return frozenset({name}) if name is not None else frozenset({"Exception"})

    # -- expression visit (calls + counter writes) ---------------------------

    def _visit_exprs(self, node: ast.AST, guards: Guards) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub, guards)
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                write = _is_counter_write(sub)
                if write is not None and not self._in_bracket(write[0]):
                    if self.facts.counter_write is None:
                        self.facts.counter_write = write

    def _record_call(self, call: ast.Call, guards: Guards) -> None:
        name = _call_display_name(call)
        if name.rsplit(".", 1)[-1] in ACQUIRE_BARE or name in ACQUIRE_DOTTED:
            self.facts.has_acquires = True
        if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
            self.facts.has_acquires = True
        if self.facts.blocking is None and not self.facts.block_walled:
            self.facts.blocking = blocking_reason_of(call)
        callees = tuple(
            sorted(
                q
                for q in self.graph.resolve_call_in(
                    call, self.info.ctx, self.info.cls
                )
                if q in self.graph.functions
            )
        )
        external = () if callees else _external_raise_types(call)
        self.facts.calls.append(
            _CallFact(
                line=call.lineno,
                col=call.col_offset,
                name=name,
                callees=callees,
                external_raises=external,
                guards=guards,
                bracketed=self._in_bracket(call.lineno),
            )
        )

    def _in_bracket(self, line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in self.brackets)


# -- fixpoint ----------------------------------------------------------------


class EffectTable:
    """Converged effect summaries plus the declared-contract map."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.effects: dict[str, EffectSummary] = {}
        #: qname -> contract names (decorator + curated table).
        self.declared: dict[str, set[str]] = {}

    def effect_of(self, qname: str) -> EffectSummary | None:
        return self.effects.get(qname)

    def declared_functions(self, contract: str) -> Iterator[tuple[str, FunctionInfo]]:
        """(qname, info) of every function declaring ``contract``."""
        for qname, contracts in sorted(self.declared.items()):
            if contract in contracts:
                info = self.graph.functions.get(qname)
                if info is not None:
                    yield qname, info

    def to_dict(self) -> dict[str, object]:
        """The ``--effects`` artifact (schema ``repro-lint-effects/v1``).

        Lists every function with a non-trivial effect plus every
        declared-contract surface with its proof status — compact enough
        to diff between CI runs, complete enough to audit a proof.
        """
        functions: dict[str, object] = {}
        for qname in sorted(self.effects):
            summary = self.effects[qname]
            if not summary.raises and not summary.counter_mutates and not summary.resources:
                continue
            functions[qname] = {
                "raises": {
                    exc: {
                        "site": fact.site,
                        "origin": fact.origin,
                        "chain": list(fact.chain),
                    }
                    for exc, fact in sorted(summary.raises.items())
                },
                "counter_effect": (
                    {
                        "site": summary.counter_fact.site,
                        "origin": summary.counter_fact.origin,
                        "chain": list(summary.counter_fact.chain),
                    }
                    if summary.counter_fact is not None
                    else None
                ),
                "resource_findings": [
                    {
                        "kind": r.kind,
                        "name": r.name,
                        "line": r.line,
                        "reason": r.reason,
                    }
                    for r in summary.resources
                ],
            }
        contracts: dict[str, dict[str, str]] = {}
        for qname, declared in sorted(self.declared.items()):
            summary = self.effects.get(qname)
            for contract in sorted(declared):
                status = "proven"
                if summary is not None:
                    if contract == "no_raise" and summary.raises:
                        status = "violated"
                    elif contract == "counter_neutral" and summary.counter_mutates:
                        status = "violated"
                    elif contract == "releases_resources" and summary.resources:
                        status = "violated"
                contracts.setdefault(contract, {})[qname] = status
        return {
            "schema": "repro-lint-effects/v1",
            "functions_analyzed": len(self.effects),
            "functions": functions,
            "contracts": contracts,
        }


def compute_effects(graph: CallGraph) -> EffectTable:
    """Run the effect fixpoint over every function in ``graph``."""
    table = EffectTable(graph)
    hierarchy = _Hierarchy(_project_exception_bases(graph))

    local: dict[str, _LocalFacts] = {}
    for qname, info in graph.functions.items():
        facts = local[qname] = _LocalExtractor(info, graph, hierarchy).run()
        # The direct block and lock facts seed the fixpoint.
        table.effects[qname] = EffectSummary(
            qname=qname,
            block_fact=BlockFact(facts.blocking, (qname,)) if facts.blocking else None,
            acquires_locks={site.lock: (qname,) for site in graph.lock_sites.get(qname, ())},
        )
        declared = declared_in_ast(info.node) | curated_contracts_of(qname)
        if declared:
            table.declared[qname] = declared

    # Callers from both reverse maps: the call facts (per-site guards for
    # raises and counters) and graph.edges (blocking and lock facts).
    callees_of = {q: sorted(graph.edges.get(q, ())) for q in graph.functions}
    callers: dict[str, set[str]] = {}
    for qname, callees in callees_of.items():
        for callee in callees:
            callers.setdefault(callee, set()).add(qname)
    for qname, facts in local.items():
        for call in facts.calls:
            for callee in call.callees:
                callers.setdefault(callee, set()).add(qname)

    def recombine(qname: str) -> EffectSummary:
        info = graph.functions[qname]
        facts = local[qname]
        old = table.effects[qname]
        # Block and lock facts only grow: keep the witnesses found first.
        summary = EffectSummary(
            qname=qname,
            block_fact=old.block_fact,
            acquires_locks=dict(old.acquires_locks),
        )
        for exc, line, origin in facts.escaping_raises:
            summary.raises.setdefault(
                exc,
                RaiseFact(
                    exc=exc,
                    site=f"{info.ctx.path}:{line}",
                    origin=origin,
                    chain=(qname,),
                ),
            )
        if facts.counter_write is not None:
            line, origin = facts.counter_write
            summary.counter_fact = CounterFact(
                site=f"{info.ctx.path}:{line}", origin=origin, chain=(qname,)
            )
        for call in facts.calls:
            for exc in call.external_raises:
                if exc in EXCLUDED_RAISES:
                    continue
                if hierarchy.escapes(call.guards, exc):
                    summary.raises.setdefault(
                        exc,
                        RaiseFact(
                            exc=exc,
                            site=f"{info.ctx.path}:{call.line}",
                            origin=f"call to {call.name}()",
                            chain=(qname,),
                        ),
                    )
            for callee in call.callees:
                callee_summary = table.effects.get(callee)
                if callee_summary is None:
                    continue
                for exc, fact in callee_summary.raises.items():
                    if exc not in summary.raises and hierarchy.escapes(
                        call.guards, exc
                    ):
                        summary.raises[exc] = RaiseFact(
                            exc=exc,
                            site=fact.site,
                            origin=fact.origin,
                            chain=(qname,) + fact.chain,
                        )
                if (
                    summary.counter_fact is None
                    and callee_summary.counter_fact is not None
                    and not call.bracketed
                ):
                    inner = callee_summary.counter_fact
                    summary.counter_fact = CounterFact(
                        site=inner.site,
                        origin=inner.origin,
                        chain=(qname,) + inner.chain,
                    )
        for callee in callees_of[qname]:
            callee_summary = table.effects.get(callee)
            if callee_summary is None:
                continue
            blocked = callee_summary.block_fact
            if summary.block_fact is None and blocked and not facts.block_walled:
                summary.block_fact = BlockFact(blocked.reason, (qname,) + blocked.chain)
            if graph.functions[callee].name in LOCK_METHODS:
                continue
            for lock, chain in callee_summary.acquires_locks.items():
                summary.acquires_locks.setdefault(lock, (qname,) + chain)
        return summary

    work = list(graph.functions)
    queued = set(work)
    while work:
        qname = work.pop()
        queued.discard(qname)
        new = recombine(qname)
        old = table.effects[qname]
        table.effects[qname] = new
        # Only the fact *sets* drive the fixpoint, not the witnesses.
        if (
            set(new.raises) != set(old.raises)
            or new.counter_mutates != old.counter_mutates
            or new.may_block != old.may_block
            or len(new.acquires_locks) != len(old.acquires_locks)
        ):
            for caller in callers.get(qname, ()):
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)

    # Resource pairing runs once, against the converged raise facts.
    for qname, facts in local.items():
        if not facts.has_acquires:
            continue
        info = graph.functions[qname]
        raising_lines = _raising_lines(qname, facts, table, hierarchy)
        found = _analyze_resources(info, raising_lines)
        if found:
            table.effects[qname].resources = tuple(found)
    return table


def _raising_lines(
    qname: str,
    facts: _LocalFacts,
    table: EffectTable,
    hierarchy: _Hierarchy,
) -> dict[int, str]:
    """Line -> description of ops that can raise out of their guards."""
    out: dict[int, str] = {}
    for exc, line, origin in facts.escaping_raises:
        out.setdefault(line, f"{origin} ({exc})")
    for call in facts.calls:
        for exc in call.external_raises:
            if exc not in EXCLUDED_RAISES and hierarchy.escapes(call.guards, exc):
                out.setdefault(call.line, f"{call.name}() may raise {exc}")
                break
        for callee in call.callees:
            summary = table.effects.get(callee)
            if summary is None:
                continue
            for exc in summary.raises:
                if hierarchy.escapes(call.guards, exc):
                    out.setdefault(call.line, f"{call.name}() may raise {exc}")
                    break
    return out


# -- resource pairing --------------------------------------------------------


@dataclass
class _Acquisition:
    kind: str
    name: str | None  # bound local name / receiver path; None = unbound
    line: int
    col: int


def _acquire_kind(call: ast.Call) -> str | None:
    dotted = _dotted(call.func)
    if dotted is not None and dotted in ACQUIRE_DOTTED:
        return ACQUIRE_DOTTED[dotted]
    if isinstance(call.func, ast.Name):
        return ACQUIRE_BARE.get(call.func.id)
    if isinstance(call.func, ast.Attribute) and call.func.attr == "mkstemp":
        return "temp file"
    return None


def _lockish(name: str | None) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return "lock" in lowered or "mutex" in lowered or "sem" in lowered


def _analyze_resources(
    info: FunctionInfo, raising_lines: dict[int, str]
) -> list[ResourceFact]:
    """Intra-function acquire/release pairing against the raise facts."""
    fn = info.node
    # Nested definitions contribute may-raise facts (their calls are
    # attributed to the encloser), but their bodies do not *execute* at
    # their lexical position — exclude those lines from gap analysis so
    # a closure defined between acquire and try/finally is not mistaken
    # for an inline raising operation.
    nested_spans = [
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and node is not fn
    ]
    raising_lines = {
        line: why
        for line, why in raising_lines.items()
        if not any(lo <= line <= hi for lo, hi in nested_spans)
    }
    with_lines: set[int] = set()
    finally_spans: list[tuple[int, int, int]] = []  # (try lineno, lo, hi)
    catchall_spans: list[tuple[int, int, int]] = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call):
                        with_lines.add(sub.lineno)
        elif isinstance(node, ast.Try):
            if node.finalbody:
                lo = node.finalbody[0].lineno
                hi = node.finalbody[-1].end_lineno or lo
                finally_spans.append((node.lineno, lo, hi))
            for handler in node.handlers:
                caught = _handler_types(handler)
                if "BaseException" in caught or "Exception" in caught:
                    lo = handler.body[0].lineno
                    hi = handler.body[-1].end_lineno or lo
                    catchall_spans.append((node.lineno, lo, hi))

    acquisitions: list[_Acquisition] = []
    releases: dict[str, list[int]] = {}
    transfers: dict[str, list[int]] = {}

    def note_release(name: str, line: int) -> None:
        releases.setdefault(name, []).append(line)

    def note_transfer(name: str, line: int) -> None:
        transfers.setdefault(name, []).append(line)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            kind = _acquire_kind(node.value)
            if kind is not None and node.value.lineno not in with_lines:
                target = node.targets[0]
                if isinstance(target, ast.Tuple) and target.elts:
                    target = target.elts[0]
                if isinstance(target, ast.Name):
                    acquisitions.append(
                        _Acquisition(kind, target.id, node.lineno, node.col_offset)
                    )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    pass  # stored straight onto an object: ownership transferred
        elif isinstance(node, (ast.Expr,)) and isinstance(node.value, ast.Call):
            call = node.value
            kind = _acquire_kind(call)
            if kind is not None and call.lineno not in with_lines:
                acquisitions.append(
                    _Acquisition(kind, None, call.lineno, call.col_offset)
                )
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                recv = _dotted(func.value)
                if _lockish(recv) and call.lineno not in with_lines:
                    acquisitions.append(
                        _Acquisition("lock", recv, call.lineno, call.col_offset)
                    )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in RELEASE_METHODS:
                recv = _dotted(func.value)
                if recv is not None:
                    note_release(recv, node.lineno)
            dotted = _dotted(func)
            if dotted == "os.close" and node.args and isinstance(node.args[0], ast.Name):
                note_release(node.args[0].id, node.lineno)
        if isinstance(node, (ast.Return, ast.Yield)) and node.value is not None:
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Name):
                    note_transfer(sub.id, node.lineno)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name):
                            note_transfer(sub.id, node.lineno)

    out: list[ResourceFact] = []
    for acq in acquisitions:
        if acq.name is None:
            out.append(
                ResourceFact(
                    kind=acq.kind,
                    name="<unbound>",
                    line=acq.line,
                    col=acq.col,
                    reason=f"{acq.kind} acquired but never bound to a name "
                    "or context manager — it can never be released",
                )
            )
            continue
        rel = sorted(releases.get(acq.name, []))
        moved = sorted(transfers.get(acq.name, []))
        protected = False
        for try_line, lo, hi in finally_spans:
            if any(lo <= r <= hi for r in rel) and acq.line <= hi:
                gap = [
                    line
                    for line in raising_lines
                    if acq.line < line < try_line
                ]
                if not gap:
                    protected = True
                    break
        if not protected:
            for try_line, lo, hi in catchall_spans:
                if any(lo <= r <= hi for r in rel) and acq.line <= try_line:
                    # Exception path released by a catch-all handler; the
                    # normal path still needs its own release/transfer.
                    if rel and (
                        any(r < lo or r > hi for r in rel) or moved
                    ):
                        protected = True
                        break
                    if moved:
                        protected = True
                        break
        if protected:
            continue
        after = [line for line in (rel + moved) if line >= acq.line]
        first_covered = min(after) if after else None
        if first_covered is None:
            out.append(
                ResourceFact(
                    kind=acq.kind,
                    name=acq.name,
                    line=acq.line,
                    col=acq.col,
                    reason=f"{acq.kind} {acq.name!r} is never released or "
                    "handed off on any path",
                )
            )
            continue
        risky = [
            (line, why)
            for line, why in sorted(raising_lines.items())
            if acq.line < line < first_covered
        ]
        if risky:
            line, why = risky[0]
            out.append(
                ResourceFact(
                    kind=acq.kind,
                    name=acq.name,
                    line=acq.line,
                    col=acq.col,
                    reason=f"{acq.kind} {acq.name!r} leaks if {why} at "
                    f"{info.ctx.path}:{line} — the release at line "
                    f"{first_covered} is not in a finally/with",
                )
            )
    return sorted(out, key=lambda r: (r.line, r.col, r.name))
