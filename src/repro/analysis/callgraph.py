"""Project-wide call graph with dataflow-precision receiver resolution.

The graph is built once per lint run over every module handed to the
engine and cached on the :class:`~repro.analysis.context.ProjectContext`.
Resolution is purely static — nothing is imported — and deliberately
conservative: an edge is recorded only when the callee can be pinned down
with reasonable confidence, because a spurious edge turns into a spurious
"reaches blocking work" finding three hops away.

Resolution proceeds in decreasing order of precision:

1. ``helper()`` — a module-level function of the same module.
2. ``from pkg.mod import helper`` / ``import pkg.mod as m; m.helper()`` —
   cross-module calls through import aliases, including relative imports
   (``from .builder import make_leaf``), resolved against the project's
   dotted-name table.
3. ``self.method()`` / ``cls.method()`` / ``super().method()`` — methods
   of the enclosing class, walking base classes that resolve statically
   (same module or imported by name).
4. ``ClassName()`` — constructor calls bind to ``ClassName.__init__``.
5. **Typed receivers** — ``x.method()`` resolves through a typed receiver
   table: parameter and return annotations, ``self`` attribute assignments
   in ``__init__`` (and class-level annotated fields), and local
   assignment-based inference (``x = ChameleonIndex(...)``,
   ``y = make_index()`` with an annotated return). A typed receiver
   resolves generic names (``lookup``, ``insert``) to the *correct* class
   instead of being dropped at the name-candidate cap.
6. **Higher-order flows** — callables passed as arguments propagate into
   the callee when the callee invokes (or stores) the matching parameter;
   callables stored on ``self`` attributes (``self.checkpoint_hook = fn``,
   including constructor-parameter passthrough) produce edges at every
   ``self.checkpoint_hook()`` call site. Project decorators contribute an
   edge from the decorated function to the decorator, so a wrapper that
   sleeps or takes a lock taints everything it wraps.
7. ``anything.method()`` — the name-match fallback: matched against every
   project function called ``method``, but only when at most
   :data:`MAX_NAME_CANDIDATES` functions share that name.

Every call site is additionally *classified* — ``project`` (attributed to
project code), ``external`` (provably not project code: builtins, foreign
modules, receivers typed to external classes, names no project function
shares), or ``unresolved`` (could be project code but cannot be
attributed). Unresolved sites are never silently dropped: they feed the
resolution-coverage report (:mod:`repro.analysis.coverage`) that CI gates
on.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import ModuleContext

#: A bare attribute call with an *untyped* receiver is matched by method
#: name only while the name has at most this many project-wide candidates.
#: Typed receivers are exempt — they resolve past the cap.
MAX_NAME_CANDIDATES = 4

#: Call targets that receive callables without invoking them in the
#: caller's own control flow: thread/process spawns, executor submission,
#: deferred registration. A callable argument flowing into one of these
#: must NOT become a call edge from the caller — the callable runs on
#: another thread/process/loop, not under the caller's locks.
NON_INVOKING_SINKS = frozenset(
    {
        "Thread",
        "Process",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "submit",
        "run_in_executor",
        "to_thread",
        "apply_async",
        "map_async",
        "call_soon",
        "call_soon_threadsafe",
        "call_later",
        "add_done_callback",
        "register",
        "partial",
        "setattr",
    }
)

#: Attribute/identifier names that designate a mutex by convention.
_LOCKISH_EXACT = frozenset({"lock", "mutex", "_lock", "_mutex"})

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

_BUILTIN_NAMES = frozenset(dir(builtins))


def is_lockish_name(name: str) -> bool:
    """True when ``name`` designates a mutex by naming convention."""
    return (
        name in _LOCKISH_EXACT
        or name.endswith("_lock")
        or name.endswith("_mutex")
    )


@dataclass(frozen=True)
class TypeRef:
    """A resolved static type: a project class or an external name.

    ``module`` is the owning module key for project classes and ``None``
    for external types (``threading.Lock``, builtins, foreign packages) —
    external types still matter, because a call on an externally-typed
    receiver is *classified* (it provably cannot reach project code)
    rather than unresolved.
    """

    cls: str
    module: str | None = None

    @property
    def is_project(self) -> bool:
        return self.module is not None

    def key(self) -> str:
        return f"{self.module}.{self.cls}" if self.module else self.cls


@dataclass
class FunctionInfo:
    """One function or method definition in the project.

    Attributes:
        qname: qualified name ``<module key>.<Class>.<name>`` (class part
            absent for module-level functions). The module key is the
            importable dotted name when the file sits in a package, else
            the file's display path — unique either way within one run.
        name: bare function name.
        module: module key (prefix of ``qname``).
        cls: enclosing class name, or None.
        node: the defining AST node.
        ctx: the module the definition lives in.
    """

    qname: str
    name: str
    module: str
    cls: str | None
    node: FunctionNode
    ctx: "ModuleContext"

    def location(self) -> str:
        return f"{self.ctx.path}:{self.node.lineno}"


@dataclass(frozen=True)
class CallSite:
    """One classified call expression (feeds the coverage report)."""

    module: str
    path: str
    line: int
    col: int
    caller: str
    name: str
    kind: str  # "project" | "external" | "unresolved"


@dataclass(frozen=True)
class ResolvedCall:
    """A call expression inside a function with its resolved callees."""

    call: ast.Call
    callees: tuple[str, ...]


@dataclass(frozen=True)
class LockSite:
    """One ``with <lock>`` acquisition inside a function body.

    ``lock`` is the lock-node identity used by the lock-order graph:
    ``interval.query_lock`` / ``interval.retrain_lock`` for the protocol
    locks, ``<module>.<Class>.<attr>`` for typed mutex attributes, and a
    receiver-path fallback otherwise. ``line``/``end_line`` span the
    ``with`` statement so nested acquisitions and calls can be attributed
    to the held region.
    """

    lock: str
    line: int
    end_line: int


@dataclass
class _ModuleTable:
    """Per-module symbol information used during resolution."""

    key: str
    functions: dict[str, str] = field(default_factory=dict)  # name -> qname
    classes: dict[str, dict[str, str]] = field(default_factory=dict)
    bases: dict[str, list[str]] = field(default_factory=dict)  # class -> base names
    module_aliases: dict[str, str] = field(default_factory=dict)  # local -> dotted
    member_aliases: dict[str, str] = field(default_factory=dict)  # local -> dotted.member
    #: class -> attr -> statically inferred type (the typed receiver table).
    attr_types: dict[str, dict[str, TypeRef]] = field(default_factory=dict)


@dataclass
class _Frame:
    """Lexical scope state while collecting edges inside one function."""

    cls_name: str | None
    node: FunctionNode | None
    qname: str | None
    env: dict[str, TypeRef] = field(default_factory=dict)
    callables: dict[str, frozenset[str]] = field(default_factory=dict)
    #: local name -> hook slot it aliases (``hook = self.checkpoint_hook``).
    slot_vars: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: nested ``def``s in this scope: calls to them are project-attributed
    #: (their bodies already charge to the enclosing registered function).
    local_defs: set[str] = field(default_factory=set)


class CallGraph:
    """Static call graph over one project (one lint run's file set)."""

    def __init__(self) -> None:
        #: qname -> definition.
        self.functions: dict[str, FunctionInfo] = {}
        #: bare name -> qnames sharing it.
        self.by_name: dict[str, list[str]] = {}
        #: caller qname -> callee qnames (resolved edges).
        self.edges: dict[str, set[str]] = {}
        #: caller qname -> terminal names that did not resolve.
        self.unresolved: dict[str, set[str]] = {}
        #: function qname -> annotated return type.
        self.returns: dict[str, TypeRef] = {}
        #: function qname -> parameter names the body invokes.
        self.invoked_params: dict[str, set[str]] = {}
        #: function qname -> param name -> (class key, attr) it is stored on.
        self.param_attr_stores: dict[str, dict[str, tuple[str, str]]] = {}
        #: (class key, attr) -> callable qnames known to flow into the slot.
        self.attr_callables: dict[tuple[str, str], set[str]] = {}
        #: (class key, attr) slots that hold callables (even if empty so far).
        self.callable_slots: set[tuple[str, str]] = set()
        #: every classified call site, per module key.
        self.sites: dict[str, list[CallSite]] = {}
        #: function qname -> resolved call expressions (for project rules).
        self.calls_in: dict[str, list[ResolvedCall]] = {}
        #: function qname -> lock acquisitions in its body.
        self.lock_sites: dict[str, list[LockSite]] = {}
        self._tables: dict[str, _ModuleTable] = {}
        #: id(call node) -> resolved callees, for resolve_call_in().
        self._by_node: dict[int, frozenset[str]] = {}
        #: deferred hook-slot call sites, resolved after all flows are known.
        self._hook_sites: list[tuple[str, str, tuple[str, str], ast.Call]] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, modules: list["ModuleContext"]) -> "CallGraph":
        graph = cls()
        for ctx in modules:
            graph._collect_definitions(ctx)
        for ctx in modules:
            graph._collect_types(ctx)
        for ctx in modules:
            graph._collect_edges(ctx)
        graph._resolve_hook_sites()
        return graph

    def _module_key(self, ctx: "ModuleContext") -> str:
        return ctx.dotted if ctx.dotted is not None else ctx.path

    def _collect_definitions(self, ctx: "ModuleContext") -> None:
        key = self._module_key(ctx)
        table = _ModuleTable(key=key)
        self._tables[key] = table

        def add(node: FunctionNode, cls_name: str | None) -> None:
            qname = (
                f"{key}.{cls_name}.{node.name}" if cls_name else f"{key}.{node.name}"
            )
            info = FunctionInfo(
                qname=qname,
                name=node.name,
                module=key,
                cls=cls_name,
                node=node,
                ctx=ctx,
            )
            self.functions[qname] = info
            self.by_name.setdefault(node.name, []).append(qname)
            if cls_name:
                table.classes.setdefault(cls_name, {})[node.name] = qname
            else:
                table.functions[node.name] = qname

        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                table.classes.setdefault(stmt.name, {})
                table.bases[stmt.name] = [
                    base
                    for b in stmt.bases
                    if (base := _base_name(b)) is not None
                ]
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(sub, stmt.name)
        # Nested defs (functions inside functions, local classes) are not
        # registered as standalone functions; their *calls* attribute to
        # the nearest enclosing registered function.
        self._collect_imports(ctx, table)

    def _collect_imports(self, ctx: "ModuleContext", table: _ModuleTable) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table.module_aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None:
                        # `import pkg.mod` binds `pkg`; remember the full
                        # path too so `pkg.mod.f()` resolves.
                        table.module_aliases[alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                target = self._resolve_import_from(ctx, node)
                if target is None:
                    continue
                for alias in node.names:
                    table.member_aliases[alias.asname or alias.name] = (
                        f"{target}.{alias.name}"
                    )

    def _resolve_import_from(
        self, ctx: "ModuleContext", node: ast.ImportFrom
    ) -> str | None:
        """Absolute dotted target of a (possibly relative) ``from`` import."""
        if node.level == 0:
            return node.module
        if ctx.dotted is None:
            return None  # relative import in a loose file: unresolvable
        parts = ctx.dotted.split(".")
        # Level 1 = current package. __init__ modules are already package
        # names; plain modules must drop their own stem first.
        if not ctx.path.endswith("__init__.py"):
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            if drop >= len(parts):
                return None
            parts = parts[:-drop]
        base = ".".join(parts)
        if node.module:
            return f"{base}.{node.module}" if base else node.module
        return base or None

    # -- typed receiver table -------------------------------------------------

    def _collect_types(self, ctx: "ModuleContext") -> None:
        """Second pass: annotations, ``self`` attribute types, hook slots.

        Runs after every module's definitions and imports are registered so
        annotations can resolve to classes in *other* modules.
        """
        key = self._module_key(ctx)
        table = self._tables[key]

        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function_types(table, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class_types(table, stmt)

    def _collect_class_types(self, table: _ModuleTable, cls: ast.ClassDef) -> None:
        class_key = f"{table.key}.{cls.name}"
        attr_types = table.attr_types.setdefault(cls.name, {})
        for stmt in cls.body:
            # Class-level annotated fields (dataclass style):
            # ``_lock: threading.Lock = field(...)``.
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                t = self._type_from_annotation(table, stmt.annotation)
                if t is not None:
                    attr_types.setdefault(stmt.target.id, t)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function_types(table, stmt, cls.name)
                self._collect_self_stores(table, stmt, cls.name, class_key)

    def _collect_function_types(
        self, table: _ModuleTable, fn: FunctionNode, cls_name: str | None
    ) -> None:
        qname = (
            f"{table.key}.{cls_name}.{fn.name}" if cls_name else f"{table.key}.{fn.name}"
        )
        if fn.returns is not None:
            t = self._type_from_annotation(table, fn.returns)
            if t is not None:
                self.returns[qname] = t
        params = _param_names(fn)
        invoked = self.invoked_params.setdefault(qname, set())
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in params
            ):
                invoked.add(node.func.id)
        self._collect_decorator_edges(table, fn, qname)

    def _collect_decorator_edges(
        self, table: _ModuleTable, fn: FunctionNode, qname: str
    ) -> None:
        """A project decorator's wrapper taints what it wraps.

        ``@traced def lookup()`` executes ``traced``'s wrapper on every
        call, so blocking work (or a lock acquisition) in the wrapper is
        reachable from every call to ``lookup`` — modelled as an edge
        ``lookup -> traced`` (nested-wrapper bodies attribute to the
        decorator function itself). External decorators
        (``functools.wraps``, ``contextmanager``, ``property``) do not
        resolve to project functions and contribute nothing.
        """
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            callees: set[str] = set()
            if isinstance(target, ast.Name):
                name = target.id
                if name in table.functions:
                    callees = {table.functions[name]}
                elif name in table.member_aliases:
                    callees = self._resolve_dotted(table.member_aliases[name])
            elif isinstance(target, ast.Attribute):
                dotted = _flatten_dotted(target.value)
                if dotted is not None:
                    callees = self._resolve_module_attr(table, dotted, target.attr)
            if callees:
                self.edges.setdefault(qname, set()).update(callees)

    def _collect_self_stores(
        self,
        table: _ModuleTable,
        fn: FunctionNode,
        cls_name: str,
        class_key: str,
    ) -> None:
        """``self.attr = ...`` assignments: attribute types and hook slots."""
        qname = f"{class_key}.{fn.name}"
        params = _param_names(fn)
        param_annotations: dict[str, TypeRef] = {}
        for arg in _all_args(fn):
            if arg.annotation is not None:
                t = self._type_from_annotation(table, arg.annotation)
                if t is not None:
                    param_annotations[arg.arg] = t
        attr_types = table.attr_types.setdefault(cls_name, {})

        for node in ast.walk(fn):
            if isinstance(node, ast.AnnAssign):
                tgt = node.target
                if _is_self_attr(tgt):
                    assert isinstance(tgt, ast.Attribute)
                    t = self._type_from_annotation(table, node.annotation)
                    if t is not None:
                        attr_types.setdefault(tgt.attr, t)
                continue
            if not isinstance(node, ast.Assign):
                continue
            for tgt in node.targets:
                if not _is_self_attr(tgt):
                    continue
                assert isinstance(tgt, ast.Attribute)
                attr = tgt.attr
                value = node.value
                if isinstance(value, ast.Call):
                    t = self._ctor_type(table, value.func)
                    if t is not None:
                        attr_types.setdefault(attr, t)
                elif isinstance(value, ast.Name) and value.id in params:
                    # Constructor-parameter passthrough: the attribute's
                    # type is the parameter's annotation, and — because
                    # callables routinely arrive this way
                    # (``checkpoint_hook``) — the attr becomes a hook slot
                    # fed by every call site of this function.
                    if value.id in param_annotations:
                        attr_types.setdefault(attr, param_annotations[value.id])
                    self.callable_slots.add((class_key, attr))
                    self.param_attr_stores.setdefault(qname, {})[value.id] = (
                        class_key,
                        attr,
                    )
                elif isinstance(value, (ast.Name, ast.Attribute)):
                    stored = self._infer_callables(table, None, cls_name, value)
                    if stored:
                        self.callable_slots.add((class_key, attr))
                        self.attr_callables.setdefault(
                            (class_key, attr), set()
                        ).update(stored)

    def _ctor_type(self, table: _ModuleTable, func: ast.expr) -> TypeRef | None:
        """Type produced by calling ``func`` (constructor or annotated fn)."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in table.classes:
                return TypeRef(cls=name, module=table.key)
            if name in table.member_aliases:
                return self._type_from_dotted(table.member_aliases[name])
            if name in table.functions:
                return self.returns.get(table.functions[name])
            return None
        if isinstance(func, ast.Attribute):
            dotted = _flatten_dotted(func.value)
            if dotted is not None:
                resolved = self._resolve_module_attr(table, dotted, func.attr)
                if len(resolved) == 1:
                    (qname,) = resolved
                    if qname.endswith(".__init__"):
                        owner, cls_name = qname.rsplit(".", 2)[:2]
                        return TypeRef(cls=cls_name, module=owner)
                    return self.returns.get(qname)
                # External constructor: ``threading.Lock()``.
                head = dotted.split(".")[0]
                if head in table.module_aliases:
                    expanded = table.module_aliases[head]
                    if expanded not in self._project_module_prefixes():
                        return TypeRef(cls=f"{dotted}.{func.attr}", module=None)
        return None

    def _project_module_prefixes(self) -> set[str]:
        return {key.split(".")[0] for key in self._tables}

    def _type_from_annotation(
        self, table: _ModuleTable, node: ast.expr
    ) -> TypeRef | None:
        """Resolve an annotation expression to a TypeRef, or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self._type_from_annotation(table, parsed)
        if isinstance(node, ast.Name):
            name = node.id
            if name in table.classes:
                return TypeRef(cls=name, module=table.key)
            if name in table.member_aliases:
                return self._type_from_dotted(table.member_aliases[name])
            if name in ("None", "Any", "object"):
                return None
            return TypeRef(cls=name, module=None)
        if isinstance(node, ast.Attribute):
            dotted = _flatten_dotted(node)
            if dotted is None:
                return None
            head = dotted.split(".")[0]
            if head in table.module_aliases:
                expanded = table.module_aliases[head]
                rest = dotted[len(head):].lstrip(".")
                return self._type_from_dotted(f"{expanded}.{rest}")
            return TypeRef(cls=dotted, module=None)
        if isinstance(node, ast.Subscript):
            # Optional[X]/Union[...] unwrap to the payload; other generics
            # (list[X], dict[K, V]) type the receiver as the container.
            base = node.value
            base_name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if base_name in ("Optional", "Union"):
                inner = node.slice
                if isinstance(inner, ast.Tuple):
                    refs = [
                        self._type_from_annotation(table, e)
                        for e in inner.elts
                        if not _is_none_constant(e)
                    ]
                    refs = [r for r in refs if r is not None]
                    return refs[0] if len(refs) == 1 else None
                return self._type_from_annotation(table, inner)
            if base_name is not None:
                return TypeRef(cls=base_name, module=None)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [
                s for s in (node.left, node.right) if not _is_none_constant(s)
            ]
            refs = [self._type_from_annotation(table, s) for s in sides]
            refs = [r for r in refs if r is not None]
            return refs[0] if len(refs) == 1 else None
        return None

    def _type_from_dotted(self, dotted: str, _depth: int = 0) -> TypeRef:
        """``pkg.mod.Class`` to a project TypeRef when the module is ours.

        Chases re-exports (``repro.bench.BenchScale`` defined in
        ``repro.bench.scale``) so typed receivers survive package facades.
        """
        if "." in dotted:
            owner, cls_name = dotted.rsplit(".", 1)
            table = self._tables.get(owner)
            if table is not None:
                if cls_name in table.classes:
                    return TypeRef(cls=cls_name, module=owner)
                if _depth < 4 and cls_name in table.member_aliases:
                    return self._type_from_dotted(
                        table.member_aliases[cls_name], _depth + 1
                    )
        return TypeRef(cls=dotted, module=None)

    def _attr_type(self, t: TypeRef, attr: str) -> TypeRef | None:
        """Type of ``<receiver of type t>.attr`` via the attr-type table."""
        if not t.is_project:
            return None
        table = self._tables.get(t.module or "")
        if table is None:
            return None
        found = table.attr_types.get(t.cls, {}).get(attr)
        if found is not None:
            return found
        for base in table.bases.get(t.cls, []):
            base_ref = self._base_type(table, base)
            if base_ref is not None and base_ref != t:
                inherited = self._attr_type(base_ref, attr)
                if inherited is not None:
                    return inherited
        return None

    def _base_type(self, table: _ModuleTable, base: str) -> TypeRef | None:
        if base in table.classes:
            return TypeRef(cls=base, module=table.key)
        if base in table.member_aliases:
            ref = self._type_from_dotted(table.member_aliases[base])
            return ref if ref.is_project else None
        return None

    # -- edge resolution -----------------------------------------------------

    def _collect_edges(self, ctx: "ModuleContext") -> None:
        key = self._module_key(ctx)
        table = self._tables[key]
        graph = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.frames: list[_Frame] = [_Frame(None, None, None)]

            @property
            def frame(self) -> _Frame:
                return self.frames[-1]

            def _current_qname(self) -> str | None:
                for fr in reversed(self.frames):
                    if fr.qname is not None:
                        return fr.qname
                return None

            def _current_class(self) -> str | None:
                for fr in reversed(self.frames):
                    if fr.cls_name is not None:
                        return fr.cls_name
                return None

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                self.frames.append(_Frame(node.name, None, None))
                self.generic_visit(node)
                self.frames.pop()

            def _visit_function(self, node: FunctionNode) -> None:
                cls_name = self._current_class()
                qname = (
                    f"{key}.{cls_name}.{node.name}"
                    if cls_name
                    else f"{key}.{node.name}"
                )
                if qname not in graph.functions:
                    qname = self._current_qname() or qname
                    self.frame.local_defs.add(node.name)
                frame = _Frame(cls_name, node, qname)
                for arg in _all_args(node):
                    if arg.annotation is not None:
                        t = graph._type_from_annotation(table, arg.annotation)
                        if t is not None:
                            frame.env[arg.arg] = t
                self.frames.append(frame)
                self.generic_visit(node)
                self.frames.pop()

            visit_FunctionDef = _visit_function
            visit_AsyncFunctionDef = _visit_function

            def visit_Assign(self, node: ast.Assign) -> None:
                self.generic_visit(node)
                if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                    self._bind(node.targets[0].id, node.value)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                self.generic_visit(node)
                if isinstance(node.target, ast.Name):
                    t = graph._type_from_annotation(table, node.annotation)
                    if t is not None:
                        self.frame.env[node.target.id] = t

            def _bind(self, name: str, value: ast.expr) -> None:
                frame = self.frame
                cls = self._current_class()
                # Hook-slot aliasing (`hook = self.checkpoint_hook`): defer
                # resolution of calls through the local name to the
                # post-pass, when every flow into the slot is known.
                slot = graph._slot_of_expr(value, table, frame, cls)
                if slot is not None:
                    frame.slot_vars[name] = slot
                t = graph._infer_type(table, frame, cls, value)
                if t is not None:
                    frame.env[name] = t
                if slot is None:
                    fns = graph._infer_callables(table, frame, cls, value)
                    if fns:
                        frame.callables[name] = frozenset(fns)

            def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
                qname = self._current_qname()
                if qname is not None:
                    for item in node.items:
                        site = graph._lock_site_of(
                            table,
                            self.frame,
                            self._current_class(),
                            item.context_expr,
                            node,
                        )
                        if site is not None:
                            graph.lock_sites.setdefault(qname, []).append(site)
                        if item.optional_vars is not None and isinstance(
                            item.optional_vars, ast.Name
                        ) and isinstance(item.context_expr, ast.Call):
                            t = graph._ctor_type(table, item.context_expr.func)
                            if t is not None:
                                self.frame.env[item.optional_vars.id] = t
                self.generic_visit(node)

            visit_With = _visit_with
            visit_AsyncWith = _visit_with

            def visit_Call(self, node: ast.Call) -> None:
                caller = self._current_qname()
                if caller is not None:
                    graph._record_call(
                        caller,
                        node,
                        table,
                        self.frame,
                        self._current_class(),
                        ctx,
                    )
                else:
                    graph._classify_module_level(ctx, table, node)
                self.generic_visit(node)

        Visitor().visit(ctx.tree)

    def _record_call(
        self,
        caller: str,
        call: ast.Call,
        table: _ModuleTable,
        frame: _Frame,
        enclosing_class: str | None,
        ctx: "ModuleContext",
    ) -> None:
        name = _terminal(call.func) or "<dynamic>"

        # Hook slots resolve after all constructor flows are known: the
        # call is recorded now, its edges attach in the post-pass.
        slot = self._hook_slot_of(call.func, table, frame, enclosing_class)
        if slot is not None:
            self._hook_sites.append((caller, table.key, slot, call))
            self._site(ctx, table, caller, call, name, "project")
            return

        callees, kind, drop_first = self._resolve_call(
            call.func, table, enclosing_class, frame=frame
        )
        if callees:
            self.edges.setdefault(caller, set()).update(callees)
            self._flow_arguments(table, frame, enclosing_class, caller, call, callees, drop_first)
        else:
            self._flow_arguments(table, frame, enclosing_class, caller, call, callees, drop_first)
            if kind == "unresolved":
                self.unresolved.setdefault(caller, set()).add(name)
        self._by_node[id(call)] = frozenset(callees)
        self.calls_in.setdefault(caller, []).append(
            ResolvedCall(call=call, callees=tuple(sorted(callees)))
        )
        self._site(ctx, table, caller, call, name, "project" if callees else kind)

    def _classify_module_level(
        self, ctx: "ModuleContext", table: _ModuleTable, call: ast.Call
    ) -> None:
        callees, kind, _ = self._resolve_call(call.func, table, None)
        name = _terminal(call.func) or "<dynamic>"
        self._site(
            ctx, table, "<module>", call, name, "project" if callees else kind
        )

    def _site(
        self,
        ctx: "ModuleContext",
        table: _ModuleTable,
        caller: str,
        call: ast.Call,
        name: str,
        kind: str,
    ) -> None:
        self.sites.setdefault(table.key, []).append(
            CallSite(
                module=table.key,
                path=ctx.path,
                line=call.lineno,
                col=call.col_offset,
                caller=caller,
                name=name,
                kind=kind,
            )
        )

    def _resolve_call(
        self,
        func: ast.expr,
        table: _ModuleTable,
        enclosing_class: str | None,
        frame: _Frame | None = None,
    ) -> tuple[set[str], str, bool]:
        """Resolve one call target.

        Returns ``(callees, kind, drop_first)`` where ``kind`` classifies
        the site (``project``/``external``/``unresolved``) and
        ``drop_first`` is True when the callee's first parameter is bound
        (``self``) — needed to map arguments to parameters.
        """
        # helper() / ClassName() / imported_member() / local callable var
        if isinstance(func, ast.Name):
            name = func.id
            if frame is not None and name in frame.callables:
                return set(frame.callables[name]), "project", False
            if frame is not None and name in frame.local_defs:
                # Nested def: its body is already attributed to the
                # enclosing registered function — no edge needed.
                return set(), "project", False
            if name in table.functions:
                return {table.functions[name]}, "project", False
            if name in table.classes:
                init = self._method_in_hierarchy(table, name, "__init__")
                return ({init} if init else set()), "project", True
            if name in table.member_aliases:
                dotted_member = table.member_aliases[name]
                resolved = self._resolve_dotted(dotted_member)
                if resolved:
                    drop = any(q.endswith(".__init__") for q in resolved)
                    return resolved, "project", drop
                if self._dotted_is_project_symbol(dotted_member):
                    # A project class without __init__ (or an empty
                    # re-export): attributed, nothing to run.
                    return set(), "project", False
                return set(), self._foreign_kind(dotted_member), False
            if name in _BUILTIN_NAMES:
                return set(), "external", False
            if frame is not None and name in frame.env:
                t = frame.env[name]
                return set(), ("unresolved" if t.is_project else "external"), False
            return set(), ("unresolved" if name in self.by_name else "external"), False
        if not isinstance(func, ast.Attribute):
            return set(), "unresolved", False
        attr = func.attr
        value = func.value
        # self.method() / cls.method()
        if (
            isinstance(value, ast.Name)
            and value.id in ("self", "cls")
            and enclosing_class is not None
        ):
            found = self._method_in_hierarchy(table, enclosing_class, attr)
            if found:
                return {found}, "project", True
            matched = self._match_by_name(attr)
            if matched:
                return matched, "project", True
            return set(), self._name_kind(attr), True
        # super().method()
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "super"
            and enclosing_class is not None
        ):
            for base in table.bases.get(enclosing_class, []):
                found = self._method_in_hierarchy(table, base, attr)
                if found:
                    return {found}, "project", True
            matched = self._match_by_name(attr)
            if matched:
                return matched, "project", True
            return set(), self._name_kind(attr), True
        # Typed receiver: x.method() where x's type is known.
        recv = self._infer_type(table, frame, enclosing_class, value)
        if recv is not None:
            if recv.is_project:
                found = self._method_on_type(recv, attr)
                if found:
                    return {found}, "project", True
                return set(), self._name_kind(attr), True
            return set(), "external", True
        # module_alias.func() or dotted.module.path.func()
        dotted = _flatten_dotted(value)
        if dotted is not None:
            resolved = self._resolve_module_attr(table, dotted, attr)
            if resolved:
                drop = any(q.endswith(".__init__") for q in resolved)
                return resolved, "project", drop
            head = dotted.split(".")[0]
            if head in table.module_aliases:
                expanded = table.module_aliases[head]
                if not self._is_project_module(expanded):
                    return set(), "external", False
        # anything_else.method(): name match under the candidate cap
        matched = self._match_by_name(attr)
        if matched:
            return matched, "project", True
        return set(), self._name_kind(attr), True

    def _name_kind(self, name: str) -> str:
        """Classification for an unattributed call by terminal name.

        A name no project function shares cannot target project code —
        that is *resolved external*, not a precision gap. A name project
        functions do share, on a receiver we cannot type, is the honest
        ``unresolved`` bucket the coverage report surfaces.
        """
        return "unresolved" if name in self.by_name else "external"

    def _foreign_kind(self, dotted: str) -> str:
        return "unresolved" if self._is_project_module(dotted) else "external"

    def _dotted_is_project_symbol(self, dotted: str, _depth: int = 0) -> bool:
        """True when ``dotted`` names a class/function in a project module."""
        if _depth > 4 or "." not in dotted:
            return False
        owner, member = dotted.rsplit(".", 1)
        table = self._tables.get(owner)
        if table is None:
            return False
        if member in table.classes or member in table.functions:
            return True
        if member in table.member_aliases:
            return self._dotted_is_project_symbol(
                table.member_aliases[member], _depth + 1
            )
        return False

    def _is_project_module(self, dotted: str) -> bool:
        head = dotted.split(".")[0]
        return any(key == dotted or key.split(".")[0] == head for key in self._tables)

    def _infer_type(
        self,
        table: _ModuleTable,
        frame: _Frame | None,
        enclosing_class: str | None,
        expr: ast.expr,
    ) -> TypeRef | None:
        """Static type of an expression, or None when unknown."""
        if isinstance(expr, ast.Name):
            if frame is not None and expr.id in frame.env:
                return frame.env[expr.id]
            if expr.id in ("self", "cls") and enclosing_class is not None:
                return TypeRef(cls=enclosing_class, module=table.key)
            return None
        if isinstance(expr, ast.Attribute):
            base = self._infer_type(table, frame, enclosing_class, expr.value)
            if base is not None:
                return self._attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            t = self._ctor_type(table, expr.func)
            if t is not None:
                return t
            resolved, _, _ = self._resolve_call(
                expr.func, table, enclosing_class, frame=frame
            )
            if len(resolved) == 1:
                (qname,) = resolved
                if qname.endswith(".__init__"):
                    owner, cls_name = qname.rsplit(".", 2)[:2]
                    return TypeRef(cls=cls_name, module=owner)
                return self.returns.get(qname)
            return None
        if isinstance(expr, (ast.List, ast.ListComp)):
            return TypeRef(cls="list", module=None)
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return TypeRef(cls="dict", module=None)
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return TypeRef(cls="set", module=None)
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return None
            return TypeRef(cls=type(expr.value).__name__, module=None)
        return None

    def _infer_callables(
        self,
        table: _ModuleTable,
        frame: _Frame | None,
        enclosing_class: str | None,
        expr: ast.expr,
    ) -> set[str]:
        """Project function qnames an expression evaluates to, if any."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if frame is not None and name in frame.callables:
                return set(frame.callables[name])
            if name in table.functions:
                return {table.functions[name]}
            if name in table.member_aliases:
                resolved = self._resolve_dotted(table.member_aliases[name])
                return {q for q in resolved if not q.endswith(".__init__")}
            return set()
        if isinstance(expr, ast.Attribute):
            value = expr.value
            if (
                isinstance(value, ast.Name)
                and value.id in ("self", "cls")
                and enclosing_class is not None
            ):
                found = self._method_in_hierarchy(table, enclosing_class, expr.attr)
                if found:
                    return {found}
                slot = (f"{table.key}.{enclosing_class}", expr.attr)
                if slot in self.callable_slots:
                    return set(self.attr_callables.get(slot, set()))
                return set()
            recv = self._infer_type(table, frame, enclosing_class, value)
            if recv is not None and recv.is_project:
                found = self._method_on_type(recv, expr.attr)
                if found:
                    return {found}
            return set()
        return set()

    def _hook_slot_of(
        self,
        func: ast.expr,
        table: _ModuleTable,
        frame: _Frame | None,
        enclosing_class: str | None,
    ) -> tuple[str, str] | None:
        """The (class key, attr) hook slot a call expression invokes."""
        if (
            isinstance(func, ast.Name)
            and frame is not None
            and func.id in frame.slot_vars
        ):
            return frame.slot_vars[func.id]
        return self._slot_of_expr(func, table, frame, enclosing_class)

    def _slot_of_expr(
        self,
        expr: ast.expr,
        table: _ModuleTable,
        frame: _Frame | None,
        enclosing_class: str | None,
    ) -> tuple[str, str] | None:
        """The hook slot an attribute expression reads, or None."""
        if not isinstance(expr, ast.Attribute):
            return None
        value = expr.value
        if (
            isinstance(value, ast.Name)
            and value.id in ("self", "cls")
            and enclosing_class is not None
        ):
            slot = (f"{table.key}.{enclosing_class}", expr.attr)
            return slot if slot in self.callable_slots else None
        recv = self._infer_type(table, frame, enclosing_class, value)
        if recv is not None and recv.is_project:
            slot = (recv.key(), expr.attr)
            return slot if slot in self.callable_slots else None
        return None

    def _flow_arguments(
        self,
        table: _ModuleTable,
        frame: _Frame | None,
        enclosing_class: str | None,
        caller: str,
        call: ast.Call,
        callees: set[str],
        drop_first: bool,
    ) -> None:
        """Propagate callable arguments into call-graph edges.

        A project callable passed to a resolved project callee becomes an
        edge ``callee -> callable`` when the callee invokes the matching
        parameter, or flows into the hook slot the callee stores it on. A
        callable passed to an *unattributed* callee conservatively becomes
        an edge ``caller -> callable`` — unless the target is a known
        non-invoking sink (thread/process spawn, executor submission),
        where attributing the callable to the caller's control flow would
        be wrong.
        """
        arg_fns: list[tuple[int | None, str | None, set[str]]] = []
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            fns = self._infer_callables(table, frame, enclosing_class, arg)
            if fns:
                arg_fns.append((i, None, fns))
        for kw in call.keywords:
            if kw.arg is None:
                continue
            fns = self._infer_callables(table, frame, enclosing_class, kw.value)
            if fns:
                arg_fns.append((None, kw.arg, fns))
        if not arg_fns:
            return

        target = _terminal(call.func)
        if len(callees) == 1:
            (callee,) = callees
            info = self.functions.get(callee)
            if info is not None:
                params = _param_names_list(info.node)
                if drop_first and params:
                    params = params[1:]
                invoked = self.invoked_params.get(callee, set())
                stores = self.param_attr_stores.get(callee, {})
                for pos, kw_name, fns in arg_fns:
                    param = (
                        kw_name
                        if kw_name is not None
                        else (params[pos] if pos is not None and pos < len(params) else None)
                    )
                    if param is None:
                        continue
                    if param in invoked:
                        self.edges.setdefault(callee, set()).update(fns)
                    if param in stores:
                        self.attr_callables.setdefault(
                            stores[param], set()
                        ).update(fns)
                return
        if not callees and target not in NON_INVOKING_SINKS:
            for _, _, fns in arg_fns:
                self.edges.setdefault(caller, set()).update(fns)

    def _resolve_hook_sites(self) -> None:
        """Attach edges for deferred hook-slot call sites (post-pass)."""
        for caller, _module, slot, call in self._hook_sites:
            fns = self.attr_callables.get(slot, set())
            self._by_node[id(call)] = frozenset(fns)
            self.calls_in.setdefault(caller, []).append(
                ResolvedCall(call=call, callees=tuple(sorted(fns)))
            )
            if fns:
                self.edges.setdefault(caller, set()).update(fns)

    # -- lock sites ----------------------------------------------------------

    def _lock_site_of(
        self,
        table: _ModuleTable,
        frame: _Frame,
        enclosing_class: str | None,
        expr: ast.expr,
        with_node: ast.With | ast.AsyncWith,
    ) -> LockSite | None:
        """Lock identity for a ``with`` context expression, or None."""
        end_line = getattr(with_node, "end_lineno", with_node.lineno) or with_node.lineno
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("query_lock", "retrain_lock")
        ):
            return LockSite(f"interval.{expr.func.attr}", with_node.lineno, end_line)
        target = expr
        if isinstance(target, ast.Attribute) and is_lockish_name(target.attr):
            recv = self._infer_type(table, frame, enclosing_class, target.value)
            if recv is not None:
                owner = recv.key()
            else:
                flat = _flatten_dotted(target.value)
                owner = f"{table.key}.{flat}" if flat else table.key
            return LockSite(f"{owner}.{target.attr}", with_node.lineno, end_line)
        if isinstance(target, ast.Name) and is_lockish_name(target.id):
            return LockSite(f"{table.key}.{target.id}", with_node.lineno, end_line)
        return None

    # -- shared lookups ------------------------------------------------------

    def _resolve_module_attr(
        self, table: _ModuleTable, dotted: str, attr: str
    ) -> set[str]:
        head = dotted.split(".")[0]
        if head in table.module_aliases:
            expanded = table.module_aliases[head]
        elif head in table.member_aliases:
            # `from repro.core import builder` binds a module as a member.
            expanded = table.member_aliases[head]
        else:
            return set()
        rest = dotted[len(head):].lstrip(".")
        target = f"{expanded}.{rest}" if rest else expanded
        return self._resolve_dotted(f"{target}.{attr}")

    def _resolve_dotted(self, dotted: str, _depth: int = 0) -> set[str]:
        """Resolve ``pkg.mod.func`` or ``pkg.mod.Class`` to function qnames.

        Chases re-exports: ``repro.datasets.load_dataset`` resolves through
        ``repro/datasets/__init__.py``'s ``from .registry import
        load_dataset`` to the defining module.
        """
        if dotted in self.functions:
            return {dotted}
        # A class reference: its constructor.
        init = f"{dotted}.__init__"
        if init in self.functions:
            return {init}
        if _depth < 4 and "." in dotted:
            owner, member = dotted.rsplit(".", 1)
            owner_table = self._tables.get(owner)
            if owner_table is not None:
                if member in owner_table.classes:
                    # A project class with no __init__ of its own: still a
                    # resolved constructor, just with nothing to run.
                    hierarchy_init = self._method_in_hierarchy(
                        owner_table, member, "__init__"
                    )
                    return {hierarchy_init} if hierarchy_init else set()
                if member in owner_table.member_aliases:
                    return self._resolve_dotted(
                        owner_table.member_aliases[member], _depth + 1
                    )
        return set()

    def _method_on_type(self, t: TypeRef, method: str) -> str | None:
        """Find ``method`` on a project TypeRef, walking its hierarchy."""
        if not t.is_project:
            return None
        table = self._tables.get(t.module or "")
        if table is None:
            return None
        return self._method_in_hierarchy(table, t.cls, method)

    def _method_in_hierarchy(
        self, table: _ModuleTable, cls_name: str, method: str, _depth: int = 0
    ) -> str | None:
        """Find ``method`` on ``cls_name`` or a statically-resolvable base."""
        if _depth > 8:  # defensive: cyclic/absurd hierarchies
            return None
        methods = table.classes.get(cls_name)
        if methods and method in methods:
            return methods[method]
        for base in table.bases.get(cls_name, []):
            if base in table.classes:
                found = self._method_in_hierarchy(table, base, method, _depth + 1)
                if found:
                    return found
            elif base in table.member_aliases:
                target = table.member_aliases[base]
                owner = self._tables.get(target.rsplit(".", 1)[0])
                if owner is not None:
                    found = self._method_in_hierarchy(
                        owner, target.rsplit(".", 1)[1], method, _depth + 1
                    )
                    if found:
                        return found
        return None

    def _match_by_name(self, name: str) -> set[str]:
        candidates = self.by_name.get(name, [])
        if 0 < len(candidates) <= MAX_NAME_CANDIDATES:
            return set(candidates)
        return set()

    # -- queries -------------------------------------------------------------

    def callees_of(self, qname: str) -> set[str]:
        return self.edges.get(qname, set())

    def callers_of(self, qname: str) -> set[str]:
        return {
            caller for caller, callees in self.edges.items() if qname in callees
        }

    def resolve_call_in(
        self, call: ast.Call, ctx: "ModuleContext", enclosing_class: str | None
    ) -> set[str]:
        """Resolve one call expression from inside ``ctx`` (for rules).

        Call nodes seen during :meth:`build` return their dataflow-precise
        resolution (typed receivers, hook slots included); unseen nodes
        fall back to context-free resolution.
        """
        cached = self._by_node.get(id(call))
        if cached is not None:
            return set(cached)
        table = self._tables.get(self._module_key(ctx))
        if table is None:
            return set()
        callees, _, _ = self._resolve_call(call.func, table, enclosing_class)
        return callees


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _base_name(node: ast.expr) -> str | None:
    """Base-class expression to a resolvable name (``A`` or ``m.A`` -> A)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _flatten_dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chain to ``"a.b.c"``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_none_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _is_self_attr(node: ast.expr) -> bool:
    """True for a plain ``self.<attr>`` target."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _all_args(fn: FunctionNode) -> list[ast.arg]:
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def _param_names(fn: FunctionNode) -> set[str]:
    return {arg.arg for arg in _all_args(fn)}


def _param_names_list(fn: FunctionNode) -> list[str]:
    a = fn.args
    return [arg.arg for arg in [*a.posonlyargs, *a.args]]
