"""RL001 — lock discipline for the interval-lock protocol (interprocedural).

Two contracts from Section V-A of the paper, as implemented by
:mod:`repro.core.interval_lock`:

1. ``query_lock``/``retrain_lock`` are context managers; calling one
   anywhere except a ``with`` statement leaks the acquisition on exception
   paths. The only sanctioned exception is a *forwarding wrapper*: a method
   of the same name that immediately returns the parent manager's context
   (the ablation bench's degenerate global-lock manager does this).

2. A query-lock body must never reach blocking work: no ``time.sleep``,
   no condition/event waits, no blocking I/O, no retrain/rebuild entry
   points, and no ``retrain_lock`` acquisition — *on any call path*, not
   just lexically. The query lock is shared — many readers hold it
   concurrently — but the retrainer must drain all of them before swapping
   a subtree, so one sleeping reader stalls retraining for the whole
   interval and silently re-creates the blocking behaviour the paper's
   Fig. 7 exists to rule out. Acquiring the exclusive retrain lock from
   under a shared query lock is worse still: the retrainer waits for the
   query to drain while the query waits for the retrainer's lock.

This is a project rule: the engine hands it every module of the run at
once, it resolves calls through :mod:`repro.analysis.callgraph` and
consults the may-block facts of :mod:`repro.analysis.effects`, so
blocking work hidden two helpers and one module away from the ``with``
statement is still attributed — with the witness call chain in the
finding message.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..callgraph import CallGraph
from ..context import ModuleContext, ProjectContext
from ..effects import LOCK_METHODS, EffectTable, blocking_reason_of
from ..findings import Finding
from ..registry import Rule, register_rule


def _is_lock_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LOCK_METHODS
    )


class _QueryBody:
    """One ``with query_lock(...)`` statement and where it sits."""

    __slots__ = ("with_node", "enclosing_class")

    def __init__(self, with_node: ast.With, enclosing_class: str | None) -> None:
        self.with_node = with_node
        self.enclosing_class = enclosing_class


class _Collector(ast.NodeVisitor):
    """Walk one module tracking class scope; collect lock usage sites."""

    def __init__(self) -> None:
        self.class_stack: list[str] = []
        self.sanctioned: set[int] = set()
        self.query_bodies: list[_QueryBody] = []
        self.lock_calls: list[ast.Call] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            expr = item.context_expr
            if _is_lock_call(expr):
                self.sanctioned.add(id(expr))
                assert isinstance(expr, ast.Call)
                assert isinstance(expr.func, ast.Attribute)
                if expr.func.attr == "query_lock" and isinstance(node, ast.With):
                    self.query_bodies.append(
                        _QueryBody(
                            node,
                            self.class_stack[-1] if self.class_stack else None,
                        )
                    )
        self.generic_visit(node)

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if node.name in LOCK_METHODS:
            # Forwarding wrapper: `def query_lock(...): return
            # super().query_lock(...)` re-exposes, not acquires.
            for stmt in node.body:
                if isinstance(stmt, ast.Return) and _is_lock_call(stmt.value):
                    self.sanctioned.add(id(stmt.value))
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if _is_lock_call(node):
            self.lock_calls.append(node)
        self.generic_visit(node)


@register_rule
class LockDisciplineRule(Rule):
    rule_id = "RL001"
    name = "lock-discipline"
    description = (
        "query_lock/retrain_lock must be with-statements; no call path "
        "from a query_lock body may reach blocking work (sleep/wait/IO/"
        "retrain/rebuild/retrain_lock), resolved interprocedurally"
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.callgraph()
        effects = project.effects()
        for ctx in project.modules:
            yield from self._check_module(ctx, graph, effects)

    def _check_module(
        self, ctx: ModuleContext, graph: CallGraph, effects: EffectTable
    ) -> Iterator[Finding]:
        collector = _Collector()
        collector.visit(ctx.tree)

        for call in collector.lock_calls:
            if id(call) in collector.sanctioned:
                continue
            assert isinstance(call.func, ast.Attribute)
            yield self.finding(
                ctx,
                call,
                f"{call.func.attr}() must be used as a with-statement "
                "(or returned unentered from a same-named forwarding "
                "wrapper); a bare call leaks the lock on exception paths",
            )

        for body in collector.query_bodies:
            yield from self._check_query_body(ctx, body, graph, effects)

    def _check_query_body(
        self,
        ctx: ModuleContext,
        body: _QueryBody,
        graph: CallGraph,
        effects: EffectTable,
    ) -> Iterator[Finding]:
        with_node = body.with_node
        for stmt in with_node.body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                # Direct (lexical) blocking call — same verdict the old
                # rule gave, kept first so messages stay stable.
                reason = blocking_reason_of(sub)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        sub,
                        f"{reason} inside a query_lock body (line "
                        f"{with_node.lineno}): shared query locks must "
                        "not hold blocking work — it stalls the "
                        "retrainer's drain for the whole interval",
                    )
                    continue
                if _is_lock_call(sub):
                    assert isinstance(sub.func, ast.Attribute)
                    if sub.func.attr == "retrain_lock":
                        yield self.finding(
                            ctx,
                            sub,
                            "retrain_lock acquisition inside a query_lock "
                            f"body (line {with_node.lineno}): the retrainer "
                            "drains query holders before granting it — "
                            "taking it under a query lock deadlocks",
                        )
                    continue
                # Interprocedural: does any resolved callee's summary block?
                yield from self._check_resolved_call(
                    ctx, with_node, sub, body.enclosing_class, graph, effects
                )

    def _check_resolved_call(
        self,
        ctx: ModuleContext,
        with_node: ast.With,
        call: ast.Call,
        enclosing_class: str | None,
        graph: CallGraph,
        effects: EffectTable,
    ) -> Iterator[Finding]:
        for qname in sorted(graph.resolve_call_in(call, ctx, enclosing_class)):
            summary = effects.effect_of(qname)
            fact = summary.block_fact if summary is not None else None
            if fact is None:
                continue
            info = graph.functions[qname]
            yield self.finding(
                ctx,
                call,
                f"call inside a query_lock body (line {with_node.lineno}) "
                f"reaches blocking work: {fact.chain_text()} ({fact.reason}; callee defined "
                f"at {info.location()}) — shared query locks must not hold "
                "blocking work on any call path",
            )
            return  # one finding per call site is enough
