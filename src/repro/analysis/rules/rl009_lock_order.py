"""RL009 — static lock-order deadlock detection.

Chameleon's locking protocol layers three kinds of mutual exclusion: the
interval protocol locks (``query_lock`` / ``retrain_lock``), the lock
manager's and race detector's internal ``_mutex``es, and the WAL /
checkpoint / stats mutexes the durability and robustness layers added.
Two threads that acquire the same pair of locks in opposite orders can
deadlock even though each acquisition looks locally innocent — the
classic AB/BA inversion, and exactly the failure mode "Are Updatable
Learned Indexes Ready?" observes in updatable learned indexes under
concurrent dynamic workloads.

This rule builds a **lock-order graph**: one node per lock identity
(:class:`~repro.analysis.callgraph.LockSite` computes identities from the
typed receiver table, so ``self._mutex`` in two different classes is two
nodes, not one), and an edge ``A -> B`` whenever a function acquires
``B`` while holding ``A`` — lexically (a ``with`` nested inside another)
or transitively (a call under ``with A`` whose effect summary acquires
``B`` somewhere down the call chain). Any cycle in that graph is
a potential deadlock; every edge participating in a cycle is reported at
its acquisition site with the witness call chain and the location of the
opposing ordering.

The protocol context managers themselves (functions named ``query_lock``
/ ``retrain_lock``) are exempt as edge *sources*: their internal mutex
acquisitions are released before the generator yields, so they are never
held across the caller's body (:mod:`repro.analysis.effects` applies the
matching exemption when it propagates lock acquisitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..callgraph import CallGraph
from ..context import ProjectContext
from ..effects import LOCK_METHODS, EffectTable
from ..findings import Finding
from ..registry import Rule, register_rule


@dataclass(frozen=True)
class _Witness:
    """Where one ordering edge ``A -> B`` was observed."""

    path: str
    line: int
    col: int
    chain: tuple[str, ...]  # holder fn, then the call chain down to B

    def chain_text(self) -> str:
        return " -> ".join(q.rsplit(".", 1)[-1] for q in self.chain)


def _order_edges(
    graph: CallGraph, effects: EffectTable
) -> dict[tuple[str, str], _Witness]:
    """Every held-while-acquiring pair, with its first witness."""
    edges: dict[tuple[str, str], _Witness] = {}

    def record(a: str, b: str, witness: _Witness) -> None:
        if a != b:
            edges.setdefault((a, b), witness)

    for qname, sites in graph.lock_sites.items():
        info = graph.functions.get(qname)
        if info is None or info.name in LOCK_METHODS:
            continue
        path = info.ctx.path
        # Lexical nesting: a `with` inside another `with`'s span (also
        # covers `with a, b:` — items are visited in acquisition order).
        for i, outer in enumerate(sites):
            for inner in sites[i + 1 :]:
                if outer.line <= inner.line <= outer.end_line:
                    record(
                        outer.lock,
                        inner.lock,
                        _Witness(path, inner.line, 0, (qname,)),
                    )
            # Transitive: calls under the held region whose summaries
            # acquire locks further down the chain.
            for rc in graph.calls_in.get(qname, ()):
                if not (outer.line < rc.call.lineno <= outer.end_line):
                    continue
                for callee in rc.callees:
                    callee_info = graph.functions.get(callee)
                    if callee_info is not None and callee_info.name in LOCK_METHODS:
                        continue
                    summary = effects.effect_of(callee)
                    if summary is None:
                        continue
                    for lock, chain in summary.acquires_locks.items():
                        record(
                            outer.lock,
                            lock,
                            _Witness(
                                path,
                                rc.call.lineno,
                                rc.call.col_offset,
                                (qname,) + chain,
                            ),
                        )
    return edges


def _cycle_path(
    adj: dict[str, set[str]], start: str, goal: str
) -> list[str] | None:
    """Shortest lock path ``start -> ... -> goal``, or None."""
    frontier = [(start, [start])]
    seen = {start}
    while frontier:
        node, path = frontier.pop(0)
        if node == goal:
            return path
        for nxt in sorted(adj.get(node, ())):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, path + [nxt]))
    return None


@register_rule
class LockOrderRule(Rule):
    rule_id = "RL009"
    name = "lock-order"
    description = (
        "the lock-order graph over interval locks and project mutexes "
        "must be acyclic; any held-while-acquiring cycle (AB/BA "
        "inversion) is a potential deadlock, reported with witness chains"
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.callgraph()
        edges = _order_edges(graph, project.effects())
        adj: dict[str, set[str]] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)

        for (a, b), witness in sorted(edges.items(), key=lambda e: e[1].line):
            back = _cycle_path(adj, b, a)
            if back is None:
                continue
            opposite = edges.get((back[0], back[1]))
            where = (
                f" (opposing order at {opposite.path}:{opposite.line}, "
                f"chain: {opposite.chain_text()})"
                if opposite is not None
                else ""
            )
            loop = " -> ".join([a, *back])
            yield Finding(
                path=witness.path,
                line=witness.line,
                col=witness.col,
                rule_id=self.rule_id,
                message=(
                    f"lock-order cycle: {a!r} is held while acquiring "
                    f"{b!r} here (chain: {witness.chain_text()}), but the "
                    f"graph also orders {loop} — inconsistent acquisition "
                    f"order deadlocks under contention{where}; pick one "
                    "global order for this lock pair"
                ),
                severity=self.severity,
            )
