"""RL002 — structural cost must flow through the Counters API.

:class:`~repro.baselines.counters.Counters` is the machine-independent cost
currency (DESIGN.md section 1): benchmarks rank indexes by these fields, so
a module that increments a *look-alike* attribute — ``self.comparisons``
instead of ``self.counters.comparisons`` — silently drops that cost from
every comparison plot. The field list is imported live from
``counters.py``: adding a Counters field automatically widens this rule.

Flagged: augmented assignment (``+=``/``-=``) to an attribute named after a
Counters field whose receiver is not a counters object (an identifier named
``counters``, e.g. ``self.counters.x``, ``index.counters.x``, ``counters.x``),
and the spelled-out form of the same increment —
``x.comparisons = x.comparisons + 1`` — where the assigned value reads the
very attribute being written (any ``+``/``-`` chain). Plain initialisation
(``self.comparisons = 0``) is deliberately not flagged: a shadow that is
never incremented never absorbs cost. ``counters.py`` itself is exempt (it
defines the API).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator

from ...baselines.counters import Counters
from ..context import ModuleContext
from ..effects import COUNTER_RECEIVERS
from ..findings import Finding
from ..registry import Rule, register_rule, terminal_name

#: Live field list — drift in counters.py automatically updates the rule.
COUNTER_FIELDS = frozenset(f.name for f in dataclasses.fields(Counters))


def _routes_through_counters(target: ast.Attribute) -> bool:
    value = target.value
    name = terminal_name(value)
    if name in COUNTER_RECEIVERS:
        return True
    # Bare `comparisons += 1` on a local accumulator named exactly like the
    # field is the pattern this rule exists for; only attribute receivers
    # can legitimately be a Counters object.
    return False


def _reads_same_attribute(value: ast.expr, target: ast.Attribute) -> bool:
    """True when ``value`` reads the attribute ``target`` writes.

    Catches the de-sugared increment ``x.f = x.f + 1`` (and ``1 + x.f``,
    ``x.f - 1``, ``x.f + a + b``): the assigned expression contains a read
    of the same field through the same receiver identifier.
    """
    receiver = terminal_name(target.value)
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr == target.attr
            and terminal_name(node.value) == receiver
        ):
            return True
    return False


@register_rule
class CounterDisciplineRule(Rule):
    rule_id = "RL002"
    name = "counter-discipline"
    description = (
        "augmented assignment to a Counters-field name must go through a "
        "counters object, not a shadow attribute"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.path_parts()[-1] != "counters.py"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            for target in self._shadow_write_targets(node):
                receiver = terminal_name(target.value) or "<expression>"
                yield self.finding(
                    ctx,
                    node,
                    f"increment of {target.attr!r} on {receiver!r} shadows the "
                    f"Counters field of the same name; route structural cost "
                    f"through a counters object (e.g. self.counters.{target.attr}) "
                    "or rename the attribute",
                )

    def _shadow_write_targets(self, node: ast.AST) -> Iterator[ast.Attribute]:
        """Targets of shadow-counter increments in ``node`` (if any).

        Augmented form: ``x.f += 1``. Non-augmented form: ``x.f = x.f + 1``
        — an Assign whose value reads the written attribute back.
        """
        if isinstance(node, ast.AugAssign):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                return
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and target.attr in COUNTER_FIELDS
                and not _routes_through_counters(target)
            ):
                yield target
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in COUNTER_FIELDS
                    and not _routes_through_counters(target)
                    and _reads_same_attribute(node.value, target)
                ):
                    yield target
