"""RL013 — declared counter-neutral functions must have zero net effect.

:class:`~repro.baselines.counters.Counters` is the machine-independent
currency of every benchmark claim, so diagnostics and observability must
not leak probe work into it. A ``verify_*`` method must either touch no
counters or bracket its body with ``snapshot()``/``restore()``, and this
rule checks that promise over the effect summaries of
:mod:`repro.analysis.effects`: a declared function is neutral when no
counter write — direct, or reached through any chain of callees — can
execute outside a neutralizing bracket. A bracketed call to a mutating
helper is fine (the bracket rolls it back); an unbracketed one is a
finding no matter how deep the write hides, which a lexical bracket
match could not see.

Scope: ``@declared_contract("counter_neutral")`` plus the curated table
(all of ``repro.obs``, every ``verify_*`` diagnostic, the EBH
``_raw_*`` slot probes). ``tests/lint_fixtures/rl013_verify_*.py`` pin
the ``verify_*`` cases.
"""

from __future__ import annotations

from typing import Iterator

from ..context import ProjectContext
from ..findings import Finding
from ..registry import Rule, register_rule


@register_rule
class CounterNeutralRule(Rule):
    rule_id = "RL013"
    name = "counter-neutral-effects"
    description = (
        "functions declared counter_neutral must have zero net Counters "
        "effect along every path, callees included"
    )
    project = True

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        table = project.effects()
        for qname, info in table.declared_functions("counter_neutral"):
            summary = table.effect_of(qname)
            if summary is None or summary.counter_fact is None:
                continue
            fact = summary.counter_fact
            yield self.finding(
                info.ctx,
                info.node,
                f"'{info.name}' is declared counter_neutral but has a net "
                f"counter effect: {fact.origin} at {fact.site} outside any "
                f"snapshot/restore bracket (path {fact.chain_text()})",
            )
