"""Contract declarations consumed by the effect-analysis rules.

A *contract* is a statically checkable promise about a function's
effects. Three are known:

* ``no_raise`` — the escaping may-raise set is empty: no exception
  escapes the function on any path, through any callee (RL012). This is
  the durability layer's "never raises on damage" promise.
* ``counter_neutral`` — zero net :class:`~repro.baselines.counters.
  Counters` effect along every path: every structural-counter write,
  direct or through a callee, happens inside a snapshot/restore bracket
  (RL013). This is the diagnostics/observability promise.
* ``releases_resources`` — every fd / temp file / mmap / lock acquired
  in the body reaches a release on all paths, exception paths included
  (RL014 checks this by default in ``durability/`` and ``bench/``; the
  declaration opts any other function in).

Functions promise a contract in one of two ways:

1. **Decorator** — ``@declared_contract("no_raise")`` on the definition.
   The decorator is a runtime no-op marker (it only tags the function
   object), so declaring a contract adds zero overhead and no import
   cycles; the analyzer reads it straight off the AST, import-free.
2. **Curated table** — :data:`CURATED_SURFACES` maps contract names to
   ``fnmatch`` patterns over qualified names, for stdlib-shaped surfaces
   whose modules should not import the analysis package (e.g. every
   function of ``repro.obs`` is counter-neutral by construction).

The effect analyzer (:mod:`repro.analysis.effects`) unions both sources;
the rules then compare each declared function's computed effect summary
against its promise and report any gap with a witness chain.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Callable, TypeVar

#: Every contract name ``declared_contract`` accepts.
KNOWN_CONTRACTS = ("no_raise", "counter_neutral", "releases_resources")

#: Attribute the runtime marker stores declarations under.
CONTRACT_ATTR = "__repro_contracts__"

F = TypeVar("F", bound=Callable[..., object])


def declared_contract(*contracts: str) -> Callable[[F], F]:
    """Mark a function as promising one or more effect contracts.

    Purely declarative: the wrapped function is returned unchanged (same
    object, no call overhead) with the contract names recorded on
    ``__repro_contracts__``. repro-lint discovers the declaration
    statically from the decorator expression, so the marker works even
    on modules the analyzer never imports.

    Raises:
        ValueError: for a contract name outside :data:`KNOWN_CONTRACTS`
            (typos should fail at import time, not silently un-check).
    """
    unknown = [c for c in contracts if c not in KNOWN_CONTRACTS]
    if unknown:
        raise ValueError(
            f"unknown contract(s) {', '.join(sorted(unknown))}; "
            f"expected one of {', '.join(KNOWN_CONTRACTS)}"
        )

    def mark(fn: F) -> F:
        existing = getattr(fn, CONTRACT_ATTR, ())
        setattr(fn, CONTRACT_ATTR, tuple(existing) + tuple(contracts))
        return fn

    return mark


#: Curated contract surfaces: contract -> fnmatch patterns over function
#: qnames (``<module key>.<Class>.<name>``; the module key is the dotted
#: import path inside a package, the display path for loose files — so
#: ``*``-prefixed patterns cover fixtures too). These name surfaces whose
#: home modules should stay import-free of the analysis package.
CURATED_SURFACES: dict[str, tuple[str, ...]] = {
    "no_raise": (
        # Integrity validation runs inside chaos sweeps and recovery
        # acceptance checks; a diagnostic that throws is itself a defect.
        "*.verify_integrity",
    ),
    "counter_neutral": (
        # The whole observability package: arming tracing/metrics must
        # never perturb the paper's structural cost model.
        "repro.obs.*",
        # Every `verify_*` diagnostic: probe work inside it must be
        # bracketed by Counters.snapshot()/restore().
        "*.verify_*",
        # EBH raw-slot diagnostics used by tests and the heatmap tooling.
        "repro.core.ebh.*._raw_*",
    ),
    "releases_resources": (),
}


def curated_contracts_of(qname: str) -> set[str]:
    """Contracts the curated table assigns to ``qname``."""
    out: set[str] = set()
    for contract, patterns in CURATED_SURFACES.items():
        if any(fnmatchcase(qname, pattern) for pattern in patterns):
            out.add(contract)
    return out


def declared_in_ast(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Contract names declared via ``@declared_contract(...)`` on ``node``.

    Matches the decorator by terminal name (``declared_contract`` or
    ``contracts.declared_contract``) so fixtures and loose files work
    without resolving the import. Non-literal arguments are ignored —
    the runtime marker would have rejected them anyway.
    """
    out: set[str] = set()
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        target = dec.func
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name != "declared_contract":
            continue
        for arg in dec.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value in KNOWN_CONTRACTS:
                    out.add(arg.value)
    return out
