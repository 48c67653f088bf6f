"""Domain rules for repro-lint.

Importing this package registers every rule with
:mod:`repro.analysis.registry`. One module per rule keeps each contract's
AST logic reviewable next to its rationale.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imports register the rules)
    rl001_locks,
    rl002_counters,
    rl003_fault_points,
    rl004_conformance,
    rl005_wall_clock,
    rl006_randomness,
    rl008_emissions,
    rl009_lock_order,
    rl012_no_raise,
    rl013_counter_neutral,
    rl014_resources,
)
