"""CI smoke check for the observability subsystem (``repro.obs``).

Runs the same seeded mixed workload twice — sinks disarmed, then armed
with a fresh recorder and registry — and checks every contract the
subsystem promises:

* the Chrome trace-event export validates and contains the core span
  taxonomy (descent, mutation, lock, retrainer spans);
* the Prometheus text exposition round-trips through the strict parser
  with the histogram families populated;
* structural Counters and lookup results are bit-identical armed vs.
  disarmed (RL013: instrumentation is measurement, not measured).

Exit status 0 when every check passes, 1 otherwise — CI's trace-smoke
job runs this under ``REPRO_TRACE=1 REPRO_METRICS=1`` so the import-time
environment arming path is exercised too (the run itself swaps in its
own scoped sinks). Artifacts (trace JSON/JSONL, Prometheus text) are
written when the ``--*-out`` flags are given, and uploaded by CI for
post-mortem inspection in Perfetto.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from .. import obs
from ..datasets import load as load_dataset
from ..obs.export import (
    chrome_trace,
    parse_prometheus,
    to_jsonl,
    validate_chrome_trace,
)
from .floors import _run_obs_workload

#: Span/event names the workload must produce for the trace to count as
#: covering the hot paths (lock spans require the locking index the
#: workload builds; retrain events require the low update threshold).
REQUIRED_SPANS = frozenset(
    {
        "index.lookup",
        "index.insert",
        "index.delete",
        "lock.query",
        "lock.retrain",
        "retrainer.sweep",
        "retrainer.rebuild",
    }
)

#: Histogram families the armed run must populate.
REQUIRED_FAMILIES = frozenset(
    {
        "chameleon_probe_length_slots",
        "chameleon_descent_depth_levels",
        "chameleon_retrain_cost_units",
    }
)


def run_smoke(
    n_keys: int = 5_000,
    n_ops: int = 5_000,
    seed: int = 0,
    trace_out: str | Path | None = None,
    jsonl_out: str | Path | None = None,
    prom_out: str | Path | None = None,
) -> list[str]:
    """Run the smoke workload; return a list of problems (empty = pass)."""
    problems: list[str] = []
    keys = load_dataset("UDEN", n_keys, seed=seed + 1)

    with obs.disarmed():
        _, disarmed_counters, disarmed_results = _run_obs_workload(
            keys, n_ops, seed
        )
    recorder = obs.TraceRecorder()
    registry = obs.MetricsRegistry()
    with obs.armed(recorder=recorder, registry=registry):
        _, armed_counters, armed_results = _run_obs_workload(keys, n_ops, seed)

    if disarmed_counters != armed_counters:
        changed = {
            k: (disarmed_counters.get(k, 0), armed_counters.get(k, 0))
            for k in set(disarmed_counters) | set(armed_counters)
            if disarmed_counters.get(k, 0) != armed_counters.get(k, 0)
        }
        problems.append(f"counters differ armed vs disarmed: {changed}")
    if disarmed_results != armed_results:
        problems.append("lookup results differ armed vs disarmed")

    doc = chrome_trace(recorder)
    problems.extend(validate_chrome_trace(doc))
    names = {event[0] for event in recorder.events()}
    missing = REQUIRED_SPANS - names
    if missing:
        problems.append(f"trace missing required spans: {sorted(missing)}")
    if recorder.dropped:
        print(f"note: ring buffer dropped {recorder.dropped:,} events")

    text = registry.to_prometheus()
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        problems.append(f"prometheus exposition failed to parse: {exc}")
        families = {}
    absent = REQUIRED_FAMILIES - set(families)
    if absent:
        problems.append(f"metrics missing required families: {sorted(absent)}")

    if trace_out is not None:
        Path(trace_out).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {trace_out}")
    if jsonl_out is not None:
        Path(jsonl_out).write_text(to_jsonl(recorder))
        print(f"wrote {jsonl_out}")
    if prom_out is not None:
        Path(prom_out).write_text(text)
        print(f"wrote {prom_out}")

    print(
        f"trace-smoke: {len(recorder):,} events, {len(names)} distinct names, "
        f"{len(families)} metric families, "
        f"counters_equal={disarmed_counters == armed_counters}"
    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trace_smoke",
        description="Validate repro.obs end to end on a mixed workload.",
    )
    parser.add_argument("--n-keys", type=int, default=5_000)
    parser.add_argument("--n-ops", type=int, default=5_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--jsonl-out", default=None)
    parser.add_argument("--prom-out", default=None)
    args = parser.parse_args(argv)
    problems = run_smoke(
        n_keys=args.n_keys,
        n_ops=args.n_ops,
        seed=args.seed,
        trace_out=args.trace_out,
        jsonl_out=args.jsonl_out,
        prom_out=args.prom_out,
    )
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    print("trace-smoke: all checks passed")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
