"""CLI: ``python -m repro.analysis [paths...]``.

Exit code 0 when no ERROR-severity findings survive suppression, 1
otherwise. ``--format github`` emits workflow-command annotations for CI;
``--json PATH`` additionally writes the machine-readable report.
``--coverage [PATH]`` writes the call-site resolution-coverage report
(stdout with no PATH), and ``--min-resolution R`` fails the run when the
resolution rate drops below the floor — that is the CI gate that keeps
the analyzer's precision from regressing silently. ``--effects [PATH]``
writes the interprocedural effect-summary artifact (may-raise sets,
counter effects, resource findings, contract proof status), and
``--self-check-fixtures DIR`` verifies every registered rule has at
least one bad and one good fixture under DIR, and that no fixture names
an unregistered rule — the guards against silently dead rules and
fixtures a deleted rule left behind.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Sequence

from .engine import lint_paths
from .registry import all_rules
from .reporting import render_github, render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: AST contract checker for this reproduction",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github", "json"),
        default="text",
        help="stdout format (github = Actions annotations)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the JSON report to PATH",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse input files across N worker threads",
    )
    parser.add_argument(
        "--coverage",
        nargs="?",
        const="-",
        metavar="PATH",
        help=(
            "write the call-site resolution-coverage JSON report to PATH "
            "(stdout if PATH is omitted)"
        ),
    )
    parser.add_argument(
        "--min-resolution",
        type=float,
        metavar="RATE",
        help="fail (exit 1) when the resolution rate is below RATE (0..1)",
    )
    parser.add_argument(
        "--effects",
        nargs="?",
        const="-",
        metavar="PATH",
        help=(
            "write the effect-summary JSON artifact to PATH "
            "(stdout if PATH is omitted)"
        ),
    )
    parser.add_argument(
        "--self-check-fixtures",
        metavar="DIR",
        help=(
            "verify every registered rule has at least one bad and one "
            "good fixture under DIR and no fixture names an unregistered "
            "rule, then exit"
        ),
    )
    return parser


def self_check_fixtures(root: Path) -> int:
    """Assert every RL rule has a ``rlXXX*bad*.py`` / ``rlXXX*good*.py`` pair.

    A rule whose fixtures went missing (or were never written) would pass
    every CI run vacuously; this check turns that silence into a failure.
    So does an ``rlXXX*.py`` fixture whose rule is not registered: it
    tests nothing.
    """
    if not root.is_dir():
        print(f"fixture directory not found: {root}", file=sys.stderr)
        return 2
    missing: list[str] = []
    for rule in all_rules():
        rid = rule.rule_id.lower()
        bad = sorted(root.rglob(f"{rid}*bad*.py"))
        good = sorted(root.rglob(f"{rid}*good*.py"))
        status = "ok"
        if not bad or not good:
            status = "MISSING " + "/".join(
                kind for kind, found in (("bad", bad), ("good", good)) if not found
            )
            missing.append(rule.rule_id)
        print(
            f"{rule.rule_id}: {len(bad)} bad, {len(good)} good fixture(s) "
            f"[{status}]"
        )
    registered = {rule.rule_id.lower() for rule in all_rules()}
    orphans = [
        path
        for path in sorted(root.rglob("rl*.py"))
        if re.match(r"rl\d{3}", path.name) and path.name[:5] not in registered
    ]
    for path in orphans:
        rule_id = path.name[:5].upper()
        print(f"{path}: fixture for unregistered rule {rule_id}", file=sys.stderr)
    if missing:
        print(
            f"rules without a full fixture pair: {', '.join(missing)}",
            file=sys.stderr,
        )
    return 1 if missing or orphans else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.self_check_fixtures:
        return self_check_fixtures(Path(args.self_check_fixtures))

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0

    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [r for r in rules if r.rule_id in wanted]
    if args.ignore:
        dropped = {r.strip().upper() for r in args.ignore.split(",") if r.strip()}
        rules = [r for r in rules if r.rule_id not in dropped]

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2

    report = lint_paths(args.paths, rules=rules, jobs=args.jobs)

    if args.format == "text":
        print(render_text(report))
    elif args.format == "github":
        print(render_github(report))
    else:
        print(render_json(report))

    if args.json:
        Path(args.json).write_text(render_json(report) + "\n", encoding="utf-8")

    exit_code = report.exit_code()
    if args.coverage is not None and report.resolution is not None:
        doc = json.dumps(report.resolution.to_dict(), indent=2) + "\n"
        if args.coverage == "-":
            print(doc, end="")
        else:
            Path(args.coverage).write_text(doc, encoding="utf-8")
    if args.effects is not None and report.effects is not None:
        doc = json.dumps(report.effects.to_dict(), indent=2) + "\n"
        if args.effects == "-":
            print(doc, end="")
        else:
            Path(args.effects).write_text(doc, encoding="utf-8")
    if args.min_resolution is not None and report.resolution is not None:
        rate = report.resolution.rate
        if rate < args.min_resolution:
            print(
                f"resolution rate {rate:.4f} is below the "
                f"--min-resolution floor {args.min_resolution:.4f} "
                f"({report.resolution.unresolved} unresolved of "
                f"{report.resolution.total} call sites)",
                file=sys.stderr,
            )
            exit_code = max(exit_code, 1)

    return exit_code


if __name__ == "__main__":
    sys.exit(main())
