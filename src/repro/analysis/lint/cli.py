"""``repro-lint`` — the protocol-aware static-analysis CLI.

Examples::

    repro-lint src/                      # human-readable report
    repro-lint --format json src/        # machine-readable (CI artifact)
    repro-lint --select stdlib-random,import-time-rng src/ tests/
    repro-lint --list-rules
    python -m repro.analysis.lint src/   # equivalent module entry point

Exit status: 0 when no error-severity findings (warnings allowed), 1 when
errors are present (or any finding with ``--strict``), 2 on usage errors.
See docs/ANALYSIS.md for the rule catalogue and the ignore-pragma syntax.

The parser, rule selection, catalogue and report built here serve every
pass: ``repro-flow`` (:mod:`repro.analysis.flow.cli`) runs them on its
own registry and only adds ``--access``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Mapping, Sequence

from repro.analysis.lint.engine import exit_code, lint_paths
from repro.analysis.lint.findings import findings_to_json
from repro.analysis.lint.rules import RULES_BY_ID, Rule

__all__ = ["main", "build_parser", "parse_args", "report"]

_DESCRIPTION = (
    "Protocol-aware static analysis for the repro codebase: "
    "compare-store-send discipline, message-dispatch completeness, "
    "RNG determinism, and self-stabilization hygiene."
)


def build_parser(
    prog: str = "repro-lint", description: str = _DESCRIPTION
) -> argparse.ArgumentParser:
    """Build the argument parser of the pass named *prog*.

    *prog* is the pass's tool name: its pragma prefix and the word of its
    "clean" line.  Both passes share every flag built here.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
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
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit status",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _resolve_rules(
    select: str | None,
    ignore: str | None,
    registry: Mapping[str, Rule],
    parser: argparse.ArgumentParser,
) -> tuple[Rule, ...]:
    def split(spec: str) -> list[str]:
        return [token.strip() for token in spec.split(",") if token.strip()]

    chosen = list(registry.values())
    if select:
        ids = split(select)
        unknown = [i for i in ids if i not in registry]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        chosen = [registry[i] for i in ids]
    if ignore:
        ids = split(ignore)
        unknown = [i for i in ids if i not in registry]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        dropped = set(ids)
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return tuple(chosen)


def _print_rule_catalogue(registry: Mapping[str, Rule]) -> None:
    width = max(len(rule_id) for rule_id in registry)
    for rule in registry.values():
        print(f"{rule.id:<{width}}  [{rule.severity.value}]  {rule.summary}")


def parse_args(
    parser: argparse.ArgumentParser, argv: Sequence[str] | None
) -> argparse.Namespace:
    """Parse *argv*; outside ``--list-rules`` a missing path exits 2."""
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing and not args.list_rules:
        # A typo'd path must not report "clean" — the CI gate would
        # silently stop gating anything.
        parser.error(f"path(s) do not exist: {', '.join(missing)}")
    return args


def report(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    registry: Mapping[str, Rule],
) -> int:
    """Print the rule catalogue or the findings; return the exit status.

    The pass is *registry* under the tool name ``parser.prog``.
    """
    if args.list_rules:
        _print_rule_catalogue(registry)
        return 0
    rules = _resolve_rules(args.select, args.ignore, registry, parser)
    findings = lint_paths(args.paths, rules, registry=registry, tool=parser.prog)
    if args.format == "json":
        print(findings_to_json(findings))
    else:
        for finding in findings:
            print(finding.render())
        errors = sum(
            1 for f in findings if f.severity.value == "error"
        )
        warnings = len(findings) - errors
        if findings:
            print(f"{errors} error(s), {warnings} warning(s)")
        else:
            print(f"{parser.prog}: clean")
    return exit_code(findings, strict=args.strict)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-lint``; returns the process exit status."""
    parser = build_parser()
    return report(parser, parse_args(parser, argv), RULES_BY_ID)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
