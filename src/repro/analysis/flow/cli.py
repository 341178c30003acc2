"""``repro-flow`` — conflict-freedom analysis for the SoA kernels.

Examples::

    repro-flow src/                        # human-readable report
    repro-flow --format json src/          # machine-readable (CI artifact)
    repro-flow --select flow-branch-rng src/repro/sim/fast
    repro-flow --access src/repro/sim/fast/kernels.py
    repro-flow --list-rules
    python -m repro.analysis.flow src/     # equivalent module entry point

Exit status: 0 when no error-severity findings, 1 when errors are present
(or any finding with ``--strict``), 2 on usage errors.  ``--access``
prints the per-function column read/write/send sets instead of findings
— the same sets the runtime sanitizer cross-checks against.  See
docs/ANALYSIS.md ("Flow analysis & sanitizer") for the rule catalogue
and the ``# repro-flow: ignore[...]`` pragma syntax.

Every other flag, the catalogue and the findings report are the lint
pass's CLI (:mod:`repro.analysis.lint.cli`) run on the flow registry.
"""

from __future__ import annotations

import ast
import json
import sys
from collections.abc import Sequence

from repro.analysis.lint.cli import build_parser, parse_args, report
from repro.analysis.lint.engine import iter_python_files

from .access import extract_function_access
from .model import SOA_CLASS, iter_functions
from .rules import FLOW_RULES_BY_ID, TOOL

__all__ = ["main"]

_DESCRIPTION = (
    "Static conflict-freedom analysis for the struct-of-arrays "
    "engine: write-write disjointness, read-once-at-entry, "
    "in-place aliasing, and RNG draw discipline."
)


def _print_access_report(paths: Sequence[str], as_json: bool) -> int:
    access_sets: dict[str, dict[str, dict[str, list[str]]]] = {}
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=filepath)
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            print(f"{filepath}: skipped ({exc})", file=sys.stderr)
            continue
        per_file: dict[str, dict[str, list[str]]] = {}
        for func, cls in iter_functions(tree):
            access = extract_function_access(
                func, self_is_soa=(cls == SOA_CLASS)
            )
            if not (access.reads or access.writes or access.sends):
                continue
            name = f"{cls}.{func.name}" if cls else func.name
            per_file[name] = access.to_dict()
        if per_file:
            access_sets[filepath] = per_file
    if as_json:
        print(json.dumps(access_sets, indent=2))
    else:
        for filepath, funcs in access_sets.items():
            print(filepath)
            for name, sets in funcs.items():
                print(
                    f"  {name}: reads={{{', '.join(sets['reads'])}}} "
                    f"writes={{{', '.join(sets['writes'])}}} "
                    f"sends={{{', '.join(sets['sends'])}}}"
                )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro-flow``; returns the process exit status."""
    parser = build_parser(TOOL, _DESCRIPTION)
    parser.add_argument(
        "--access",
        action="store_true",
        help=(
            "print per-function column read/write/send sets instead of "
            "findings (the sanitizer's static reference)"
        ),
    )
    args = parse_args(parser, argv)
    if args.access and not args.list_rules:
        return _print_access_report(args.paths, args.format == "json")
    return report(parser, args, FLOW_RULES_BY_ID)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
