"""The analysis engine: file discovery, rule execution, suppression.

Every static-analysis pass runs through this one engine.  A pass is its
rule registry (rule id → :class:`Rule`) and its tool name, which is also
its pragma prefix: ``repro-lint`` with :data:`RULES_BY_ID` by default,
``repro-flow`` with the flow pass's registry
(:mod:`repro.analysis.flow`).

The engine is deliberately dependency-free (stdlib only) so the passes
can run in minimal CI containers before ``numpy``/``networkx`` are installed.

Besides the registered rules, the engine itself reports four conditions
that must never be suppressed:

* ``syntax-error`` — a file that does not parse;
* ``unreadable-file`` — a file that cannot be read as UTF-8 text (wrong
  encoding, permissions, a vanished symlink); one bad file fails loudly
  while the rest of the tree is still linted;
* ``bad-pragma`` — a ``# <tool>:`` comment that does not parse (every
  suppression must name its rule, keeping ignores auditable);
* ``unknown-rule`` — a pragma naming a rule id that does not exist (a typo
  would otherwise silently suppress nothing while looking intentional).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules import RULES_BY_ID, Rule
from repro.analysis.lint.unit import ModuleUnit

__all__ = ["lint_source", "lint_paths", "iter_python_files", "exit_code"]

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".venv", "venv", "build", "dist", ".mypy_cache",
     ".ruff_cache", ".pytest_cache", "node_modules"}
)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under *paths* (files pass through verbatim)."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def _pragma_findings(module: ModuleUnit, known: frozenset[str]) -> Iterator[Finding]:
    tool = module.ignores.tool
    for lineno in module.ignores.malformed_lines:
        yield Finding(
            rule="bad-pragma",
            severity=Severity.ERROR,
            path=module.path,
            line=lineno,
            col=0,
            message=(
                f"malformed {tool} pragma; the syntax is "
                f"'# {tool}: ignore[rule-id]'"
            ),
        )
    for lineno, rules in sorted(module.ignores.rules_by_line().items()):
        for rule_id in sorted(rules):
            if rule_id != "*" and rule_id not in known:
                yield Finding(
                    rule="unknown-rule",
                    severity=Severity.ERROR,
                    path=module.path,
                    line=lineno,
                    col=0,
                    message=(
                        f"pragma ignores unknown rule '{rule_id}'; known "
                        f"rules: {', '.join(sorted(known))}"
                    ),
                )


def lint_source(
    path: str,
    source: str,
    rules: Sequence[Rule] | None = None,
    *,
    registry: Mapping[str, Rule] = RULES_BY_ID,
    tool: str = "repro-lint",
) -> list[Finding]:
    """Run *rules* (default: all of *registry*) over one in-memory module.

    Pragmas are read under *tool*'s prefix and checked against *registry*.
    """
    active = tuple(rules) if rules is not None else tuple(registry.values())
    try:
        module = ModuleUnit.from_source(path, source, tool)
    except SyntaxError as exc:
        return [
            Finding(
                rule="syntax-error",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    findings: list[Finding] = []
    for rule in active:
        for finding in rule.check(module):
            if not module.ignores.is_ignored(finding.rule, finding.line):
                findings.append(finding)
    findings.extend(_pragma_findings(module, frozenset(registry)))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] | None = None,
    *,
    registry: Mapping[str, Rule] = RULES_BY_ID,
    tool: str = "repro-lint",
) -> list[Finding]:
    """Run *rules* (default: all) over every ``.py`` file under *paths*."""
    findings: list[Finding] = []
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    rule="unreadable-file",
                    severity=Severity.ERROR,
                    path=filepath,
                    line=1,
                    col=0,
                    message=f"file cannot be read as UTF-8 text: {exc}",
                )
            )
            continue
        findings.extend(
            lint_source(filepath, source, rules, registry=registry, tool=tool)
        )
    return findings


def exit_code(findings: Iterable[Finding], *, strict: bool = False) -> int:
    """0 when clean; 1 when any error (or, with *strict*, any finding)."""
    for finding in findings:
        if strict or finding.severity is Severity.ERROR:
            return 1
    return 0
