"""Inline suppression pragmas: ``# repro-lint: ignore[rule, ...]``.

A finding is suppressed when the physical line it is anchored to carries a
pragma *comment* naming its rule, or the wildcard ``ignore[*]``.  Only
genuine comment tokens count — pragma syntax quoted inside a docstring or
string literal is prose, not a suppression.  The syntax deliberately
requires a rule name: a pragma comment that does not parse is itself
reported (``bad-pragma``), so suppressions stay auditable (ISSUE 1
requires every ignore to name its rule and justify itself in review).
Anything after the closing bracket is free-form justification prose —
the convention is to always say *why* the line is exempt.

Every analysis pass runs through this one machinery under its own tool
name as the comment prefix (``# repro-lint: ignore[...]`` for the lint
pass, ``# repro-flow: ignore[...]`` for the flow pass), so each tool's
suppressions stay in separate, non-colliding namespaces.
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["IgnorePragmas"]


def _comment_tokens(source: str) -> list[tuple[int, str]]:
    """Return ``(line, text)`` for every comment token in *source*.

    Tokenization errors are swallowed deliberately: the engine parses the
    module *before* pragmas are collected, so a file reaching this point
    tokenizes except in pathological cases, where "no pragmas" is the safe
    answer (nothing gets suppressed).
    """
    comments: list[tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError):
        return comments
    return comments


class IgnorePragmas:
    """Per-file map from physical line number to the set of ignored rules.

    *tool* selects the comment prefix (``# <tool>: ignore[...]``); the
    default is the lint pass's own ``repro-lint``.
    """

    __slots__ = ("_by_line", "malformed_lines", "tool")

    def __init__(self, source: str, tool: str = "repro-lint") -> None:
        self.tool = tool
        escaped = re.escape(tool)
        # ``ignore[rule-a, rule-b]`` inside a comment (whitespace-tolerant).
        pragma_re = re.compile(
            rf"#\s*{escaped}:\s*ignore\[([A-Za-z0-9_*,\s-]+)\]"
        )
        malformed_re = re.compile(rf"#\s*{escaped}:")
        self._by_line: dict[int, frozenset[str]] = {}
        #: Lines carrying a ``<tool>:`` comment that failed to parse.
        self.malformed_lines: list[int] = []
        for lineno, text in _comment_tokens(source):
            match = pragma_re.search(text)
            if match:
                rules = frozenset(
                    token.strip() for token in match.group(1).split(",")
                    if token.strip()
                )
                if rules:
                    self._by_line[lineno] = rules
                    continue
            if malformed_re.search(text):
                self.malformed_lines.append(lineno)

    def rules_by_line(self) -> dict[int, frozenset[str]]:
        """The parsed pragmas: physical line → ignored rule ids."""
        return dict(self._by_line)

    def is_ignored(self, rule: str, line: int) -> bool:
        """Whether *rule* is suppressed on physical *line*."""
        rules = self._by_line.get(line)
        if rules is None:
            return False
        return rule in rules or "*" in rules

    def __len__(self) -> int:
        return len(self._by_line)
