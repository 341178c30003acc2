"""The per-file unit of analysis handed to every rule.

A :class:`ModuleUnit` bundles what a rule needs to inspect one Python
module: its path, raw source, parsed AST, and the inline suppression
pragmas of the pass that reads it (``# <tool>: ignore[...]``).  Rules
stay stateless; everything file-specific flows through this object.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.ignores import IgnorePragmas

__all__ = ["ModuleUnit"]


class ModuleUnit:
    """One parsed source file under analysis."""

    __slots__ = ("path", "source", "tree", "ignores")

    def __init__(
        self, path: str, source: str, tree: ast.Module, tool: str = "repro-lint"
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.ignores = IgnorePragmas(source, tool)

    @classmethod
    def from_source(
        cls, path: str, source: str, tool: str = "repro-lint"
    ) -> "ModuleUnit":
        """Parse *source* (raises :class:`SyntaxError` on bad input)."""
        return cls(path, source, ast.parse(source, filename=path), tool)

    def finding(
        self,
        rule_id: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored at *node*'s location."""
        return Finding(
            rule=rule_id,
            severity=severity,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )
