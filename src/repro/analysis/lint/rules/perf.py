"""Performance-discipline rules for the struct-of-arrays engine.

One advisory rule (the empty warning-severity slot the ROADMAP reserved):
``scalar-loop-over-soa`` flags Python-level ``for`` loops that index SoA
columns element-by-element inside ``repro.sim.fast``.  The SoA layout
exists so per-round work runs as vectorized kernels; a scalar loop over
its columns is usually a porting shortcut that silently costs 10–100×
(the ROADMAP names the PointerCorruption/CrashRestart injectors).  Where
the loop is deliberate it carries a
``# repro-lint: ignore[scalar-loop-over-soa]`` pragma with its
justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.unit import ModuleUnit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.flow.model import SoAResolver

__all__ = ["ScalarLoopOverSoaRule"]


class ScalarLoopOverSoaRule(Rule):
    """Element-wise Python loop over SoA columns in the fast engine."""

    id: ClassVar[str] = "scalar-loop-over-soa"
    severity: ClassVar[Severity] = Severity.ERROR
    summary: ClassVar[str] = (
        "Python-level for loop indexes SoA columns element-by-element "
        "inside repro.sim.fast (vectorize or justify with a pragma)"
    )
    grounding: ClassVar[str] = (
        "the SoA engine's whole point is batched kernels (docs/PERF.md); "
        "scalar loops over its columns reintroduce the per-node Python "
        "overhead the layout exists to eliminate"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        if "/sim/fast" not in module.path.replace("\\", "/"):
            return
        # Imported lazily: repro.analysis.flow depends on this package's
        # engine, so a module-level import would be circular at
        # package-init time.  Both packages are stdlib-only.
        from repro.analysis.flow.model import SOA_CLASS, SoAResolver, iter_functions

        for func, cls in iter_functions(module.tree):
            resolver = SoAResolver(func, self_is_soa=(cls == SOA_CLASS))
            if not resolver.roots and not resolver.self_is_soa:
                continue
            for loop in ast.walk(func):
                if not isinstance(loop, ast.For):
                    continue
                offender = self._first_scalar_subscript(loop, resolver)
                if offender is not None:
                    yield self.finding(
                        module,
                        offender,
                        f"for loop in '{func.name}' indexes SoA columns "
                        "element-by-element; batch the access as a "
                        "vectorized kernel, or keep the loop with a "
                        "pragma justifying it (draw-for-draw fault "
                        "ports, boundary snapshots)",
                    )

    @staticmethod
    def _first_scalar_subscript(
        loop: ast.For, resolver: "SoAResolver"
    ) -> ast.Subscript | None:
        """First ``col[i]`` in *loop*'s body with a statically-scalar
        index (one finding per loop keeps the report readable)."""
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Subscript)
                    and resolver.column_or_view(node.value) is not None
                    and resolver.is_scalar_index(node.slice)
                ):
                    return node
        return None
