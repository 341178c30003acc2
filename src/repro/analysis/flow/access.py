"""Per-kernel column access sets, extracted from the AST.

The static half of the cross-check contract: for every kernel method the
pass computes which SoA columns it may *read*, which it may *write*, and
which message codes it may *send*.  The runtime sanitizer
(:mod:`repro.sim.fast.sanitize`) records the actual sets each round and
asserts ``observed ⊆ static`` — a kernel touching a column the static
pass did not predict means either the kernel grew an undeclared access
or the extractor went blind, and both deserve a loud failure.

Calls through ``self`` are resolved transitively within the class
(``regular_action`` → ``_ring_target`` → ``_probe_toward``), so the
published set for a kernel is the closure over its helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .model import SEND_CODES, FunctionLike, SoAResolver, iter_functions

__all__ = ["FunctionAccess", "extract_function_access", "class_access_sets"]


@dataclass(slots=True)
class FunctionAccess:
    """Column reads/writes, message sends and self-calls of one function."""

    name: str
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    sends: set[str] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)

    def to_dict(self) -> dict[str, list[str]]:
        return {
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "sends": sorted(self.sends),
            "calls": sorted(self.calls),
        }


def _send_code_of(call: ast.Call) -> str | None:
    """Message-code constant named by a send call, if any.

    Two shapes in the tree, both spelled ``send`` or ``_send``: the code
    first — ``Outbox.send(CODE, dest, …)`` and the batched kernels'
    ``self._send(CODE, mask, …)`` — or second, as in the scalar oracle's
    ``self._send(dest, CODE, …)`` (``tests/reference_mirror.py``).  Both
    pass the code as a bare ``Name`` of a known constant.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in ("send", "_send"):
        return None
    for node in call.args[:2]:
        if isinstance(node, ast.Name) and node.id in SEND_CODES:
            return node.id
    return None


def extract_function_access(
    func: FunctionLike, *, self_is_soa: bool = False
) -> FunctionAccess:
    """Reads/writes/sends/self-calls of *func*, non-transitively."""
    resolver = SoAResolver(func, self_is_soa=self_is_soa)
    access = FunctionAccess(func.name)

    # A column attribute is a *write* when it is (part of) a store
    # target; every other occurrence is a read.  Collect store-target
    # attribute nodes first so the single walk below can classify.
    store_bases: set[int] = set()
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            stored = resolver.store_column(target)
            if stored is not None:
                col = stored[0]
                access.writes.add(col)
                if isinstance(target, ast.Subscript):
                    base = target.value
                    store_bases.add(id(base))
                    if isinstance(base, ast.Subscript):
                        store_bases.add(id(base.value))
            elif resolver.column_of(target) is not None:
                # Whole-column rebind (``s.l = …``) — only _grow does
                # this; count it as a write.
                access.writes.add(resolver.column_of(target))  # type: ignore[arg-type]
                store_bases.add(id(target))
            if isinstance(node, ast.AugAssign):
                # ``s.age[idx] += 1`` reads the column too.
                col_rw = (
                    stored[0]
                    if stored is not None
                    else resolver.column_of(target)
                )
                if col_rw is not None:
                    access.reads.add(col_rw)

    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            col = resolver.column_of(node)
            if col is not None and id(node) not in store_bases:
                access.reads.add(col)
        elif isinstance(node, ast.Call):
            code = _send_code_of(node)
            if code is not None:
                access.sends.add(code)
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id == "self"
            ):
                access.calls.add(func_expr.attr)

    # View locals alias columns: reading/writing the view is
    # reading/writing the column.  The resolver already folded stores
    # through views; fold plain view reads here.
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            col = resolver.views.get(node.id)
            if col is not None:
                access.reads.add(col)
    return access


def class_access_sets(
    source: str, class_name: str
) -> dict[str, FunctionAccess]:
    """Access sets for every method of *class_name*, self-calls closed.

    The returned :class:`FunctionAccess` per method includes the
    reads/writes/sends of every method transitively reachable through
    ``self.<m>(...)`` calls within the same class.  Unknown callees
    (``self.soa.lookup`` resolves on the SoA object, not the class) are
    ignored — they are not methods of *class_name*.
    """
    tree = ast.parse(source)
    direct: dict[str, FunctionAccess] = {}
    for func, cls in iter_functions(tree):
        if cls == class_name and func.name not in direct:
            direct[func.name] = extract_function_access(func)

    closed: dict[str, FunctionAccess] = {}
    for name in direct:
        acc = FunctionAccess(name)
        seen: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen or current not in direct:
                continue
            seen.add(current)
            d = direct[current]
            acc.reads |= d.reads
            acc.writes |= d.writes
            acc.sends |= d.sends
            acc.calls |= d.calls
            stack.extend(d.calls)
        closed[name] = acc
    return closed
