"""Symbolic boolean-mask algebra for disjointness proofs.

The kernels build index sets by boolean masking:

``adopt = incoming < current`` … ``s.r[idx[adopt]] = nid``
``forget = ~keep``             … ``s.lrl[idx[forget]] = …``

Two fancy-indexed stores into the same column are conflict-free when
their masks are disjoint (assuming the rows that store hold unique
destinations — the precondition the runtime sanitizer owns: a writer
window's index vector is unique, a read-only window stores nothing).  This
module gives the static pass just enough propositional reasoning to
*prove* disjointness in the common cases:

* masks are tracked as symbolic expressions over opaque atoms, where an
  atom is a comparison/call the analysis cannot see into (``a < b``),
  keyed by its canonical source text plus the assignment *versions* of
  the names it mentions (so rebinding ``keep`` creates fresh atoms);
* ``~``, ``&`` and ``|`` compose symbolically, including the
  ``mask &= other`` / ``mask |= other`` update idiom;
* disjointness of ``m1`` and ``m2`` is decided by brute-force SAT over
  the union of their atoms (the kernels use ≤ 4 atoms per mask; the cap
  is 16).  Over the cap — or whenever either expression is unknown —
  the verdict is the safe "not provably disjoint".

This is deliberately *not* a full abstract interpreter: it only needs
to certify the ``m`` vs ``~m``-shaped splits the engine actually uses,
and to refuse to certify everything else.
"""

from __future__ import annotations

import ast
from itertools import product

__all__ = ["Expr", "MaskEnv", "provably_disjoint", "MAX_ATOMS"]

#: Symbolic boolean expression: nested tuples.
#: ``("true",)`` | ``("atom", key)`` | ``("not", e)`` |
#: ``("and", (e, ...))`` | ``("or", (e, ...))``
Expr = tuple

#: SAT cutoff — above this many distinct atoms we give up (safe: the
#: pair is reported as not provably disjoint).
MAX_ATOMS = 16

TRUE: Expr = ("true",)


def atoms_of(expr: Expr) -> frozenset[str]:
    kind = expr[0]
    if kind == "atom":
        return frozenset({expr[1]})
    if kind == "not":
        return atoms_of(expr[1])
    if kind in ("and", "or"):
        out: frozenset[str] = frozenset()
        for sub in expr[1]:
            out |= atoms_of(sub)
        return out
    return frozenset()


def _evaluate(expr: Expr, env: dict[str, bool]) -> bool:
    kind = expr[0]
    if kind == "true":
        return True
    if kind == "atom":
        return env[expr[1]]
    if kind == "not":
        return not _evaluate(expr[1], env)
    if kind == "and":
        return all(_evaluate(sub, env) for sub in expr[1])
    if kind == "or":
        return any(_evaluate(sub, env) for sub in expr[1])
    raise AssertionError(f"unknown expr kind {kind!r}")


def provably_disjoint(m1: Expr | None, m2: Expr | None) -> bool:
    """True iff ``m1 & m2`` is unsatisfiable over their shared atoms.

    ``None`` (unknown mask) and atom counts above :data:`MAX_ATOMS`
    both answer ``False`` — never claim disjointness we cannot prove.
    """
    if m1 is None or m2 is None:
        return False
    names = sorted(atoms_of(m1) | atoms_of(m2))
    if len(names) > MAX_ATOMS:
        return False
    for values in product((False, True), repeat=len(names)):
        env = dict(zip(names, values))
        if _evaluate(m1, env) and _evaluate(m2, env):
            return False
    return True


class MaskEnv:
    """Textual-order environment mapping mask names to symbolic exprs.

    Fed statements in source order by the rule walker.  Tracks a version
    counter per name so that a rebound name (``keep = …`` twice) yields
    distinct atoms, and so index-vector identity (``fidx = idx[forget]``)
    can be compared by ``(base, version)`` pairs.
    """

    __slots__ = ("exprs", "versions")

    def __init__(self) -> None:
        self.exprs: dict[str, Expr] = {}
        self.versions: dict[str, int] = {}

    # -- name versioning ------------------------------------------------
    def version(self, name: str) -> int:
        return self.versions.get(name, 0)

    def bump(self, name: str) -> None:
        self.versions[name] = self.version(name) + 1

    def _atom_key(self, node: ast.expr) -> str:
        """Canonical atom key: dump plus the versions of names inside."""
        names = sorted(
            {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        )
        tag = ",".join(f"{n}@{self.version(n)}" for n in names)
        return f"{ast.dump(node)}|{tag}"

    # -- expression building --------------------------------------------
    def expr_of(self, node: ast.expr) -> Expr:
        """Symbolic expression for a boolean-mask AST value."""
        if isinstance(node, ast.Name):
            known = self.exprs.get(node.id)
            if known is not None:
                return known
            return ("atom", self._atom_key(node))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            return ("not", self.expr_of(node.operand))
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            left = self.expr_of(node.left)
            right = self.expr_of(node.right)
            op = "and" if isinstance(node.op, ast.BitAnd) else "or"
            return (op, (left, right))
        # Comparisons, calls (np.isnan, …), subscripts: opaque atoms.
        return ("atom", self._atom_key(node))

    # -- statement feed -------------------------------------------------
    def observe_assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            # Build the RHS expr against *current* versions first.
            value = self.expr_of(node.value)
            self.bump(name)
            self.exprs[name] = value
        else:
            # Tuple unpacking etc.: invalidate the *bound* names only.
            # Names in Load context inside a subscript target
            # (``s.lrl[idx[m]] = …``) are reads — the store mutates the
            # column, not the already-materialized mask arrays.
            for target in node.targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        self.bump(n.id)
                        self.exprs.pop(n.id, None)

    def observe_augassign(self, node: ast.AugAssign) -> None:
        if not isinstance(node.target, ast.Name):
            return
        name = node.target.id
        current = self.exprs.get(name)
        if current is not None and isinstance(node.op, (ast.BitAnd, ast.BitOr)):
            operand = self.expr_of(node.value)
            op = "and" if isinstance(node.op, ast.BitAnd) else "or"
            self.bump(name)
            self.exprs[name] = (op, (current, operand))
        else:
            self.bump(name)
            self.exprs.pop(name, None)
