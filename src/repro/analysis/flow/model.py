"""Shared AST model of the flow pass: what counts as a SoA column access.

Everything here is name-resolution heuristics grounded in the actual
idioms of :mod:`repro.sim.fast`:

* kernels alias the container once (``s = self.soa``) and then read/write
  ``s.<col>[...]``;
* module-level helpers receive the container as a parameter annotated
  ``SoAState`` (or literally named ``soa``), or alias it from an engine
  (``soa = engine.soa``);
* :class:`~repro.sim.fast.soa.SoAState`'s own methods access columns as
  ``self.<col>``.

A name that merely *looks* like a column (``alive`` on
``BatchedGuard``, a local array called ``ids``) never resolves — the
resolver requires the chain to be rooted in a recognized SoA container.

The module is stdlib-only (pure :mod:`ast`), like the rest of the
analysis package — the no-deps CI stage runs it before numpy exists.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

__all__ = [
    "SOA_COLUMNS",
    "SOA_CLASS",
    "SEND_CODES",
    "DRAW_METHODS",
    "SoAResolver",
    "iter_functions",
    "FunctionLike",
]

#: The seven SoA columns (see :class:`repro.sim.fast.soa.SoAState`).
SOA_COLUMNS = frozenset({"ids", "l", "r", "lrl", "ring", "age", "alive"})

#: The container class whose methods access columns via ``self``.
SOA_CLASS = "SoAState"

#: Message-code constant names (:mod:`repro.sim.fast.buffers` order).
SEND_CODES = ("LIN", "INCLRL", "RESLRL", "RING", "RESRING", "PROBR", "PROBL")

#: Generator methods that consume random draws (receiver must end in
#: ``rng``; covers ``rng``, ``self.rng``, ``inj.rng``, ``churn_rng``...).
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "choice",
        "permutation",
        "shuffle",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "binomial",
        "poisson",
        "geometric",
    }
)

FunctionLike = ast.FunctionDef | ast.AsyncFunctionDef


def iter_functions(tree: ast.Module) -> Iterator[tuple[FunctionLike, str | None]]:
    """Yield every function definition with its owning class name.

    Module-level functions yield ``(func, None)``; methods yield
    ``(func, class_name)``.  Nested defs inherit the enclosing class.
    """

    def visit(node: ast.AST, cls: str | None) -> Iterator[tuple[FunctionLike, str | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, cls
                yield from visit(child, cls)
            else:
                yield from visit(child, cls)

    yield from visit(tree, None)


def _annotation_text(node: ast.expr | None) -> str:
    if node is None:
        return ""
    return ast.unparse(node)


def _all_args(func: FunctionLike) -> list[ast.arg]:
    a = func.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


class SoAResolver:
    """Per-function resolution of expressions to SoA columns.

    Three layers of recognition:

    * **roots** — names bound to a SoA container (``soa`` parameters,
      ``SoAState``-annotated parameters, ``x = <expr>.soa`` aliases, and
      ``self`` inside the :data:`SOA_CLASS` body);
    * **columns** — ``<root>.<col>`` / ``<expr>.soa.<col>`` attributes;
    * **views** — locals aliasing a column array or a basic slice of one
      (``v = s.l`` / ``v = s.l[1:]``); fancy/boolean subscripts copy, so
      they are deliberately *not* views.
    """

    __slots__ = ("roots", "views", "scalar_names", "self_is_soa")

    def __init__(self, func: FunctionLike, *, self_is_soa: bool = False) -> None:
        self.self_is_soa = self_is_soa
        self.roots: set[str] = set()
        self.views: dict[str, str] = {}
        #: Names statically known to hold scalar indices (int-annotated
        #: params, loop targets, ``int(...)`` results).
        self.scalar_names: set[str] = set()

        for arg in _all_args(func):
            annotation = _annotation_text(arg.annotation)
            if arg.arg == "soa" or "SoAState" in annotation:
                self.roots.add(arg.arg)
            if annotation.strip("\"'") == "int":
                self.scalar_names.add(arg.arg)

        # Pass 1: root aliases (``s = self.soa``) and scalar bindings.
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                for name in ast.walk(node.target):
                    if isinstance(name, ast.Name):
                        self.scalar_names.add(name.id)
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            target = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "soa":
                self.roots.add(target)
            if _is_scalar_producer(value):
                self.scalar_names.add(target)

        # Pass 2: view locals (needs roots resolved first).
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                continue
            target = node.targets[0].id
            value = node.value
            col = self.column_of(value)
            if col is not None:
                self.views[target] = col
                continue
            if (
                isinstance(value, ast.Subscript)
                and isinstance(value.slice, ast.Slice)
                and self.column_of(value.value) is not None
            ):
                self.views[target] = self.column_of(value.value)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def column_of(self, expr: ast.expr) -> str | None:
        """Column name when *expr* denotes a full SoA column array."""
        if not (isinstance(expr, ast.Attribute) and expr.attr in SOA_COLUMNS):
            return None
        base = expr.value
        if isinstance(base, ast.Name):
            if base.id in self.roots:
                return expr.attr
            if base.id == "self" and self.self_is_soa:
                return expr.attr
            return None
        if isinstance(base, ast.Attribute) and base.attr == "soa":
            return expr.attr
        return None

    def view_column_of(self, expr: ast.expr) -> str | None:
        """Column a view-local aliases, or ``None``."""
        if isinstance(expr, ast.Name):
            return self.views.get(expr.id)
        return None

    def column_or_view(self, expr: ast.expr) -> str | None:
        """Column behind *expr*, whether direct or through a view local."""
        return self.column_of(expr) or self.view_column_of(expr)

    def store_column(self, target: ast.expr) -> tuple[str, ast.expr] | None:
        """``(column, index_expr)`` when *target* stores into a column.

        Recognized shapes: ``col[i]``, ``view[i]``, ``col[:n][i]`` (the
        chained-slice idiom of ``scrub_departed``).
        """
        if not isinstance(target, ast.Subscript):
            return None
        base = target.value
        col = self.column_or_view(base)
        if col is not None:
            return col, target.slice
        if (
            isinstance(base, ast.Subscript)
            and isinstance(base.slice, ast.Slice)
            and self.column_of(base.value) is not None
        ):
            return self.column_of(base.value), target.slice  # type: ignore[return-value]
        return None

    def is_scalar_index(self, expr: ast.expr) -> bool:
        """Whether an index expression is statically a scalar.

        Scalar stores execute sequentially — same-slot rewrites are
        well-defined — so they are exempt from the vectorized
        conflict-freedom rules (the handlers of the scalar oracle,
        ``tests/reference_mirror.py``, are scalar ports by design).
        """
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, int)
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.operand, ast.Constant):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.scalar_names
        if _is_scalar_producer(expr):
            return True
        return False

    def accesses_columns(self, func: FunctionLike) -> bool:
        """Whether the function touches any SoA column at all."""
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and self.column_of(node) is not None:
                return True
        return False


def _is_scalar_producer(expr: ast.expr) -> bool:
    """Calls statically known to return a scalar index (``int(...)``)."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    return isinstance(func, ast.Name) and func.id == "int"
