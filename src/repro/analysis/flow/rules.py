"""The flow pass's hazard rules.

Four error-severity rules, each enforcing one clause of the vectorized
kernels' discipline (the invariant ``repro/sim/fast/kernels.py`` states
but — before this pass — asserted nowhere):

* ``flow-write-write`` — two vector-indexed stores into the same SoA
  column whose masks are not provably disjoint;
* ``flow-read-after-write`` — a column read *after* a vector store to it
  in the same kernel, instead of once at entry;
* ``flow-inplace-alias`` — ``+=``/``out=`` on a column, slice or view
  whose right-hand side reads the same column (overlapping in-place
  update, undefined element order);
* ``flow-branch-rng`` — an RNG draw inside a loop or data-dependent
  branch, which breaks a draw-for-draw replay (``tests/reference_mirror.py``).

Scalar-indexed stores are exempt from the first two rules: that oracle's
handlers are deliberate scalar ports whose sequential same-slot
rewrites are well-defined.  The runtime sanitizer
(:mod:`repro.sim.fast.sanitize`) owns the complementary *dynamic* half:
uniqueness of the actual integer index vectors.

``FLOW_RULES_BY_ID`` is the pass's registry; ``analyze_source`` and
``analyze_paths`` run it on the lint engine under the ``repro-flow``
pragma prefix.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.analysis.lint.engine import lint_paths, lint_source
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.unit import ModuleUnit

from .masks import TRUE, Expr, MaskEnv, provably_disjoint
from .model import DRAW_METHODS, SOA_CLASS, FunctionLike, SoAResolver, iter_functions

__all__ = [
    "TOOL",
    "WriteWriteRule",
    "ReadAfterWriteRule",
    "InplaceAliasRule",
    "BranchRngRule",
    "FLOW_RULES",
    "FLOW_RULES_BY_ID",
    "analyze_source",
    "analyze_paths",
]

#: The pass's tool name: its pragma prefix, CLI ``prog`` and "clean" word.
TOOL = "repro-flow"


def _function_units(unit: ModuleUnit) -> Iterator[tuple[FunctionLike, SoAResolver]]:
    for func, cls in iter_functions(unit.tree):
        yield func, SoAResolver(func, self_is_soa=(cls == SOA_CLASS))


def _store_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _store_base_ids(stmt: ast.stmt, resolver: SoAResolver) -> set[int]:
    """AST node ids of column attributes that are store-target bases.

    In ``s.lrl[fidx] = x`` the inner ``s.lrl`` attribute has Load
    context; these nodes must not be counted as column *reads*.
    """
    bases: set[int] = set()
    for target in _store_targets(stmt):
        if resolver.store_column(target) is None:
            continue
        if isinstance(target, ast.Subscript):
            base = target.value
            bases.add(id(base))
            if isinstance(base, ast.Subscript):
                bases.add(id(base.value))
    return bases


# ----------------------------------------------------------------------
# (a) write-write hazards
# ----------------------------------------------------------------------

#: Index descriptor of one vector store: ``(base name, base version,
#: mask expr)`` — or ``None`` when the shape is unrecognized.
_IndexRef = tuple[str, int, Expr] | None


class WriteWriteRule(Rule):
    """Two fancy-indexed stores to one column whose masks may overlap."""

    id = "flow-write-write"
    severity = Severity.ERROR
    summary = (
        "two vector-indexed stores into the same SoA column with masks "
        "not provably disjoint"
    )
    grounding = (
        "kernels.py invariant: within one handler call no fancy-indexed "
        "store may hit the same slot twice — what makes a vector store "
        "the same as the per-row stores it replaces"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for func, resolver in _function_units(unit):
            yield from self._check_function(unit, func, resolver)

    def _check_function(
        self, unit: ModuleUnit, func: FunctionLike, resolver: SoAResolver
    ) -> Iterator[Finding]:
        env = MaskEnv()
        #: name → index descriptor for locals like ``fidx = idx[forget]``.
        subrefs: dict[str, _IndexRef] = {}
        #: column → list of (descriptor, store node) in textual order.
        stores: dict[str, list[tuple[_IndexRef, ast.stmt]]] = {}
        emitted: set[tuple[int, int]] = set()

        def index_ref(index: ast.expr) -> _IndexRef:
            if isinstance(index, ast.Name):
                if index.id in subrefs:
                    return subrefs[index.id]
                return (index.id, env.version(index.id), TRUE)
            if (
                isinstance(index, ast.Subscript)
                and isinstance(index.value, ast.Name)
                and not isinstance(index.slice, ast.Slice)
            ):
                base = index.value.id
                return (base, env.version(base), env.expr_of(index.slice))
            return None

        def record_store(stmt: ast.stmt, target: ast.expr) -> Iterator[Finding]:
            stored = resolver.store_column(target)
            if stored is None:
                return
            col, index = stored
            if resolver.is_scalar_index(index):
                return
            ref = index_ref(index)
            for prev_ref, prev_stmt in stores.setdefault(col, []):
                if (
                    prev_ref is not None
                    and ref is not None
                    and prev_ref[0] == ref[0]
                    and prev_ref[1] == ref[1]
                    and provably_disjoint(prev_ref[2], ref[2])
                ):
                    continue
                key = (stmt.lineno, stmt.col_offset)
                if key in emitted:
                    continue
                emitted.add(key)
                yield self.finding(
                    unit,
                    stmt,
                    f"second vector store into column '{col}' in "
                    f"'{func.name}' (first at line {prev_stmt.lineno}); "
                    "index masks are not provably disjoint",
                )
            stores[col].append((ref, stmt))

        def walk(body: list[ast.stmt]) -> Iterator[Finding]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # analyzed as its own function
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        yield from record_store(stmt, target)
                    if len(stmt.targets) == 1 and isinstance(
                        stmt.targets[0], ast.Name
                    ):
                        subrefs[stmt.targets[0].id] = index_ref(stmt.value)
                    env.observe_assign(stmt)
                elif isinstance(stmt, ast.AugAssign):
                    yield from record_store(stmt, stmt.target)
                    env.observe_augassign(stmt)
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    yield from record_store(stmt, stmt.target)
                elif isinstance(stmt, ast.If):
                    yield from walk(stmt.body)
                    yield from walk(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.While)):
                    yield from walk(stmt.body)
                    yield from walk(stmt.orelse)
                elif isinstance(stmt, ast.With):
                    yield from walk(stmt.body)
                elif isinstance(stmt, ast.Try):
                    yield from walk(stmt.body)
                    for handler in stmt.handlers:
                        yield from walk(handler.body)
                    yield from walk(stmt.orelse)
                    yield from walk(stmt.finalbody)

        yield from walk(func.body)


# ----------------------------------------------------------------------
# (b) read-after-write aliasing
# ----------------------------------------------------------------------


class ReadAfterWriteRule(Rule):
    """A column read after a vector store to it in the same kernel."""

    id = "flow-read-after-write"
    severity = Severity.ERROR
    summary = (
        "SoA column read after a vector store to it in the same kernel "
        "(columns must be read once at entry)"
    )
    grounding = (
        "kernels.py discipline: every column is pre-read at handler "
        "entry so the batched semantics stay 'faithful, not a race'"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for func, resolver in _function_units(unit):
            yield from self._check_function(unit, func, resolver)

    def _check_function(
        self, unit: ModuleUnit, func: FunctionLike, resolver: SoAResolver
    ) -> Iterator[Finding]:
        emitted: set[tuple[int, int, str]] = set()

        def report_reads(
            node: ast.AST, tainted: set[str], store_bases: set[int]
        ) -> Iterator[Finding]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and id(sub) not in store_bases:
                    col = resolver.column_of(sub)
                    if col is not None and col in tainted:
                        key = (sub.lineno, sub.col_offset, col)
                        if key in emitted:
                            continue
                        emitted.add(key)
                        yield self.finding(
                            unit,
                            sub,
                            f"column '{col}' read after a vector store to "
                            f"it in '{func.name}'; read it once at entry "
                            "or suppress with justification if the "
                            "re-read is deliberate",
                        )

        def leaf(stmt: ast.stmt, tainted: set[str]) -> Iterator[Finding]:
            # Reads first: the RHS is evaluated before the store lands.
            yield from report_reads(stmt, tainted, _store_base_ids(stmt, resolver))
            if isinstance(stmt, ast.AugAssign):
                stored = resolver.store_column(stmt.target)
                if stored is not None and stored[0] in tainted:
                    key = (stmt.lineno, stmt.col_offset, stored[0])
                    if key not in emitted:
                        emitted.add(key)
                        yield self.finding(
                            unit,
                            stmt,
                            f"column '{stored[0]}' read after a vector "
                            f"store to it in '{func.name}' (augmented "
                            "assignment reads its target)",
                        )
            # Then writes: only vector stores taint.
            for target in _store_targets(stmt):
                stored = resolver.store_column(target)
                if stored is not None and not resolver.is_scalar_index(stored[1]):
                    tainted.add(stored[0])

        def walk(body: list[ast.stmt], tainted: set[str]) -> Iterator[Finding]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.If):
                    yield from report_reads(stmt.test, tainted, set())
                    then_taint = set(tainted)
                    else_taint = set(tainted)
                    yield from walk(stmt.body, then_taint)
                    yield from walk(stmt.orelse, else_taint)
                    tainted |= then_taint | else_taint
                elif isinstance(stmt, (ast.For, ast.While)):
                    header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                    yield from report_reads(header, tainted, set())
                    # Twice: the second pass sees loop-carried taint.
                    yield from walk(stmt.body, tainted)
                    yield from walk(stmt.body, tainted)
                    yield from walk(stmt.orelse, tainted)
                elif isinstance(stmt, ast.With):
                    yield from walk(stmt.body, tainted)
                elif isinstance(stmt, ast.Try):
                    yield from walk(stmt.body, tainted)
                    for handler in stmt.handlers:
                        yield from walk(handler.body, tainted)
                    yield from walk(stmt.orelse, tainted)
                    yield from walk(stmt.finalbody, tainted)
                else:
                    yield from leaf(stmt, tainted)

        yield from walk(func.body, set())


# ----------------------------------------------------------------------
# (c) in-place aliasing
# ----------------------------------------------------------------------


def _reads_column(node: ast.AST, resolver: SoAResolver, col: str) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and resolver.column_of(sub) == col:
            return True
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and resolver.views.get(sub.id) == col
        ):
            return True
    return False


class InplaceAliasRule(Rule):
    """An in-place update whose right-hand side aliases its target."""

    id = "flow-inplace-alias"
    severity = Severity.ERROR
    summary = (
        "in-place op (+=, out=) on a column/slice/view whose RHS reads "
        "the same column (overlapping update, undefined element order)"
    )
    grounding = (
        "numpy in-place semantics: overlapping source/destination make "
        "the result depend on traversal order — a silent wrong answer "
        "today, a true race once columns are shared"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for func, resolver in _function_units(unit):
            for node in ast.walk(func):
                if isinstance(node, ast.AugAssign):
                    yield from self._check_augassign(unit, resolver, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_out_kwarg(unit, resolver, node)

    def _aliasing_target_col(
        self, resolver: SoAResolver, target: ast.expr
    ) -> str | None:
        """Column when *target* is the whole column, a basic slice of
        it, or a view local — the shapes where an in-place op can
        overlap its own input.  Fancy/boolean-indexed targets are left
        to the runtime sanitizer's uniqueness check."""
        col = resolver.column_or_view(target)
        if col is not None:
            return col
        if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Slice):
            return resolver.column_or_view(target.value)
        return None

    def _check_augassign(
        self, unit: ModuleUnit, resolver: SoAResolver, node: ast.AugAssign
    ) -> Iterator[Finding]:
        col = self._aliasing_target_col(resolver, node.target)
        if col is None:
            return
        if _reads_column(node.value, resolver, col):
            yield self.finding(
                unit,
                node,
                f"in-place update of column '{col}' reads '{col}' on the "
                "right-hand side; the views may overlap — compute into a "
                "temporary instead",
            )

    def _check_out_kwarg(
        self, unit: ModuleUnit, resolver: SoAResolver, node: ast.Call
    ) -> Iterator[Finding]:
        out = next((kw.value for kw in node.keywords if kw.arg == "out"), None)
        if out is None:
            return
        col = self._aliasing_target_col(resolver, out)
        if col is None:
            return
        if any(_reads_column(arg, resolver, col) for arg in node.args):
            yield self.finding(
                unit,
                node,
                f"out= targets column '{col}' while an argument reads "
                f"'{col}'; the views may overlap — compute into a "
                "temporary instead",
            )


# ----------------------------------------------------------------------
# (d) RNG draw discipline
# ----------------------------------------------------------------------


def _is_draw(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in DRAW_METHODS):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id.endswith("rng")
    if isinstance(receiver, ast.Attribute):
        return receiver.attr.endswith("rng")
    return False


def _config_pure(test: ast.expr) -> bool:
    """Whether a branch test depends only on configuration, not data.

    Allowed: boolean/comparison structure over constants and attribute
    chains rooted at a plain name (``inj.mode == "hash"``).  Any call,
    subscript, or bare data name makes the test data-dependent.
    """

    def pure(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.BoolOp):
            return all(pure(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return pure(node.operand)
        if isinstance(node, ast.Compare):
            return pure(node.left) and all(pure(c) for c in node.comparators)
        if isinstance(node, ast.Attribute):
            base: ast.expr = node
            while isinstance(base, ast.Attribute):
                base = base.value
            return isinstance(base, ast.Name)
        return False

    return pure(test)


class BranchRngRule(Rule):
    """An RNG draw inside a loop or data-dependent branch of a kernel."""

    id = "flow-branch-rng"
    severity = Severity.ERROR
    summary = (
        "RNG draw inside a loop or data-dependent branch (breaks "
        "draw-for-draw replay against the reference round)"
    )
    grounding = (
        "the differential tests are bit-exact only because both engines "
        "consume draws in identical order; a data-dependent draw count "
        "desynchronizes the streams"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        in_fast_tree = "/sim/fast" in unit.path.replace("\\", "/")
        for func, resolver in _function_units(unit):
            if not in_fast_tree and not resolver.accesses_columns(func):
                continue
            yield from self._check_function(unit, func)

    def _check_function(self, unit: ModuleUnit, func: FunctionLike) -> Iterator[Finding]:
        emitted: set[tuple[int, int]] = set()

        def draws_in(node: ast.AST) -> Iterator[ast.Call]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and _is_draw(sub):
                    yield sub

        def report(call: ast.Call, why: str) -> Iterator[Finding]:
            key = (call.lineno, call.col_offset)
            if key in emitted:
                return
            emitted.add(key)
            yield self.finding(
                unit,
                call,
                f"RNG draw inside {why} in '{func.name}'; draw counts "
                "must not depend on data (hoist the draw or suppress "
                "with justification if both engines match draw-for-draw)",
            )

        def scan_exprs(stmt: ast.stmt, hazard: str | None) -> Iterator[Finding]:
            if hazard is None:
                return
            for call in draws_in(stmt):
                yield from report(call, hazard)

        def walk(body: list[ast.stmt], hazard: str | None) -> Iterator[Finding]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(stmt, ast.If):
                    # The test itself runs unconditionally at this level.
                    for call in draws_in(stmt.test):
                        if hazard is not None:
                            yield from report(call, hazard)
                    inner = hazard
                    if inner is None and not _config_pure(stmt.test):
                        inner = "a data-dependent branch"
                    yield from walk(stmt.body, inner)
                    yield from walk(stmt.orelse, inner)
                elif isinstance(stmt, (ast.For, ast.While)):
                    header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                    for call in draws_in(header):
                        if hazard is not None:
                            yield from report(call, hazard)
                    yield from walk(stmt.body, "a loop")
                    yield from walk(stmt.orelse, "a loop")
                elif isinstance(stmt, ast.With):
                    yield from walk(stmt.body, hazard)
                elif isinstance(stmt, ast.Try):
                    yield from walk(stmt.body, hazard)
                    for handler in stmt.handlers:
                        yield from walk(handler.body, hazard)
                    yield from walk(stmt.orelse, hazard)
                    yield from walk(stmt.finalbody, hazard)
                else:
                    yield from scan_exprs(stmt, hazard)

        yield from walk(func.body, None)


FLOW_RULES: tuple[Rule, ...] = (
    WriteWriteRule(),
    ReadAfterWriteRule(),
    InplaceAliasRule(),
    BranchRngRule(),
)

FLOW_RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in FLOW_RULES}


def analyze_source(
    path: str,
    source: str,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Run *rules* (default: all flow rules) over one in-memory module."""
    return lint_source(path, source, rules, registry=FLOW_RULES_BY_ID, tool=TOOL)


def analyze_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Run *rules* (default: all) over every ``.py`` file under *paths*."""
    return lint_paths(paths, rules, registry=FLOW_RULES_BY_ID, tool=TOOL)
