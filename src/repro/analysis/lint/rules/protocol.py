"""Compare-store-send and message-dispatch rules (paper §II, DESIGN.md §3).

The paper's correctness argument lives in the *compare-store-send* program
model of Nor/Nesterenko/Scheideler (Corona, SSS 2011): a handler may only
**compare** identifiers, **store** identifiers it already holds or has just
received, and **send** stored identifiers.  Handlers that fabricate
identifiers out of thin air (numeric literals), dispatch only part of the
message alphabet, or reach into another node's state or channel are outside
the model — the self-stabilization proofs say nothing about them.

These rules apply to every *protocol node class*: any class that defines an
``on_message`` method.  In this repository that is :class:`repro.core.node.Node`;
the rules are written structurally so future node implementations (batched,
accelerated) are covered automatically.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.lint.astutil import iter_value_literals, root_name
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.unit import ModuleUnit

__all__ = [
    "StoreLiteralRule",
    "SendLiteralRule",
    "DispatchCompleteRule",
    "ForeignMutationRule",
    "protocol_node_classes",
]

#: The identifier-holding fields of ``NodeState`` (paper §III's internal
#: variables p.l, p.r, p.lrl, p.ring).  ``age`` is a step counter, not an
#: identifier, and is exempt.
PROTECTED_FIELDS = frozenset({"l", "r", "lrl", "ring"})

#: The paper's seven message types (§III) — ``on_message`` must dispatch
#: every one of them.
MESSAGE_TYPE_NAMES = frozenset(
    {"LIN", "INCLRL", "RESLRL", "RING", "RESRING", "PROBR", "PROBL"}
)

#: Message constructor helpers of :mod:`repro.core.messages`.
MESSAGE_CONSTRUCTORS = frozenset(
    {"lin", "inclrl", "reslrl", "ring", "resring", "probr", "probl", "Message"}
)

#: Names through which a handler hands a message to the transport.
SEND_NAMES = frozenset({"send", "_send"})


def _callee_name(call: ast.Call) -> str | None:
    """The simple name a call dispatches through (``f(...)``/``o.f(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_protocol_call(call: ast.Call) -> bool:
    """Whether *call* is a send or message-constructor call site."""
    called = _callee_name(call)
    return called in SEND_NAMES or called in MESSAGE_CONSTRUCTORS


def protocol_node_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Yield every class in *tree* that defines an ``on_message`` method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "on_message"
            for item in node.body
        ):
            yield node


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item


def _self_aliases(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound (directly or transitively) to ``self`` or its attributes.

    Tracks the protocol idiom ``p = self.state``: storing through ``p`` is
    storing through ``self``.  The first positional parameter is the seed.
    """
    aliases: set[str] = set()
    if func.args.args:
        aliases.add(func.args.args[0].arg)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            root = root_name(node.value)
            if root is None or root not in aliases:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in aliases:
                    aliases.add(target.id)
                    changed = True
    return aliases


def _unpack_target(
    target: ast.expr, value: ast.expr
) -> Iterator[tuple[ast.expr, ast.expr]]:
    """Flatten tuple/list/starred assignment targets into leaf pairs.

    ``self.state.l, other.state.r = a, b`` pairs each leaf target with its
    positionally matching value; when the value side cannot be split
    (a function call, mismatched lengths, a starred target), every leaf
    target is paired with the whole value expression.
    """
    if isinstance(target, ast.Starred):
        yield from _unpack_target(target.value, value)
        return
    if isinstance(target, (ast.Tuple, ast.List)):
        elts = target.elts
        if (
            isinstance(value, (ast.Tuple, ast.List))
            and len(value.elts) == len(elts)
            and not any(isinstance(e, ast.Starred) for e in elts)
        ):
            for t, v in zip(elts, value.elts):
                yield from _unpack_target(t, v)
        else:
            for t in elts:
                yield from _unpack_target(t, value)
        return
    yield target, value


def _assignment_targets_and_values(
    node: ast.stmt,
) -> Iterator[tuple[ast.expr, ast.expr]]:
    """Yield leaf ``(target, value)`` pairs for plain/aug/annotated
    assignments, recursing through tuple-unpacking targets."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _unpack_target(target, node.value)
    elif isinstance(node, ast.AugAssign):
        yield node.target, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target, node.value


class StoreLiteralRule(Rule):
    """Numeric literal stored into an identifier field of the node state."""

    id = "store-literal"
    severity = Severity.ERROR
    summary = (
        "handler stores a numeric literal into an identifier field "
        "(p.l/p.r/p.lrl/p.ring)"
    )
    grounding = (
        "compare-store-send model (Nor/Nesterenko/Scheideler, Corona): "
        "stored identifiers must originate from parameters, existing state, "
        "or the ±inf sentinels — never from literals"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for cls in protocol_node_classes(module.tree):
            for method in _methods(cls):
                for stmt in ast.walk(method):
                    for target, value in _assignment_targets_and_values(stmt):
                        if not (
                            isinstance(target, ast.Attribute)
                            and target.attr in PROTECTED_FIELDS
                        ):
                            continue
                        for literal in iter_value_literals(value):
                            yield self.finding(
                                module,
                                literal,
                                f"literal {literal.value!r} stored into "
                                f"identifier field '{target.attr}' in "
                                f"{cls.name}.{method.name}; identifiers must "
                                f"come from the message, existing state, or "
                                f"the ±inf sentinels",
                            )


class SendLiteralRule(Rule):
    """Numeric literal used as a send destination or message payload."""

    id = "send-literal"
    severity = Severity.ERROR
    summary = (
        "handler sends a numeric literal as a destination or message payload"
    )
    grounding = (
        "compare-store-send model: sent identifiers must be held or received, "
        "never fabricated; paper §III's handlers only forward known ids"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for cls in protocol_node_classes(module.tree):
            for method in _methods(cls):
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    called = _callee_name(node)
                    if called not in SEND_NAMES and called not in MESSAGE_CONSTRUCTORS:
                        continue
                    for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                        # Nested send/constructor calls are call sites of
                        # their own in this walk, so prune them here to
                        # report each literal exactly once.  Any *other*
                        # call (a helper laundering a literal payload) is
                        # descended into.
                        for literal in iter_value_literals(
                            arg, skip_call=_is_protocol_call
                        ):
                            yield self.finding(
                                module,
                                literal,
                                f"literal {literal.value!r} passed to "
                                f"'{called}' in {cls.name}.{method.name}; "
                                f"destinations and payloads must be stored "
                                f"or received identifiers",
                            )


class DispatchCompleteRule(Rule):
    """``on_message`` must dispatch all seven paper message types."""

    id = "dispatch-complete"
    severity = Severity.ERROR
    summary = (
        "on_message must handle all seven message types "
        "(lin, inclrl, reslrl, ring, resring, probr, probl)"
    )
    grounding = (
        "paper §III defines exactly seven message types; fair message "
        "receipt (§II-B) assumes every received message is processed — an "
        "undispatched type silently violates it"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for cls in protocol_node_classes(module.tree):
            referenced: set[str] = set()
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "MessageType"
                ):
                    referenced.add(node.attr)
            missing = sorted(MESSAGE_TYPE_NAMES - referenced)
            if missing:
                anchor = next(
                    m for m in _methods(cls) if m.name == "on_message"
                )
                yield self.finding(
                    module,
                    anchor,
                    f"{cls.name}.on_message never dispatches message "
                    f"type(s) {', '.join(missing)}; all seven paper "
                    f"message types need a handler",
                )


#: Constructor names whose call (like a display literal) yields a fresh,
#: method-local object: mutating it is not foreign mutation.
_FRESH_CONTAINER_FACTORIES = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque",
     "Counter", "OrderedDict"}
)


def _is_fresh_container(value: ast.expr) -> bool:
    """Whether *value* constructs a new object owned by the enclosing scope."""
    return isinstance(
        value,
        (ast.Dict, ast.List, ast.Set, ast.Tuple,
         ast.ListComp, ast.SetComp, ast.DictComp),
    ) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in _FRESH_CONTAINER_FACTORIES
    )


def _local_container_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names bound to freshly constructed containers inside *func*.

    Writing ``buf[k] = v`` on such a name mutates handler-local scratch
    state, not another node — the foreign-mutation rule exempts them.
    """
    names: set[str] = set()
    for stmt in ast.walk(func):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        for target, value in _assignment_targets_and_values(stmt):
            if isinstance(target, ast.Name) and _is_fresh_container(value):
                names.add(target.id)
    return names


class ForeignMutationRule(Rule):
    """Handlers may only mutate their own state — never peers or channels."""

    id = "foreign-mutation"
    severity = Severity.ERROR
    summary = (
        "handler mutates another node's state or touches a channel directly"
    )
    grounding = (
        "message-passing model (§II-A): nodes share no memory; only the "
        "simulation engine and Channel may move messages, and only a node "
        "may write its own internal variables"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for cls in protocol_node_classes(module.tree):
            for method in _methods(cls):
                aliases = _self_aliases(method)
                owned = aliases | _local_container_names(method)
                for stmt in ast.walk(method):
                    for target, _value in _assignment_targets_and_values(stmt):
                        if not isinstance(target, (ast.Attribute, ast.Subscript)):
                            continue
                        root = root_name(target)
                        if root is not None and root not in owned:
                            yield self.finding(
                                module,
                                target,
                                f"{cls.name}.{method.name} writes through "
                                f"'{root}', which is not this node's own "
                                f"state; handlers may only mutate their own "
                                f"internal variables",
                            )
                for node in ast.walk(method):
                    if isinstance(node, ast.Attribute) and node.attr == "channel":
                        yield self.finding(
                            module,
                            node,
                            f"{cls.name}.{method.name} touches a channel "
                            f"directly; only the simulation engine and "
                            f"Channel may enqueue or drain messages",
                        )
