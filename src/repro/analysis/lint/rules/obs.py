"""Observability-discipline rule for the hot wave loop.

One advisory rule (ISSUE 9): ``obs-blocking-in-wave`` flags blocking I/O
inside the kernel / wave-dispatch modules of ``repro.sim.fast``.  The
telemetry plane is built so the wave loop never blocks on observation —
the kernels store into disjoint slots and carry no telemetry code, the
layer tracer times them from outside the wave loop, and the live scrape
endpoint reads registry snapshots from its own threads.  A stray
``print``/``open``/``sleep`` (or a raw pipe/socket round-trip) inside a
kernel stalls the round and silently breaks the ≤5 % obs-disabled
overhead contract.

The rule deliberately does **not** flag bare ``.send``/``.write``/
``.flush``/``.read`` attribute calls: under ``sim/fast`` those names are
the in-memory message-bus and access-recorder idiom (``out.send(LIN,
...)``), not I/O.  Instead it flags the *acquisition* of blocking
channels (``open``/``print``/``input``/``breakpoint`` builtins) and the
transport primitives that only ever name real blocking calls
(``.sleep``, ``.recv``/``.recv_bytes``, ``.sendall``/``.send_bytes``,
``.accept``, ``.connect``, ``.select``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.unit import ModuleUnit

__all__ = ["ObsBlockingInWaveRule"]

#: Builtins whose mere call is blocking console/file I/O.
_BLOCKING_BUILTINS = frozenset({"open", "print", "input", "breakpoint"})

#: Attribute-call names that (in this tree) only ever denote blocking
#: transport primitives — never the in-memory message bus.
_BLOCKING_METHODS = frozenset(
    {
        "sleep",
        "recv",
        "recvfrom",
        "recv_bytes",
        "sendall",
        "send_bytes",
        "sendto",
        "accept",
        "connect",
        "select",
    }
)


class ObsBlockingInWaveRule(Rule):
    """Blocking I/O inside the fast engine's kernel/wave-dispatch path."""

    id: ClassVar[str] = "obs-blocking-in-wave"
    severity: ClassVar[Severity] = Severity.WARNING
    summary: ClassVar[str] = (
        "blocking I/O (open/print/sleep/pipe round-trip) inside the "
        "repro.sim.fast wave loop; telemetry must be read from outside "
        "the wave loop (the layer tracer or the live-server threads)"
    )
    grounding: ClassVar[str] = (
        "the observability contract (docs/OBSERVABILITY.md) promises "
        "bit-identical trajectories and ≤5% obs-disabled overhead; a "
        "blocking call inside a kernel stalls the round and voids both"
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        path = module.path.replace("\\", "/")
        if "/sim/fast" not in path:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            label = self._blocking_call(node.func)
            if label is not None:
                yield self.finding(
                    module,
                    node,
                    f"'{label}' blocks the wave loop; move it out of the "
                    "kernel/dispatch path (read telemetry from outside the "
                    "wave loop, or serve it from the live endpoint's "
                    "threads)",
                )

    @staticmethod
    def _blocking_call(func: ast.expr) -> str | None:
        """The display name of a blocking call, or ``None`` if benign."""
        if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
            return f"{func.id}()"
        if isinstance(func, ast.Attribute) and func.attr in _BLOCKING_METHODS:
            owner = func.value.id if isinstance(func.value, ast.Name) else "..."
            return f"{owner}.{func.attr}()"
        return None
