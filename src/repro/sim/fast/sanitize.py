"""Runtime sanitizer for the SoA engines — the dynamic half of the flow pass.

The static pass (:mod:`repro.analysis.flow`) proves what it can from the
AST; this module checks at runtime what the AST cannot decide:

* the **window precondition** — a *writer* dispatch's destination index
  vector holds unique slots (the invariant ``kernels.py`` calls "asserted
  nowhere for speed"); a *read-only* dispatch may repeat a destination
  and must not store at all;
* **store disjointness** — every integer fancy-indexed store into a
  column hits each slot at most once;
* the **cross-check** — per-kernel *observed* column read/write/send
  sets are a subset of the *static* sets the flow pass extracted, so a
  kernel growing an undeclared access (or the extractor going blind)
  fails loudly instead of silently invalidating the analysis.

Activation: ``REPRO_SANITIZE=1`` in the environment, or
``FastSimulator.from_states(..., sanitize=True)``.  The sanitizer wraps
the kernels' view of the state (:class:`SanitizedSoAState`) and outbox
(:class:`SanitizedOutbox`); the engine keeps its real references, so
membership, churn and snapshotting run unrecorded and RNG draw order is
untouched — a sanitized run stays bit-exact with an unsanitized one.
"""

from __future__ import annotations

import inspect
import os
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis.flow.access import FunctionAccess, class_access_sets
from repro.analysis.flow.model import SOA_COLUMNS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fast.buffers import Outbox
    from repro.sim.fast.soa import SoAState

__all__ = [
    "FlowSanitizerError",
    "FlowSanitizer",
    "SanitizedSoAState",
    "SanitizedOutbox",
    "sanitize_enabled",
]

#: Message-code constant names, in code order (buffers.py).
_CODE_NAMES = ("LIN", "INCLRL", "RESLRL", "RING", "RESRING", "PROBR", "PROBL")


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitized engines."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() not in (
        "",
        "0",
        "false",
    )


class FlowSanitizerError(AssertionError):
    """A kernel violated the conflict-freedom discipline at runtime."""


class _RecordingColumn(np.ndarray):
    """ndarray view that reports element access to a :class:`FlowSanitizer`.

    Views are created fresh on every attribute access of the sanitized
    state (never cached), so ``SoAState._grow`` rebinding the underlying
    arrays can never leave a recorder holding stale memory.
    """

    _recorder: "FlowSanitizer | None"
    _name: str | None

    def __array_finalize__(self, obj: Any) -> None:
        self._recorder = getattr(obj, "_recorder", None)
        self._name = getattr(obj, "_name", None)

    def _report_read(self) -> None:
        if self._recorder is not None and self._name is not None:
            self._recorder.read(self._name)

    def __getitem__(self, key: Any) -> Any:
        self._report_read()
        result = super().__getitem__(key)
        if isinstance(result, np.ndarray):
            # Plain ndarray out: derived arrays are copies/temporaries
            # whose accesses are not column accesses.
            return result.view(np.ndarray)
        return result

    def __setitem__(self, key: Any, value: Any) -> None:
        if self._recorder is not None and self._name is not None:
            self._recorder.write(self._name, key)
        plain_key = key.view(np.ndarray) if isinstance(key, _RecordingColumn) else key
        plain_val = (
            value.view(np.ndarray) if isinstance(value, _RecordingColumn) else value
        )
        super().__setitem__(plain_key, plain_val)

    def __array_ufunc__(
        self, ufunc: Any, method: str, *inputs: Any, **kwargs: Any
    ) -> Any:
        # Whole-column arithmetic (``s.alive & mask``): a read — and a
        # write when ``out=`` targets the column.  Defer to numpy with
        # plain arrays so results do not keep recording.
        self._report_read()
        out = kwargs.get("out")
        if out is not None:
            for target in out:
                if isinstance(target, _RecordingColumn):
                    rec, name = target._recorder, target._name
                    if rec is not None and name is not None:
                        rec.write(name, None)
            kwargs["out"] = tuple(
                t.view(np.ndarray) if isinstance(t, _RecordingColumn) else t
                for t in out
            )
        plain = tuple(
            x.view(np.ndarray) if isinstance(x, _RecordingColumn) else x
            for x in inputs
        )
        return getattr(ufunc, method)(*plain, **kwargs)


def _recording_view(
    array: np.ndarray, name: str, recorder: "FlowSanitizer"
) -> _RecordingColumn:
    view = array.view(_RecordingColumn)
    view._recorder = recorder
    view._name = name
    return view


class SanitizedSoAState:
    """Proxy handing out recording views of the SoA columns.

    Everything that is not a column (``size``, ``lookup``,
    ``index_of``, ``add`` …) delegates to the wrapped state untouched.
    Dunder lookups bypass ``__getattr__``, so the membership protocol is
    forwarded explicitly.
    """

    __slots__ = ("_inner", "_recorder")

    def __init__(self, inner: "SoAState", recorder: "FlowSanitizer") -> None:
        object.__setattr__(self, "_inner", inner)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str) -> Any:
        inner = object.__getattribute__(self, "_inner")
        value = getattr(inner, name)
        if name in SOA_COLUMNS:
            return _recording_view(
                value, name, object.__getattribute__(self, "_recorder")
            )
        return value

    def __setattr__(self, name: str, value: Any) -> None:
        # Only SoAState._grow rebinds columns, and it runs on the real
        # state; kernels must never rebind through the proxy.
        raise FlowSanitizerError(
            f"attribute store '{name}' through the sanitized state; "
            "kernels mutate columns element-wise, never rebind them"
        )

    def __contains__(self, node_id: float) -> bool:
        return node_id in object.__getattribute__(self, "_inner")

    def __len__(self) -> int:
        return len(object.__getattribute__(self, "_inner"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedSoAState({object.__getattribute__(self, '_inner')!r})"


class SanitizedOutbox:
    """Proxy recording the message codes a kernel stages."""

    __slots__ = ("_inner", "_recorder")

    def __init__(self, inner: "Outbox", recorder: "FlowSanitizer") -> None:
        self._inner = inner
        self._recorder = recorder

    def send(self, code: int, *args: Any, **kwargs: Any) -> None:
        self._recorder.record_send(code)
        self._inner.send(code, *args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def _selects_nothing(key: Any) -> bool:
    """Whether a store through index *key* touches no element."""
    if not isinstance(key, np.ndarray):
        return False
    if key.dtype.kind == "b":
        return not bool(key.any())
    return key.size == 0


class FlowSanitizer:
    """Per-kernel access recorder with static cross-checking.

    One instance per engine.  ``begin(kernel, idx)`` opens a recording
    window (asserting the wave precondition on *idx*; with
    ``read_only=True`` destinations may repeat and any non-empty store
    raises instead), the proxies feed
    ``read``/``write``/``record_send`` during kernel execution, and
    ``end()`` closes the window, asserting the observed sets are a
    subset of the static ones.  Accesses outside any window (engine
    bookkeeping, snapshots, churn) are deliberately ignored.
    """

    __slots__ = (
        "expected", "_current", "_read_only", "_reads", "_writes", "_sends",
        "rounds_checked",
    )

    def __init__(self, expected: dict[str, FunctionAccess]) -> None:
        self.expected = expected
        self._current: str | None = None
        self._read_only = False
        self._reads: set[str] = set()
        self._writes: set[str] = set()
        self._sends: set[str] = set()
        self.rounds_checked = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def for_kernels(cls) -> "FlowSanitizer":
        """Static access sets of the batched kernels (self-calls closed)."""
        from repro.sim.fast import kernels as kernels_module

        source = inspect.getsource(kernels_module)
        return cls(class_access_sets(source, "Kernels"))

    @classmethod
    def for_mirror(cls) -> "FlowSanitizer":
        """Static access sets of the mirror engine's scalar handlers."""
        from repro.sim.fast import mirror as mirror_module

        source = inspect.getsource(mirror_module)
        return cls(class_access_sets(source, "MirrorEngine"))

    # -- recording window ----------------------------------------------
    def begin(
        self,
        kernel: str,
        idx: np.ndarray | None = None,
        *,
        read_only: bool = False,
    ) -> None:
        if self._current is not None:  # pragma: no cover - defensive
            raise FlowSanitizerError(
                f"begin('{kernel}') while '{self._current}' is still open"
            )
        if not read_only and idx is not None and len(idx) > 1:
            unique = int(np.unique(np.asarray(idx)).size)
            if unique != len(idx):
                raise FlowSanitizerError(
                    f"wave precondition violated entering '{kernel}': "
                    f"{len(idx)} destinations, only {unique} unique — "
                    "the writer schedule must deliver each node at most "
                    "once per writer group"
                )
        self._current = kernel
        self._read_only = read_only
        self._reads.clear()
        self._writes.clear()
        self._sends.clear()

    def abort(self) -> None:
        """Close the window without checking (the kernel itself raised)."""
        self._current = None

    def end(self) -> None:
        kernel = self._current
        if kernel is None:  # pragma: no cover - defensive
            raise FlowSanitizerError("end() without begin()")
        self._current = None
        expected = self.expected.get(kernel)
        if expected is None:
            raise FlowSanitizerError(
                f"no static access set for kernel '{kernel}' — the flow "
                "extractor and the engine disagree about the kernel list"
            )
        problems = []
        if not self._reads <= expected.reads:
            problems.append(f"reads {sorted(self._reads - expected.reads)}")
        if not self._writes <= expected.writes:
            problems.append(f"writes {sorted(self._writes - expected.writes)}")
        if not self._sends <= expected.sends:
            problems.append(f"sends {sorted(self._sends - expected.sends)}")
        if problems:
            raise FlowSanitizerError(
                f"kernel '{kernel}' exceeded its static access sets: "
                + "; ".join(problems)
                + " — update the kernel or re-check the flow extractor"
            )
        self.rounds_checked += 1

    # -- proxy callbacks ------------------------------------------------
    def read(self, column: str) -> None:
        if self._current is not None:
            self._reads.add(column)

    def write(self, column: str, key: Any) -> None:
        if self._current is None:
            return
        self._writes.add(column)
        if self._read_only and not _selects_nothing(key):
            raise FlowSanitizerError(
                f"store into column '{column}' in a read-only window of "
                f"kernel '{self._current}': the writer schedule placed a "
                "row that stores among the rows that cannot"
            )
        if (
            isinstance(key, np.ndarray)
            and key.ndim >= 1
            and key.dtype.kind in "iu"
            and key.size > 1
        ):
            unique = int(np.unique(key).size)
            if unique != key.size:
                raise FlowSanitizerError(
                    f"non-unique fancy-indexed store into column "
                    f"'{column}' in kernel '{self._current}': {key.size} "
                    f"indices, only {unique} unique slots"
                )

    def record_send(self, code: int) -> None:
        if self._current is not None and 0 <= code < len(_CODE_NAMES):
            self._sends.add(_CODE_NAMES[code])
