"""Span tracing: timed sections and the round's layers, on one monotonic epoch.

Two tracers share this module and the run's epoch
(:func:`time.perf_counter` at the observer's start):

* :class:`SpanTracer` times named *coarse* sections of a run — one
  experiment, one trial, one chaos campaign.  Finished spans are handed to
  an optional sink (the :class:`~repro.obs.observer.Observer` streams them
  as ``span`` JSONL events) and kept in an in-memory list.
* :class:`LayerTracer` answers "where did the round go" from *outside*
  the engines.  While an observer has a simulator attached, every
  boundary in :data:`LAYERS` — ``Network.flush``, ``prepare_inbox``, each
  ``Kernels`` method, the ``ShardCore`` phases, ... — is wrapped, and
  each call's busy time, *self* time (busy minus the spans opened inside
  it) and row volume are folded online into per-``(engine, shard,
  phase)`` totals.  No span list is kept, so the totals do not grow with
  the length of a run, and the self times sum to the time the outermost
  spans cover: the phase budget is additive.

The engines carry no telemetry code: with no observer attached every
target of :data:`LAYERS` is the original function, and the wrappers only
read clocks and argument/result sizes, so an observed run is bit-identical
to a plain one (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, NamedTuple

__all__ = [
    "LAYERS",
    "Layer",
    "LayerSnapshot",
    "LayerTotals",
    "LayerTracer",
    "Span",
    "SpanTracer",
    "layer_targets",
]


@dataclass(frozen=True, slots=True)
class Span:
    """One finished timed section.

    ``start_s`` is the offset from the tracer's epoch (monotonic seconds);
    ``duration_s`` the measured wall-clock duration.
    """

    name: str
    start_s: float
    duration_s: float
    labels: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form (used by the ``span`` JSONL event)."""
        out: dict[str, object] = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(self.duration_s, 6),
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class SpanTracer:
    """Times named sections against one shared monotonic epoch."""

    def __init__(self, sink: Callable[[Span], None] | None = None) -> None:
        self.epoch = time.perf_counter()
        self.sink = sink
        self.spans: list[Span] = []

    def now(self) -> float:
        """Monotonic seconds since the tracer's epoch."""
        return time.perf_counter() - self.epoch

    @contextmanager
    def span(self, name: str, **labels: object) -> Iterator[None]:
        """Context manager timing one section; records on exit.

        The span is recorded even when the body raises, so timeouts and
        failures still leave their timing evidence in the stream.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.record(
                Span(
                    name=name,
                    start_s=start - self.epoch,
                    duration_s=end - start,
                    labels={k: str(v) for k, v in labels.items()},
                )
            )

    def record(self, span: Span) -> None:
        """Append a finished span and forward it to the sink."""
        self.spans.append(span)
        if self.sink is not None:
            self.sink(span)

    def named(self, name: str) -> list[Span]:
        """All finished spans with the given name, in completion order."""
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# The round's layers
# ----------------------------------------------------------------------
#: ``rows(args, result)`` — the row volume one call moved.
RowsOf = Callable[[tuple[Any, ...], Any], int]


def _chunk_rows(chunks: Any) -> int:
    """Rows in a per-type list of ``(dest, ...)`` column chunks."""
    return sum(len(ch[0]) for per_type in chunks for ch in per_type)


def _idx_rows(args: tuple[Any, ...], result: Any) -> int:
    return len(args[1])


class Layer(NamedTuple):
    """One wrapped boundary: ``module``'s ``attr`` is timed as ``phase``.

    ``host`` marks a round entry point: the position of the engine host
    among its arguments.  Called with no span open on its thread, it opens
    one only for a host an observer attached, and its spans carry that
    host's engine label; every other boundary times only inside such a
    span.  ``shard`` marks a :class:`ShardCore` method: it and the spans
    opened inside it carry the core's ``shard``.
    """

    module: str
    attr: str
    phase: str
    host: int | None = None
    shard: bool = False
    rows: RowsOf | None = None


_KERNELS = (
    "linearize", "respond_lrl", "move_forget", "place_token",
    "probing_r", "probing_l", "respond_ring", "update_ring",
)
_SCHEDULERS, _ADVERSARIES = "repro.sim.schedulers", "repro.sim.adversary"
_BATCHED, _KERNEL = "repro.sim.fast.batched", "repro.sim.fast.kernels"
#: The batched round calls its flush stages as ``buffers`` attributes; the
#: shard cores and the coordinator call their own imported names.
_BUFFERS = "repro.sim.fast.buffers"
_WIRE = "repro.sim.fast.chaos.batched"
_SHARDED, _CORE = "repro.sim.fast.shard.engine", "repro.sim.fast.shard.core"

#: Every boundary the observer times; one table per engine with what each
#: phase holds is in docs/OBSERVABILITY.md.  A round entry point's self
#: time is a phase of its own: ``receive`` (drain plus ``on_message``),
#: ``plan`` (writer mask, the delivery order where two writers meet,
#: dispatch groups, token-walk bookkeeping) and ``merge``.
LAYERS: tuple[Layer, ...] = (
    Layer(_SCHEDULERS, "SynchronousScheduler.execute_round", "receive", host=1),
    Layer(_SCHEDULERS, "AsyncScheduler.execute_round", "receive", host=1),
    Layer(_ADVERSARIES, "DelayAdversary.execute_round", "receive", host=1),
    Layer(_ADVERSARIES, "StarvationAdversary.execute_round", "receive", host=1),
    Layer("repro.sim.network", "Network.flush", "flush", rows=lambda a, r: r),
    Layer("repro.core.node", "Node.regular_action", "regular"),
    Layer(_BATCHED, "FastEngine.execute_round", "plan", host=0),
    Layer(_BUFFERS, "prepare_inbox", "flush", rows=lambda a, r: len(r[0] or ())),
    Layer(_BUFFERS, "draw_delivery_keys", "rng"),
    Layer(_WIRE, "BatchedWire.deliver", "wire"),
    Layer(_WIRE, "BatchedWire.send", "wire"),
    *(Layer(_KERNEL, f"Kernels.{name}", name, rows=_idx_rows) for name in _KERNELS),
    Layer(_KERNEL, "Kernels.regular_action", "regular", rows=_idx_rows),
    Layer(_SHARDED, "ShardedEngine.execute_round", "merge", host=0),
    Layer(_SHARDED, "draw_delivery_keys", "rng"),
    Layer(_SHARDED, "token_draws", "rng"),
    Layer(
        _CORE, "ShardCore.route_take", "flush", shard=True,
        rows=lambda a, r: sum(_chunk_rows(wire) for wire in r),
    ),
    Layer(
        _CORE, "ShardCore.prepare_round", "exchange", shard=True,
        rows=lambda a, r: sum(_chunk_rows(source) for source in a[1]),
    ),
    *(
        Layer(_CORE, f"ShardCore.{name}", "dispatch", shard=True)
        for name in ("start_round", "reslrl_count", "reslrl_apply", "finish_round")
    ),
)


def _target(layer: Layer) -> tuple[Any, str]:
    owner: Any = importlib.import_module(layer.module)
    *path, name = layer.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def layer_targets() -> list[tuple[Any, str, Layer]]:
    """``(owner, attribute, layer)`` for every row of :data:`LAYERS`
    (imports the owning modules)."""
    return [(*_target(layer), layer) for layer in LAYERS]


class LayerTotals(NamedTuple):
    """Folded totals of one ``(engine, shard, phase)``."""

    calls: int
    busy_s: float
    self_s: float
    rows: int
    #: The row volume of the latest call (a shard's live nodes, for
    #: ``regular``).
    last_rows: int


@dataclass(frozen=True)
class LayerSnapshot:
    """A :class:`LayerTracer`'s totals at one instant on the run's epoch
    (``at_s``); two snapshots difference to the window between them.
    ``covered_s`` is the time the outermost spans cover, which the self
    times sum to."""

    at_s: float
    covered_s: float
    totals: dict[tuple[str, int | None, str], LayerTotals]


#: Per-thread span stacks: the serving host steps its engine on its own
#: thread while clients call in on others.  A frame is the list
#: ``[fold, engine, shard, inner]``: ``fold`` is the tracer's
#: ``[totals, covered_s]`` for this thread, ``inner`` the busy time of
#: the spans closed directly inside the frame.
_local = threading.local()
#: Reentrant: a host collected while this thread holds it releases too.
_lock = threading.RLock()
#: ``id(host) -> (tracer, engine)`` for every attached host.
_hosts: dict[int, tuple["LayerTracer", str]] = {}
#: ``(owner, attribute, original, layer)`` in installation order.
_installed: list[tuple[Any, str, Any, Layer]] = []


def _wrap(fn: Callable[..., Any], layer: Layer) -> Callable[..., Any]:
    phase, host, sharded, rows_of = layer.phase, layer.host, layer.shard, layer.rows
    clock = time.perf_counter
    local = _local
    hosts = _hosts

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        stack = getattr(local, "stack", None)
        if stack:
            outer = stack[-1]
            fold = outer[0]
            frame = [fold, outer[1], args[0].shard if sharded else outer[2], 0.0]
        else:
            entry = None if host is None else hosts.get(id(args[host]))
            if entry is None:
                return fn(*args, **kwargs)
            outer = None
            fold = entry[0].thread_fold()
            frame = [fold, entry[1], None, 0.0]
            if stack is None:
                stack = local.stack = []
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = clock() - start
            stack.pop()
            if outer is None:
                fold[1] += busy
            else:
                outer[3] += busy
            key = (frame[1], frame[2], phase)
            totals = fold[0].get(key)
            if totals is None:
                totals = fold[0][key] = [0, 0.0, 0.0, 0, 0]
            totals[0] += 1
            totals[1] += busy
            totals[2] += busy - frame[3]
        if rows_of is not None:
            rows = rows_of(args, result)
            totals[3] += rows
            totals[4] = rows
        return result

    return traced


def _install() -> None:
    """Wrap every row whose module is imported and is not wrapped yet: an
    engine imports its classes before it attaches, and importing the rest
    (the chaos wire, the adversaries) costs a served engine ~2 MB of
    peak RSS."""
    wrapped = {row[3] for row in _installed}
    for layer in LAYERS:
        if layer.module in sys.modules and layer not in wrapped:
            owner, name = _target(layer)
            original = vars(owner)[name]
            _installed.append((owner, name, original, layer))
            setattr(owner, name, _wrap(original, layer))


def _uninstall() -> None:
    while _installed:
        owner, name, original, _ = _installed.pop()
        setattr(owner, name, original)


class LayerTracer:
    """Per-``(engine, shard, phase)`` totals of the round's layers.

    :meth:`attach` registers an engine host under its engine label and
    wraps the boundaries of :data:`LAYERS` that are not wrapped yet;
    :meth:`close` (or the collection of a host) unregisters hosts and,
    when none is left in the process, puts every original back in
    reverse order.
    Spans fold into the tracer whose host opened the round, so two
    observers in one process keep their rounds apart.
    """

    def __init__(self, epoch: float) -> None:
        self.epoch = epoch
        #: Each thread folds into its own ``[totals, covered_s]``, totals
        #: ``[calls, busy_s, self_s, rows, last_rows]`` per key, so no
        #: fold is shared between threads; :meth:`snapshot` sums them.
        self._folds: list[list[Any]] = []
        self._local = threading.local()
        #: ``id(host) -> weak reference`` for every host attached here.
        self._hosts: dict[int, weakref.ref[Any]] = {}

    def thread_fold(self) -> list[Any]:
        """This thread's ``[totals, covered_s]``."""
        fold = getattr(self._local, "fold", None)
        if fold is None:
            fold = self._local.fold = [{}, 0.0]
            with _lock:
                self._folds.append(fold)
        return fold

    def _release(self, keys: list[int]) -> None:
        with _lock:
            for key in keys:
                if _hosts.get(key, (None,))[0] is self:
                    del _hosts[key]
            if not _hosts:
                _uninstall()

    def attach(self, host: Any, engine: str) -> None:
        """Time the rounds *host* runs under the label *engine*."""
        key = id(host)
        with _lock:
            _hosts[key] = (self, engine)
            _install()
            # A host's id may be reused once it is gone, and an observer
            # nobody closes must not keep the wrappers: release it then.
            self._hosts[key] = weakref.ref(host, lambda _: self._release([key]))

    def close(self) -> None:
        """Stop timing; restore the originals once no host is attached."""
        self._release(list(self._hosts))
        self._hosts.clear()

    def snapshot(self) -> LayerSnapshot:
        """The totals folded so far (safe to take while rounds run)."""
        with _lock:
            folds = list(self._folds)
        totals: dict[tuple[str, int | None, str], LayerTotals] = {}
        for fold in folds:
            for key, values in list(fold[0].items()):
                t = LayerTotals(*values)
                if key in totals:
                    summed = (x + y for x, y in zip(totals[key][:4], t))
                    t = LayerTotals(*summed, t.last_rows)
                totals[key] = t
        covered = sum(fold[1] for fold in folds)
        return LayerSnapshot(time.perf_counter() - self.epoch, covered, totals)
