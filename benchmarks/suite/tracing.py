"""Spans around the calls into each layer, recorded from outside.

The traced run of the suite (``run.py --trace 1``) installs a wrapper on
every public function the layers of the overlay expose to each other —
module attributes (``repro.sim.fast.batched.build_inbox``, ...), class
attributes (``Kernels.linearize``, ``ShardCore.route_take``, ...) — and
takes them off again afterwards.  No file under ``src/`` changes, no
private method is called or patched, and the engines' own ``profiler``
hook is left as the workload found it.

A wrapper records one span ``(name, start, end, parent)`` into a list
owned by the calling thread, and reads the layer's work counts off the
arguments and the return value at the same boundary (``len(PreparedInbox)``,
``RoundInbox.n_waves``, ``RouteResult.hops``).  Spans stay in memory until
the timed phase has ended; :meth:`Tracer.aggregate` then turns them into
per-name call counts, busy time and *self* time (a span's duration minus
the part of it covered by its child spans), which is what makes the layer
budget additive: the self times of one thread sum to the time its
outermost spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["SpanTable", "Tracer"]

#: ``hook(counts, args, result)`` — fold one call's work counts.
CountHook = Callable[[dict[str, float], tuple[Any, ...], Any], None]

_MARK = "__suite_traced__"


@dataclass
class _ThreadSpans:
    """The spans of one thread, in the order they were opened."""

    thread: str
    names: list[str]
    start: list[float]
    end: list[float]
    parent: list[int]
    current: int = -1


@dataclass
class SpanTable:
    """Per-name totals over one time window (see :meth:`Tracer.aggregate`)."""

    calls: dict[str, int]
    busy_s: dict[str, float]
    self_s: dict[str, float]
    #: Time covered by the window's outermost spans (== sum of self times).
    covered_s: float
    spans: int

    def busy(self, *names: str) -> float:
        return sum(self.busy_s.get(name, 0.0) for name in names)

    def own(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)


def _rows(chunks: list[list[tuple[Any, ...]]]) -> int:
    """Rows in a per-type list of ``(dest, ...)`` column chunks."""
    return sum(len(ch[0]) for per_type in chunks for ch in per_type)


def _count_prepare(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    pre, dropped = result
    counts["staged_rows"] += _rows(args[0])
    counts["dropped_rows"] += dropped
    if pre is not None:
        counts["inbox_rows"] += len(pre)


def _count_finalize(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["inboxes"] += 1
    counts["waves"] += result.n_waves
    counts["waves_max"] = max(counts["waves_max"], result.n_waves)


def _count_kernel(name: str) -> CountHook:
    key = f"{name}_rows"

    def hook(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
        counts[key] += len(args[1])

    return hook


def _count_route_take(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    core = args[0]
    for dest_shard, wire in enumerate(result):
        rows = _rows(wire)
        counts["routed_rows"] += rows
        if dest_shard != core.shard:
            counts["boundary_rows"] += rows


def _count_reslrl(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    # Every shard is asked once per pause; count the pause on shard 0.
    if args[0].shard == 0:
        counts["reslrl_pauses"] += 1


def _count_into(key: str) -> CountHook:
    def hook(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
        counts[key] += result

    return hook


def _count_route(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    counts["hops"] += int(result.hops.sum())


def _count_lookups(counts: dict[str, float], args: tuple[Any, ...], result: Any) -> None:
    total = len(result.ok)
    ok = int(result.ok.sum())
    unknown = total - int(result.found.sum())
    counts["lookups"] += total
    counts["lookups_unknown"] += unknown
    counts["lookups_lost"] += total - ok - unknown


def _targets() -> list[tuple[Any, str, str, CountHook | None]]:
    """``(owner, attribute, span name, count hook)`` for every boundary.

    Imported lazily so that importing this module touches nothing; every
    owner is resolved before the first patch lands, so a module that
    re-exports another's function (``shard.core.prepare_inbox``) is
    wrapped once under its own reference.
    """
    from repro.churn import storms
    from repro.serve import host, routing, service
    from repro.sim.fast import batched, buffers, kernels, predicates, soa
    from repro.sim.fast.engine import FastSimulator
    from repro.sim.fast.shard import core, engine as shard_engine

    targets: list[tuple[Any, str, str, CountHook | None]] = [
        (batched, "build_inbox", "buffers.build_inbox", None),
    ]
    for module in (buffers, core):
        targets += [
            (module, "prepare_inbox", "buffers.prepare_inbox", _count_prepare),
            (module, "finalize_inbox", "buffers.finalize_inbox", _count_finalize),
        ]
    for module in (buffers, shard_engine):
        targets.append(
            (module, "draw_delivery_keys", "buffers.draw_delivery_keys", None)
        )
    for name in (*batched.KERNEL_NAMES, "regular_action"):
        targets.append(
            (kernels.Kernels, name, f"kernels.{name}", _count_kernel(name))
        )
    targets += [
        (FastSimulator, "step_round", "sim.step_round", None),
        (batched.FastEngine, "execute_round", "batched.execute_round", None),
        (batched.FastEngine, "join_batch", "batched.join_batch", _count_into("joined")),
        (batched.FastEngine, "leave_batch", "batched.leave_batch", _count_into("left")),
        (shard_engine.ShardedEngine, "execute_round", "shard.execute_round", None),
        (shard_engine.ShardedEngine, "join_batch", "batched.join_batch", _count_into("joined")),
        (shard_engine.ShardedEngine, "leave_batch", "batched.leave_batch", _count_into("left")),
        (core.ShardCore, "route_take", "shard.route_take", _count_route_take),
        (core.ShardCore, "prepare_round", "shard.prepare_round", None),
        (core.ShardCore, "start_round", "shard.start_round", None),
        (core.ShardCore, "reslrl_count", "shard.reslrl_count", _count_reslrl),
        (core.ShardCore, "reslrl_apply", "shard.reslrl_apply", None),
        (core.ShardCore, "finish_round", "shard.finish_round", None),
        (soa.SoAState, "lookup", "soa.lookup", None),
        (soa.SoAState, "sorted_live", "soa.sorted_live", None),
        (soa.SoAState, "compact", "soa.compact", None),
        (storms, "apply_joins", "churn.apply", _count_into("churn_events")),
        (storms, "apply_leaves", "churn.apply", _count_into("churn_events")),
        (routing.RouteView, "from_engine", "routing.publish", None),
        (routing.RouteView, "resolve", "routing.resolve", None),
        (service, "route_batch", "routing.route_batch", _count_route),
        (service.OverlayService, "lookup_batch", "service.lookup_batch", _count_lookups),
    ]
    # The ring predicates.  Every caller's ``fast_is_sorted_ring`` reads
    # ``fast_is_sorted_list`` off ``predicates`` at call time and does
    # nothing else that takes time, so the list check is the boundary (the
    # ring check wrapped as well would count it twice); the serving host
    # imported the link check into its own namespace.
    targets.append((predicates, "fast_is_sorted_list", "predicates.check", None))
    for module in (predicates, host):
        targets.append((module, "fast_lrl_links_live", "predicates.check", None))
    return targets


class Tracer:
    """Installs the wrappers, owns the spans and the counts."""

    def __init__(self) -> None:
        #: Work counts read at the boundaries; absent keys read as 0.
        self.counts: dict[str, float] = defaultdict(int)
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary (undone by :meth:`uninstall`)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            if getattr(original, _MARK, False):
                raise RuntimeError(f"{owner.__name__}.{attr} is already traced")
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(self._wrap(original.__func__, name, hook))
            else:
                wrapped = self._wrap(original, name, hook)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(
        self, fn: Callable[..., Any], name: str, hook: CountHook | None
    ) -> Callable[..., Any]:
        local = self._local
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = getattr(local, "spans", None)
            if spans is None:
                spans = self._thread_spans()
            index = len(spans.names)
            parent = spans.current
            spans.names.append(name)
            spans.parent.append(parent)
            spans.end.append(0.0)
            spans.current = index
            spans.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = clock()
                spans.current = parent
            if hook is not None:
                hook(counts, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _thread_spans(self) -> _ThreadSpans:
        spans = _ThreadSpans(threading.current_thread().name, [], [], [], [])
        self._local.spans = spans
        with self._lock:
            self._threads.append(spans)
        return spans

    # ------------------------------------------------------------------
    # Aggregation (after timing)
    # ------------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return sum(len(t.names) for t in self._threads)

    def aggregate(
        self, start: float, end: float, *, thread: str | None = None
    ) -> SpanTable:
        """Totals over the spans lying inside ``[start, end]``.

        *thread* keeps one thread's spans (by thread name); by default
        every thread's spans count.  A span on the window's edge is left
        out together with its children.
        """
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        covered = 0.0
        total = 0
        with self._lock:
            threads = list(self._threads)
        for spans in threads:
            if thread is not None and spans.thread != thread:
                continue
            n = len(spans.start)
            if n == 0:
                continue
            t0 = np.asarray(spans.start[:n])
            t1 = np.asarray(spans.end[:n])
            parent = np.asarray(spans.parent[:n])
            inside = (t0 >= start) & (t1 <= end) & (t1 >= t0)
            # A child is opened after its parent, so one forward pass
            # propagates "my parent is outside" down the tree.
            for i in np.flatnonzero(inside & (parent >= 0)):
                if not inside[parent[i]]:
                    inside[i] = False
            duration = np.where(inside, t1 - t0, 0.0)
            children = np.zeros(n)
            has_parent = inside & (parent >= 0)
            np.add.at(children, parent[has_parent], duration[has_parent])
            self_time = duration - children
            covered += float(duration[inside & (parent < 0)].sum())
            total += int(inside.sum())
            names = spans.names
            for i in np.flatnonzero(inside):
                name = names[i]
                calls[name] = calls.get(name, 0) + 1
                busy[name] = busy.get(name, 0.0) + float(duration[i])
                own[name] = own.get(name, 0.0) + float(self_time[i])
        return SpanTable(calls, busy, own, covered, total)
