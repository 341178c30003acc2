"""The sharded SoA engine: one state, a coordinator, per-block cores.

:class:`ShardedEngine` presents the :class:`FastEngine` surface
(``execute_round``, ``join_batch``/``leave_batch``, ``state_snapshot``,
``in_flight_rows``, ``soa``) and owns the one
:class:`~repro.sim.fast.soa.SoAState` and ``MessageStats``; each
:class:`~repro.sim.fast.shard.core.ShardCore` borrows both and runs an
id-range block of the round into its own outbox (docs/PERF.md §8).

**Bit-identity contract.**  Given id-sorted initial states, a sharded run
replays the unsharded ``FastEngine`` trajectory *bit-for-bit at any
shard count*, because every random draw happens here, on the coordinator,
over globally-ordered rows:

* delivery keys are drawn once per round over the global canonical inbox
  order (shard-ascending non-reslrl blocks, then shard-ascending reslrl
  blocks — exactly the unsharded canonical order, since shards own
  contiguous id ranges) and scattered to shards as contiguous slices;
* for each global segment of the token walk (cut wherever any shard's
  walk cuts) the shards report their valid ``reslrl`` rows per wave, the
  coordinator makes the segment's one draw, and
  :func:`~repro.sim.fast.batched.token_draws` hands each shard the coins
  and forgets a wave-by-wave walk would give its rows (shard-ascending
  within a wave) for its one :meth:`Kernels.move_forget` call.

Joins append slots out of id order (the same slots the unsharded engine
appends), after which the unsharded canonical order — slot-major over all
rows — is no longer the shard-ascending concatenation of the per-block
orders, and the key assignments diverge at two or more shards: still the
same distribution, no longer the same trajectory (each shard count's own
trajectory is pinned by digest in ``tests/test_sharded_engine.py``).
Departures preserve alignment (tombstoning and compaction keep relative
slot order).

Not supported here: multiset (``dedup=False``) delivery, wire faults
(``ChaosFastEngine``), wave-dispatch faults and event tracing.  State
faults and churn storms compose unchanged — they drive ``soa`` and the
membership surface.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.sim.fast.batched import (
    join_batch_rows,
    leave_batch_victims,
    token_draws,
)
from repro.sim.fast.buffers import draw_delivery_keys
from repro.sim.fast.predicates import SoAHost
from repro.sim.fast.shard.core import ShardCore
from repro.sim.fast.shard.partition import partition_edges
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import PhaseProfiler

__all__ = ["ShardedEngine"]


class ShardedEngine(SoAHost):
    """Contiguous id-range shards behind the ``FastEngine`` surface."""

    def __init__(
        self,
        states: Iterable[NodeState],
        config: ProtocolConfig | None = None,
        *,
        shards: int = 2,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
    ) -> None:
        if not dedup:
            raise ValueError(
                "the sharded engine requires coalescing-set (dedup=True) "
                "delivery: canonical content order is what lets the "
                "coordinator scatter one global delivery-key array"
            )
        cfg = config or ProtocolConfig()
        if cfg.trace is not None:
            raise ValueError(
                "the sharded engine does not support event tracing; "
                "use the reference engine for trace-based tests"
            )
        # Id-sorted slot assignment is the slot order an unsharded
        # FastEngine built from the same (sorted) states gets — the
        # bit-identity precondition.
        ordered = sorted(states, key=lambda s: s.id)
        if not ordered:
            raise ValueError("the sharded engine needs at least one node")
        self.config = cfg
        self.dedup = True
        self.soa = SoAState.from_states(ordered)
        self.stats = MessageStats(keep_history=keep_history)
        self.dropped = 0
        self.shards = min(int(shards), len(ordered))
        self.edges = partition_edges(self.soa.sorted_live()[0], self.shards)
        self.cores = [
            ShardCore(
                self.soa, self.stats, cfg,
                edges=self.edges, shard=i, sanitize=sanitize,
            )
            for i in range(self.shards)
        ]
        #: The coordinator's round-phase profiler (obs-installed).
        self.profiler: PhaseProfiler | None = None
        self._shard_sink: Any = None

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _phase_marker(self) -> "Callable[[str], None] | None":
        """Segment timer for the round-phase attribution profiler.

        Returns ``None`` on the untimed path; otherwise a closure that
        attributes the wall-clock since the previous mark to the named
        phase.  Marks are placed so the segments *partition* the whole of
        ``execute_round`` — ``repro obs phases`` checks that the sum
        accounts for ≥ 95% of the measured round time.
        """
        profiler = self.profiler
        if profiler is None:
            return None
        t_last = time.perf_counter()

        def mark(phase: str) -> None:
            nonlocal t_last
            now = time.perf_counter()
            profiler.add(phase, now - t_last)
            t_last = now

        return mark

    def execute_round(self, rng: np.random.Generator) -> None:
        """Advance the network by one synchronous round.

        Replays the unsharded draw sequence exactly: one delivery-key
        array over the global canonical inbox order, scattered to shards as
        contiguous slices, then one move-and-forget draw per global
        segment of the token walk, split by :func:`token_draws`.

        With a profiler attached the round is decomposed into ``flush``
        (outbox flush + owner partition), ``exchange`` (wire-chunk
        transpose + canonical inbox build), ``rng`` (coordinator draws),
        ``dispatch`` (kernel execution on the shards, including the
        reslrl pause points), and ``merge`` (report folding) —
        the attribution ``repro obs phases`` reports.
        """
        n = self.shards
        mark = self._phase_marker()
        cores = self.cores
        routed = [core.route_take(n) for core in cores]
        if mark is not None:
            mark("flush")
        prep = [
            core.prepare_round([routed[src][dst] for src in range(n)])
            for dst, core in enumerate(cores)
        ]
        self.dropped += sum(p[0] for p in prep)
        nonres = [p[1] for p in prep]
        res = [p[2] for p in prep]
        total = sum(nonres) + sum(res)
        if mark is not None:
            mark("exchange")
        if total:
            packed_ok = all(p[3] for p in prep)
            keys = draw_delivery_keys(rng, total, packed_ok=packed_ok)
            slices: list[list[np.ndarray]] = [[] for _ in range(n)]
            offset = 0
            for block in (nonres, res):
                for shard, count in enumerate(block):
                    slices[shard].append(keys[offset : offset + count])
                    offset += count
            shard_keys = [np.concatenate(slices[shard]) for shard in range(n)]
        else:
            shard_keys = [np.empty(0, dtype=np.int64)] * n
        if mark is not None:
            mark("rng")
        spans = [
            span
            for core, ks in zip(cores, shard_keys)
            if (span := core.start_round(ks)) is not None
        ]
        if spans:
            # Global segments: every shard's cuts, over the span of all.
            cuts = np.unique(np.concatenate([span[2] for span in spans]))
            bounds = [
                min(span[0] for span in spans),
                *cuts.tolist(),
                max(span[1] for span in spans),
            ]
            for lo, hi in zip(bounds, bounds[1:]):
                counts = np.stack([core.reslrl_count(lo, hi) for core in cores])
                if mark is not None:
                    mark("dispatch")
                draws = token_draws(rng, counts)
                if mark is not None:
                    mark("rng")
                for core, (coins, forget_u) in zip(cores, draws):
                    core.reslrl_apply(lo, hi, coins, forget_u)
        finished = [core.finish_round() for core in cores]
        if mark is not None:
            mark("dispatch")
        sink = self._shard_sink
        if sink is not None:
            for shard, report in enumerate(finished):
                telemetry = report.get("telemetry")
                if telemetry is not None:
                    sink.fold(shard, telemetry)
                sink.live_nodes(shard, report["n_live"])
        if mark is not None:
            mark("merge")

    # ------------------------------------------------------------------
    # Membership / churn (round boundaries only; join/leave: SoAHost)
    # ------------------------------------------------------------------
    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int:
        """Batched join with the ``FastEngine.join_batch`` contract."""
        rows = join_batch_rows(new_ids, contact_ids, self.soa)
        self.soa.add_batch(*rows)
        return len(rows[0])

    def leave_batch(self, node_ids: np.ndarray) -> int:
        """Batched departure with the ``FastEngine.leave_batch`` contract."""
        victims = leave_batch_victims(node_ids, self.soa)
        if len(victims) == 0:
            return 0
        self.soa.remove_batch(victims)
        for core in self.cores:
            self.dropped += core.outbox.drop_and_purge_batch(victims)
        self.soa.scrub_departed_many(victims)
        self.soa.maybe_compact()
        return len(victims)

    # ------------------------------------------------------------------
    # FastEngine surface: introspection
    # ------------------------------------------------------------------
    @property
    def shard_sink(self) -> Any:
        """Per-shard telemetry sink (:class:`repro.obs.shard
        .ShardTelemetrySink` or ``None``).

        Setting a sink switches every shard core onto the
        telemetry-capturing path; setting ``None`` switches them back to
        the untimed path the obs-disabled overhead gate measures.
        The engine never imports ``repro.obs``: the sink is duck-typed
        (``fold``/``live_nodes``), keeping the disabled path import-free.
        """
        return self._shard_sink

    @shard_sink.setter
    def shard_sink(self, value: Any) -> None:
        self._shard_sink = value
        for core in self.cores:
            core.set_telemetry(value is not None)

    @property
    def sanitizer(self) -> None:
        """The coordinator itself runs no kernels (cores sanitize locally)."""
        return None

    def pending_total(self) -> int:
        return sum(core.pending_total() for core in self.cores)

    def in_flight_rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """Every core's outbox rows, in shard order."""
        parts = [core.in_flight_rows(code) for core in self.cores]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def set_wave_fault(self, fault: object) -> None:
        raise NotImplementedError(
            "wave-dispatch faults are not supported on the sharded engine"
        )

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(n={len(self)}, shards={self.shards}, "
            f"sent={self.stats.total})"
        )
