"""One shard of the sharded engine: a ``FastEngine`` with a phased round.

:class:`ShardCore` runs a contiguous id-range *block* of the round as a
plain :class:`~repro.sim.fast.batched.FastEngine` (same kernels, same
sanitizer wiring) over the coordinator's one
:class:`~repro.sim.fast.soa.SoAState` and one ``MessageStats``, which it
borrows: it owns an outbox, not nodes.  Every protocol action stores only
into the acting node's own row, so blocks never touch each other's rows.
It never draws randomness itself.  The
coordinator (:class:`~repro.sim.fast.shard.engine.ShardedEngine`) splits
the unsharded round into phases it can interleave across shards:

1. :meth:`route_take` — flush the outbox and partition the staged rows by
   owning shard (the boundary-outbox exchange payload);
2. :meth:`prepare_round` — build the canonical pre-inbox from local +
   received rows and report its row counts;
3. :meth:`start_round` — apply the coordinator's delivery-key slice and
   schedule the inbox (:meth:`FastEngine._plan_round`), reporting the
   waves at which this block holds ``reslrl`` rows;
4. :meth:`reslrl_count` / :meth:`reslrl_apply` — the token walk, one
   global ``reslrl`` wave at a time: the validity count of the wave's
   batch, then its token step with the coins the coordinator drew once,
   globally, and scattered.  Nothing is dispatched at a pause point — the
   walk reads and writes ``lrl``/``age`` only;
5. :meth:`finish_round` — put the walked ``lrl`` slots back, run every
   dispatch group plus the regular action over the block's live rows, and
   flush the send counts into the shared stats.

Because every draw happens coordinator-side over globally-ordered rows,
a sharded run replays the unsharded engine's RNG stream bit-for-bit
at any shard count (docs/PERF.md).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.sim.fast.batched import FastEngine, RoundPlan
from repro.sim.fast.buffers import (
    N_TYPES,
    RESLRL,
    PreparedInbox,
    _col,
    finalize_inbox,
    prepare_inbox,
)
from repro.sim.fast.shard.partition import owner_of
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

__all__ = ["ShardCore", "WireChunks"]

#: The boundary-outbox exchange payload: per-type lists of
#: ``(dest, a, b, c)`` row chunks (origin is dropped — nothing on the
#: fault-free path reads it, and it halves the exchange volume).
WireChunks = list[list[tuple[np.ndarray, ...]]]


def _empty_wire(n_shards: int) -> list[WireChunks]:
    return [[[] for _ in range(N_TYPES)] for _ in range(n_shards)]


class ShardCore(FastEngine):
    """A ``FastEngine`` over one id-range block of a borrowed state."""

    def __init__(
        self,
        soa: SoAState,
        stats: MessageStats,
        config: ProtocolConfig | None = None,
        *,
        edges: np.ndarray,
        shard: int,
        sanitize: bool | None = None,
    ) -> None:
        # Coalescing-set semantics are load-bearing: canonical content
        # order is what lets the coordinator scatter one global key array.
        super().__init__(soa, config, dedup=True, sanitize=sanitize, stats=stats)
        self.edges = np.ascontiguousarray(edges, dtype=np.float64)
        self.shard = int(shard)
        # The block is ids in [lo, hi): the side owner_of cuts on.
        self._block = np.concatenate(([-np.inf], self.edges, [np.inf]))[
            self.shard : self.shard + 2
        ]
        self._pre: PreparedInbox | None = None
        self._plan: RoundPlan | None = None
        #: This round's token-walk batches (inbox rows) by wave rank.
        self._tokens_at: dict[int, np.ndarray] = {}
        # Per-round boundary-exchange row volumes, reported (and reset)
        # by the telemetry piggyback when set_telemetry(True) is active.
        self._rows_routed = 0
        self._rows_in = 0
        # Never drawn on the coordinated path (regular_action is
        # deterministic and reslrl draws are injected); exists so the
        # inherited kernel calls keep their signature.
        self._local_rng = np.random.default_rng([0xD15C, self.shard])

    # ------------------------------------------------------------------
    # Telemetry (repro.obs.shard)
    # ------------------------------------------------------------------
    def set_telemetry(self, enabled: bool) -> None:
        """Install (or remove) the shard-local telemetry capture.

        Enabled, the inherited per-kernel timing path runs against a
        core-local :class:`~repro.obs.profile.PhaseProfiler` and the
        route/prepare phases count their boundary-exchange row volumes;
        :meth:`finish_round` piggybacks the per-round delta on its report
        (one extra dict per shard per round).  Disabled (the default),
        the round runs the exact untimed path the obs-disabled overhead
        gate measures.
        """
        if enabled:
            from repro.obs.profile import PhaseProfiler

            self.profiler = PhaseProfiler()
        else:
            self.profiler = None
        self._rows_routed = 0
        self._rows_in = 0

    # ------------------------------------------------------------------
    # Phase 1 — route
    # ------------------------------------------------------------------
    def route_take(self, n_shards: int) -> list[WireChunks]:
        """Flush the outbox, partitioned by owning shard.

        Returns one :data:`WireChunks` per destination shard; entry
        ``self.shard`` is the local traffic that never crosses a shard
        boundary.
        """
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        routed = 0
        staged = self.outbox.take_all()
        out = _empty_wire(n_shards)
        for code, per_type in enumerate(staged):
            if not per_type:
                continue
            dest = np.concatenate([ch[0] for ch in per_type])
            a = np.concatenate([ch[1] for ch in per_type])
            routed += len(dest)
            if code == RESLRL:
                b = np.concatenate(
                    [_col(ch, 2, len(ch[0])) for ch in per_type]
                )
                c = np.concatenate(
                    [_col(ch, 3, len(ch[0])) for ch in per_type]
                )
            owner = owner_of(dest, self.edges)
            for s in range(n_shards):
                m = owner == s
                if not m.any():
                    continue
                if code == RESLRL:
                    out[s][code].append((dest[m], a[m], b[m], c[m]))
                else:
                    out[s][code].append((dest[m], a[m]))
        if profiler is not None:
            profiler.add("shard_route", time.perf_counter() - t0, calls=routed)
            self._rows_routed += routed
        return out

    # ------------------------------------------------------------------
    # Phase 2 — prepare
    # ------------------------------------------------------------------
    def prepare_round(
        self, incoming: list[WireChunks]
    ) -> tuple[int, int, int, bool]:
        """Build the canonical pre-inbox from per-source wire chunks.

        *incoming* lists every source shard's chunks for this shard, in
        ascending source order (any deterministic order works — canonical
        ordering is content-determined).  Returns ``(dropped, n_nonres,
        n_res, packed_ok)`` for the coordinator's key bookkeeping.
        """
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        received = 0
        merged: list[list[tuple[np.ndarray, ...]]] = [
            [] for _ in range(N_TYPES)
        ]
        for source in incoming:
            for code in range(N_TYPES):
                for ch in source[code]:
                    received += len(ch[0])
                    if code == RESLRL:
                        merged[code].append(
                            (ch[0], ch[1], ch[2], ch[3], None)
                        )
                    else:
                        merged[code].append((ch[0], ch[1], None, None, None))
        pre, dropped = prepare_inbox(
            merged, self.soa.lookup, dedup=True, pool=self.pool
        )
        self._pre = pre
        if profiler is not None:
            profiler.add(
                "shard_prepare", time.perf_counter() - t0, calls=received
            )
            self._rows_in += received
        if pre is None:
            return dropped, 0, 0, True
        return dropped, len(pre) - pre.n_res, pre.n_res, pre.packed_ok

    # ------------------------------------------------------------------
    # Phase 3 — start dispatch
    # ------------------------------------------------------------------
    def start_round(self, keys: np.ndarray) -> list[int]:
        """Finalize the inbox with the coordinator's key slice; schedule it.

        *keys* aligns with this shard's canonical row order (non-reslrl
        block, then reslrl block).  Returns the wave ranks at which this
        shard holds ``reslrl`` rows — the coordinator's pause points —
        or ``[]`` when move-and-forget is off (no draws happen then).
        """
        pre, self._pre = self._pre, None
        self._plan = None
        self._tokens_at = {}
        if pre is None:
            return []
        plan = self._plan = self._plan_round(finalize_inbox(pre, keys))
        if not self.kernels.maf:
            return []
        self._tokens_at = {
            int(plan.inbox.rank[rows[0]]): rows for rows in plan.batches
        }
        return list(self._tokens_at)

    # ------------------------------------------------------------------
    # Phase 4 — reslrl pause points
    # ------------------------------------------------------------------
    def reslrl_count(self, rank: int) -> tuple[bool, int]:
        """Size up this shard's token batch at the ``reslrl`` wave *rank*.

        Reports ``(present, n_valid)``: whether this shard holds
        ``reslrl`` rows in that wave, and how many of them pass the
        responder-validity filter against the walk so far — the exact
        number of coin pairs the batch will consume.
        """
        rows = self._tokens_at.get(rank)
        if rows is None:
            return False, 0
        assert self._plan is not None
        inbox = self._plan.inbox
        valid = inbox.a[rows] == self.soa.lrl[inbox.dest_idx[rows]]
        return True, int(valid.sum())

    def reslrl_apply(
        self, rank: int, coins: np.ndarray, forget_u: np.ndarray
    ) -> None:
        """Step the tokens of the wave *rank* with the injected draws."""
        rows = self._tokens_at.get(rank)
        if rows is None:
            if len(coins):
                raise RuntimeError(
                    f"shard {self.shard}: coordinator sent coins for a "
                    f"reslrl wave {rank} this shard does not hold"
                )
            return
        assert self._plan is not None
        self._walk_tokens(self._plan, rows, self._local_rng, coins, forget_u)

    # ------------------------------------------------------------------
    # Phase 5 — finish
    # ------------------------------------------------------------------
    def _regular_rows(self) -> np.ndarray:
        """The live rows of this block, ascending by identifier."""
        ids, idx = self.soa.sorted_live()
        lo, hi = np.searchsorted(ids, self._block)
        return idx[lo:hi]

    def finish_round(self) -> dict[str, Any]:
        """Run every group + the regular action; report the block."""
        plan, self._plan = self._plan, None
        if plan is not None:
            self._run_groups(plan)
        n_live = self._run_regular(self._local_rng)
        self.outbox.flush_stats()
        report: dict[str, Any] = {"n_live": n_live}
        profiler = self.profiler
        if profiler is not None:
            # Piggyback this round's telemetry delta on the report the
            # coordinator reads anyway (repro.obs.shard).
            report["telemetry"] = {
                "seconds": dict(profiler.seconds),
                "calls": dict(profiler.calls),
                "rows_routed": self._rows_routed,
                "rows_in": self._rows_in,
            }
            profiler.seconds.clear()
            profiler.calls.clear()
            self._rows_routed = 0
            self._rows_in = 0
        return report
