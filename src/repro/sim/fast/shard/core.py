"""One shard of the sharded engine: a ``FastEngine`` with a phased round.

:class:`ShardCore` runs a contiguous id-range *block* of the round as a
plain :class:`~repro.sim.fast.batched.FastEngine` (same kernels, same
sanitizer wiring) over the coordinator's one
:class:`~repro.sim.fast.soa.SoAState` and one ``MessageStats``, which it
borrows: it owns an outbox, not nodes.  Every protocol action stores only
into the acting node's own row, so blocks never touch each other's rows.
It holds no generator: every draw is the coordinator's.  The
coordinator (:class:`~repro.sim.fast.shard.engine.ShardedEngine`) splits
the unsharded round into phases it can interleave across shards:

1. :meth:`route_take` — flush the outbox and partition the staged rows by
   owning shard (the boundary-outbox exchange payload);
2. :meth:`prepare_round` — build the canonical pre-inbox from local +
   received rows and report its row counts;
3. :meth:`start_round` — schedule the prepared inbox under the
   coordinator's delivery-key slice (:meth:`FastEngine._plan_round`, the
   batched engine's one planner), reporting the
   span of waves that holds this block's ``reslrl`` rows and the waves at
   which its token walk cuts a segment;
4. :meth:`reslrl_count` / :meth:`reslrl_apply` — the token walk, one
   global segment (the union of every block's cuts) at a time: the
   segment's valid rows per wave, then its token step with the coins the
   coordinator drew once, globally, and scattered.  Nothing is dispatched
   at a pause point — the walk reads and writes ``lrl``/``age`` only;
5. :meth:`finish_round` — put the walked ``lrl`` slots back, run every
   dispatch group plus the regular action over the block's live rows, and
   flush the send counts into the shared stats.

Because every draw happens coordinator-side over globally-ordered rows,
a sharded run replays the unsharded engine's RNG stream bit-for-bit
at any shard count (docs/PERF.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.sim.fast.batched import FastEngine, RoundPlan
from repro.sim.fast.buffers import (
    N_TYPES,
    RESLRL,
    PreparedInbox,
    _col,
    prepare_inbox,
)

# The plan orders its subset through ``buffers.finalize_inbox``; the
# suite's traced run (benchmarks/suite/tracing.py) still wraps this name.
from repro.sim.fast.buffers import finalize_inbox as finalize_inbox
from repro.sim.fast.shard.partition import owner_of
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

__all__ = ["ShardCore", "WireChunks"]

#: The boundary-outbox exchange payload: per-type lists of
#: ``(dest, a, b, c)`` row chunks.  There is no origin column: a core's
#: outbox never keeps one (nothing on the fault-free path reads it).
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
        # Canonical content order (the flush coalesces) is what lets the
        # coordinator scatter one global key array.
        super().__init__((), config, sanitize=sanitize, stats=stats, soa=soa)
        self.edges = np.ascontiguousarray(edges, dtype=np.float64)
        self.shard = int(shard)
        # The block is ids in [lo, hi): the side owner_of cuts on.
        self._block = np.concatenate(([-np.inf], self.edges, [np.inf]))[
            self.shard : self.shard + 2
        ]
        self._pre: PreparedInbox | None = None
        self._plan: RoundPlan | None = None

    # ------------------------------------------------------------------
    # Phase 1 — route
    # ------------------------------------------------------------------
    def route_take(self, n_shards: int) -> list[WireChunks]:
        """Flush the outbox, partitioned by owning shard.

        Returns one :data:`WireChunks` per destination shard; entry
        ``self.shard`` is the local traffic that never crosses a shard
        boundary.
        """
        staged = self.outbox.take_all()
        out = _empty_wire(n_shards)
        for code, per_type in enumerate(staged):
            if not per_type:
                continue
            dest = np.concatenate([ch[0] for ch in per_type])
            a = np.concatenate([ch[1] for ch in per_type])
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
        return out

    # ------------------------------------------------------------------
    # Phase 2 — prepare
    # ------------------------------------------------------------------
    def prepare_round(self, incoming: list[WireChunks]) -> tuple[int, int, int]:
        """Build the canonical pre-inbox from per-source wire chunks.

        *incoming* lists every source shard's chunks for this shard, in
        ascending source order (any deterministic order works — canonical
        ordering is content-determined).  Returns ``(dropped, n_nonres,
        n_res)`` for the coordinator's key bookkeeping.
        """
        merged: list[list[tuple[np.ndarray, ...]]] = [
            [] for _ in range(N_TYPES)
        ]
        for source in incoming:
            for code in range(N_TYPES):
                for ch in source[code]:
                    if code == RESLRL:
                        merged[code].append(
                            (ch[0], ch[1], ch[2], ch[3], None)
                        )
                    else:
                        merged[code].append((ch[0], ch[1], None, None, None))
        pre, dropped = prepare_inbox(merged, self.soa.lookup)
        self._pre = pre
        if pre is None:
            return dropped, 0, 0
        return dropped, len(pre) - pre.n_res, pre.n_res

    # ------------------------------------------------------------------
    # Phase 3 — start dispatch
    # ------------------------------------------------------------------
    def start_round(
        self, keys: np.ndarray
    ) -> tuple[int, int, np.ndarray] | None:
        """Schedule the prepared inbox under the coordinator's key slice.

        *keys* aligns with this shard's canonical row order (non-reslrl
        block, then reslrl block).  Returns ``(first, end, cuts)`` — the
        half-open span of waves that holds this shard's ``reslrl`` rows
        and the waves at which its walk starts a segment — or ``None``
        when it holds none or move-and-forget is off (nothing is drawn
        then).
        """
        pre, self._pre = self._pre, None
        self._plan = None
        if pre is None:
            return None
        plan = self._plan = self._plan_round(pre, keys)
        if not self.kernels.maf or len(plan.walk) == 0:
            return None
        return int(plan.walk_wave[0]), int(plan.walk_wave[-1]) + 1, plan.cuts

    # ------------------------------------------------------------------
    # Phase 4 — reslrl pause points, one per segment
    # ------------------------------------------------------------------
    def reslrl_count(self, lo: int, hi: int) -> np.ndarray:
        """This shard's valid ``reslrl`` rows in each wave of the segment
        ``[lo, hi)`` — the coin pairs its part of the segment consumes."""
        if self._plan is None:
            return np.zeros(hi - lo, dtype=np.int64)
        return self._segment(self._plan, lo, hi)

    def reslrl_apply(
        self, lo: int, hi: int, coins: np.ndarray, forget_u: np.ndarray
    ) -> None:
        """Step the tokens of the segment ``[lo, hi)`` with the injected
        draws."""
        plan = self._plan
        if plan is not None:
            if len(plan.walk_rows(lo, hi)[0]):
                self._walk_tokens(plan, lo, hi, coins, forget_u)
                return
        if len(coins):
            raise RuntimeError(
                f"shard {self.shard}: coordinator sent coins for reslrl "
                f"waves [{lo}, {hi}) this shard does not hold"
            )

    # ------------------------------------------------------------------
    # Phase 5 — finish
    # ------------------------------------------------------------------
    def _regular_rows(self) -> np.ndarray:
        """The live rows of this block, ascending by identifier."""
        ids, idx = self.soa.sorted_live()
        lo, hi = np.searchsorted(ids, self._block)
        return idx[lo:hi]

    def finish_round(self) -> None:
        """Run every group + the regular action over the block."""
        plan, self._plan = self._plan, None
        if plan is not None:
            self._run_groups(plan)
        self._run_regular()
        self.outbox.flush_stats()
