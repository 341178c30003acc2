"""The vectorized chaos engine: batched wire faults + guarded handoff.

:class:`ChaosFastEngine` extends the batched
:class:`~repro.sim.fast.batched.FastEngine` with the chaos wire: staged
sends become tick-stamped :class:`~repro.sim.fast.chaos.wire.WireRows`,
pass through the vectorized fault executors
(:func:`~repro.sim.fast.chaos.wire.apply_wire_faults`), and — for the
guarded message types — are wrapped into pending-ack rows managed by
:class:`BatchedGuard`, the struct-of-arrays port of
:class:`~repro.sim.chaos.guard.GuardedHandoff` (same
:class:`~repro.sim.chaos.guard.GuardPolicy`, same
:class:`~repro.sim.chaos.guard.GuardStats` fields, retry/backoff/abandon
arithmetic identical per row).

Equivalence to the reference chaos stack is *distributional*: the
injectors' private PCG64 streams produce the same draw values batched or
scalar, but delivery interleaving within a tick differs (the batched
round delivers by frame kind, the reference in wire insertion order), so
only aggregate behavior — recovery times, split/converge outcomes, guard
overhead — is comparable.  The bit-exact twin of ``ChaosNetwork`` is
:class:`~repro.sim.fast.chaos.mirror.ChaosMirrorEngine`, which pins every
injector per round before this engine is trusted at scale (docs/CHAOS.md,
``tests/test_fast_chaos_differential.py``).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import Message
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.sim.chaos.guard import GuardPolicy, GuardStats
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.buffers import CODE_OF_TYPE, RESLRL, TYPE_OF_CODE, victim_rank
from repro.sim.fast.chaos.wire import (
    KIND_ACK,
    KIND_ENVELOPE,
    KIND_MESSAGE,
    WireRows,
    apply_wire_faults,
    supports_batched_wire,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.chaos.injectors import FaultInjector

__all__ = ["BatchedGuard", "ChaosFastEngine"]


class BatchedGuard:
    """Guarded-handoff state as pending-ack columns.

    One row per outstanding envelope: ``seq`` (ascending, unique),
    ``origin``/``dest``/``tcode``/``a``/``b``/``c`` (the wrapped payload),
    ``attempts``, ``due`` (next retransmit tick), and ``alive`` (False
    once acked, abandoned, or dropped).  Receipts are a sorted ``seq``
    array; when it outgrows ``policy.receipt_memory`` the smallest
    sequence numbers are evicted — the array analogue of the reference's
    FIFO receipt window (identical until a frame outlives 65536 younger
    deliveries, which no shipped campaign approaches).
    """

    def __init__(self, policy: GuardPolicy | None = None) -> None:
        self.policy = policy or GuardPolicy()
        self.stats = GuardStats()
        self._next_seq = 0
        self.seq = np.empty(0, dtype=np.int64)
        self.origin = np.empty(0, dtype=np.float64)
        self.dest = np.empty(0, dtype=np.float64)
        self.tcode = np.empty(0, dtype=np.int8)
        self.a = np.empty(0, dtype=np.float64)
        self.b = np.empty(0, dtype=np.float64)
        self.c = np.empty(0, dtype=np.float64)
        self.attempts = np.empty(0, dtype=np.int64)
        self.due = np.empty(0, dtype=np.int64)
        self.alive = np.empty(0, dtype=bool)
        self._receipts = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def guarded_codes(self) -> np.ndarray:
        """Type codes the policy guards, as an array for ``np.isin``."""
        return np.asarray(
            sorted(CODE_OF_TYPE[t] for t in self.policy.types),
            dtype=np.int8,
        )

    def wrap_rows(self, rows: WireRows, gmask: np.ndarray, tick: int) -> None:
        """Turn ``rows[gmask]`` into envelopes and register them pending."""
        k = int(gmask.sum())
        if k == 0:
            return
        seqs = np.arange(self._next_seq, self._next_seq + k, dtype=np.int64)
        self._next_seq += k
        rows.seq[gmask] = seqs
        rows.kind[gmask] = KIND_ENVELOPE
        self.stats.guarded += k
        self.seq = np.concatenate([self.seq, seqs])
        self.origin = np.concatenate([self.origin, rows.origin[gmask]])
        self.dest = np.concatenate([self.dest, rows.dest[gmask]])
        self.tcode = np.concatenate([self.tcode, rows.tcode[gmask]])
        self.a = np.concatenate([self.a, rows.a[gmask]])
        self.b = np.concatenate([self.b, rows.b[gmask]])
        self.c = np.concatenate([self.c, rows.c[gmask]])
        self.attempts = np.concatenate(
            [self.attempts, np.ones(k, dtype=np.int64)]
        )
        self.due = np.concatenate(
            [
                self.due,
                np.full(k, tick + self.policy.retry_interval, dtype=np.int64),
            ]
        )
        self.alive = np.concatenate([self.alive, np.ones(k, dtype=bool)])

    def on_acks(self, ack_seqs: np.ndarray) -> None:
        """Retire pending rows acknowledged by *ack_seqs* (idempotent —
        acks for already-retired sequences are ignored, like ``on_ack``'s
        ``pop`` returning ``None``)."""
        if len(ack_seqs) == 0 or len(self.seq) == 0:
            return
        hit = np.isin(self.seq, ack_seqs) & self.alive
        n = int(hit.sum())
        if n:
            self.stats.acks_received += n
            self.alive[hit] = False

    def on_deliveries(self, env_seqs: np.ndarray) -> np.ndarray:
        """Receipt-check delivered envelope sequences.

        Returns the boolean *fresh* mask aligned with ``env_seqs``; stats
        (acks sent always, delivered/duplicates split) and the receipt
        window are updated.  In-batch duplicates (a duplication injector
        copying an envelope into the same tick) count as duplicates after
        their first occurrence, like the reference's sequential delivery.
        """
        n = len(env_seqs)
        self.stats.acks_sent += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        fresh = ~np.isin(env_seqs, self._receipts)
        # First in-batch occurrence wins; later copies are duplicates.
        _, first_pos = np.unique(env_seqs, return_index=True)
        first = np.zeros(n, dtype=bool)
        first[first_pos] = True
        fresh &= first
        n_fresh = int(fresh.sum())
        self.stats.delivered += n_fresh
        self.stats.duplicates += n - n_fresh
        if n_fresh:
            self._receipts = np.sort(
                np.concatenate([self._receipts, env_seqs[fresh]])
            )
            overflow = len(self._receipts) - self.policy.receipt_memory
            if overflow > 0:
                self._receipts = self._receipts[overflow:]
        return fresh

    def due_retransmits(self, tick: int) -> np.ndarray:
        """Advance retry state; returns the index array of rows to resend.

        Exhausted rows (``attempts >= max_attempts``) are abandoned; the
        rest get ``attempts += 1``, exponential-backoff ``due``, and count
        as retransmits — membership of the destination is the caller's
        concern, exactly like ``GuardedHandoff.due_retransmits``.
        """
        due_mask = self.alive & (self.due <= tick)
        if not due_mask.any():
            return np.empty(0, dtype=np.int64)
        exhausted = due_mask & (self.attempts >= self.policy.max_attempts)
        n_ex = int(exhausted.sum())
        if n_ex:
            self.stats.abandoned += n_ex
            self.alive[exhausted] = False
        resend = np.flatnonzero(due_mask & ~exhausted)
        if len(resend):
            self.attempts[resend] += 1
            interval = self.policy.retry_interval * (
                self.policy.backoff ** (self.attempts[resend] - 1)
            )
            self.due[resend] = tick + np.maximum(
                1, interval.astype(np.int64)
            )
            self.stats.retransmits += len(resend)
        return resend

    def drop_for_destination(self, node_id: float) -> None:
        hit = self.alive & (self.dest == node_id)
        n = int(hit.sum())
        if n:
            self.stats.abandoned += n
            self.alive[hit] = False

    def drop_mentioning(self, node_id: float) -> None:
        mention = (self.a == node_id) | (
            (self.tcode == RESLRL)
            & ((self.b == node_id) | (self.c == node_id))
        )
        self.alive[self.alive & mention] = False

    def drop_batch(self, victims: np.ndarray) -> None:
        """Batched ``drop_for_destination`` + ``drop_mentioning`` sweep.

        Equivalent to the scalar pair per victim in ascending id order
        (*victims* must be sorted): a pending row abandons (counted) iff
        the first victim that touches it is its destination — the same
        ``d <= m`` rule as :meth:`Outbox.drop_and_purge_batch` — and dies
        uncounted when an earlier victim is merely mentioned.
        """
        if len(victims) == 0 or len(self.alive) == 0:
            return
        absent = len(victims)
        d = victim_rank(self.dest, victims)
        m = victim_rank(self.a, victims)
        lrl = self.tcode == RESLRL
        if lrl.any():
            mb = victim_rank(self.b, victims)
            mc = victim_rank(self.c, victims)
            m = np.where(lrl, np.minimum(m, np.minimum(mb, mc)), m)
        doomed = self.alive & ((d < absent) | (m < absent))
        abandoned = int((doomed & (d <= m)).sum())
        if abandoned:
            self.stats.abandoned += abandoned
        self.alive[doomed] = False

    def compact(self) -> None:
        """Drop dead rows once they dominate (amortized O(1) per round)."""
        dead = len(self.alive) - int(self.alive.sum())
        if dead * 2 <= len(self.alive):
            return
        keep = self.alive
        for name in (
            "seq", "origin", "dest", "tcode", "a", "b", "c",
            "attempts", "due", "alive",
        ):
            setattr(self, name, getattr(self, name)[keep])

    @property
    def outstanding_count(self) -> int:
        return int(self.alive.sum())


class ChaosFastEngine(FastEngine):
    """Batched SoA engine whose wire is subject to vectorized faults."""

    def __init__(
        self,
        states: Iterable[NodeState],
        config: ProtocolConfig | None = None,
        *,
        guard: GuardPolicy | None = None,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
    ) -> None:
        super().__init__(
            states, config, dedup=dedup, keep_history=keep_history,
            sanitize=sanitize,
            # The fault executors draw per staged *frame*: mid-round
            # compaction would change the frame multiset and desync the
            # chaos mirror twin, so the wire keeps the raw staging.
            compact_outbox=False,
        )
        self._wire_faults: list["FaultInjector"] = []
        self._wire = WireRows.empty()
        self._tick = 0
        self._guard: BatchedGuard | None = (
            BatchedGuard(policy=guard) if guard is not None else None
        )

    # ------------------------------------------------------------------
    # Fault-chain management (same surface as ChaosNetwork)
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Wire clock: one tick per round flush."""
        return self._tick

    @property
    def wire_faults(self) -> list["FaultInjector"]:
        """The currently active wire-fault chain (applied in order)."""
        return list(self._wire_faults)

    def set_wire_faults(self, injectors: Iterable["FaultInjector"]) -> None:
        """Install the active wire-fault chain.

        Only the shipped wire injectors have vectorized executors; a
        custom ``on_wire`` override cannot be replayed as an array kernel,
        so it is rejected here (run it on the reference ``ChaosNetwork``
        or the chaos mirror engine instead).
        """
        chain = list(injectors)
        for inj in chain:
            if not supports_batched_wire(inj):
                raise TypeError(
                    f"{inj.name} has no vectorized wire executor; run "
                    "custom injectors on the reference ChaosNetwork or "
                    "the chaos mirror engine (mode='mirror-chaos')"
                )
        self._wire_faults = chain

    @property
    def guard(self) -> BatchedGuard | None:
        """The batched guarded-handoff transport, if one is installed."""
        return self._guard

    # ------------------------------------------------------------------
    # Round hooks: wire delivery and end-of-round transmission
    # ------------------------------------------------------------------
    def _take_wire(self, rng: np.random.Generator) -> list:
        """Advance the wire clock and collect this tick's deliveries."""
        del rng
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        self._tick += 1
        wire = self._wire
        due_mask = wire.due <= self._tick
        self._wire = wire.take(~due_mask)
        due = wire.take(due_mask)
        chunks: list[list[tuple]] = [[] for _ in range(len(TYPE_OF_CODE))]

        # Acks retire pending envelopes (duplicate acks are no-ops).
        if self._guard is not None:
            ack_rows = due.kind == KIND_ACK
            if ack_rows.any():
                self._guard.on_acks(np.unique(due.seq[ack_rows]))

        # Envelopes: ack every delivery, stage only fresh payloads.
        env_rows = due.kind == KIND_ENVELOPE
        if env_rows.any():
            env = due.take(env_rows)
            _, found = self.soa.lookup(env.dest)
            lost = int(len(found) - found.sum())
            if lost:
                # Destination departed mid-flight: payload dies, no ack.
                self.dropped += lost
                env = env.take(found)
            if len(env) and self._guard is not None:
                fresh = self._guard.on_deliveries(env.seq)
                payload = env.take(fresh)
                for code, dst, a, b, cc in _rows_by_code(payload):
                    chunks[code].append((dst, a, b, cc, None))
                acks = WireRows(
                    dest=env.origin.copy(),
                    kind=np.full(len(env), KIND_ACK, dtype=np.int8),
                    tcode=np.zeros(len(env), dtype=np.int8),
                    a=np.zeros(len(env), dtype=np.float64),
                    b=np.zeros(len(env), dtype=np.float64),
                    c=np.zeros(len(env), dtype=np.float64),
                    origin=env.dest.copy(),
                    seq=env.seq.copy(),
                    due=np.zeros(len(env), dtype=np.int64),
                )
                self._transmit_rows(acks)
            elif len(env):
                # No guard installed (cannot happen via the public API,
                # matching ChaosNetwork's defensive drop).
                self.dropped += len(env)

        # Plain messages: membership is re-checked (and drops counted)
        # by build_inbox's lookup, like Network._enqueue.
        msg_rows = due.kind == KIND_MESSAGE
        if msg_rows.any():
            msgs = due.take(msg_rows)
            for code, dst, a, b, cc in _rows_by_code(msgs):
                chunks[code].append((dst, a, b, cc, None))

        # Retransmit due unacked envelopes whose destination still exists.
        if self._guard is not None:
            resend = self._guard.due_retransmits(self._tick)
            if len(resend):
                g = self._guard
                rows = WireRows(
                    dest=g.dest[resend].copy(),
                    kind=np.full(len(resend), KIND_ENVELOPE, dtype=np.int8),
                    tcode=g.tcode[resend].copy(),
                    a=g.a[resend].copy(),
                    b=g.b[resend].copy(),
                    c=g.c[resend].copy(),
                    origin=g.origin[resend].copy(),
                    seq=g.seq[resend].copy(),
                    due=np.zeros(len(resend), dtype=np.int64),
                )
                _, found = self.soa.lookup(rows.dest)
                if not found.all():
                    rows = rows.take(found)
                if len(rows):
                    self._transmit_rows(rows)
            self._guard.compact()
        if profiler is not None:
            profiler.add("wire", time.perf_counter() - t0)
        return chunks

    def _close_round(self, rng: np.random.Generator) -> None:
        """Move this round's staged sends onto the wire.

        Mirrors ``ChaosNetwork._dispatch`` per row: count the send (the
        outbox already did), drop sends to departed identifiers at the
        source, guard-wrap the guarded types, then run the fault chain
        and stamp delivery ticks.
        """
        del rng
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        self.outbox.flush_stats()
        staged = self.outbox.take_all()
        parts: list[WireRows] = []
        for code, per_type in enumerate(staged):
            for dst, a, b, cc, origin in per_type:
                parts.append(
                    WireRows.build(
                        dst, np.full(len(dst), code, dtype=np.int8),
                        a, b, cc, origin,
                    )
                )
        rows = WireRows.concat(parts)
        if len(rows):
            _, found = self.soa.lookup(rows.dest)
            lost = int(len(found) - found.sum())
            if lost:
                self.dropped += lost
                rows = rows.take(found)
        if len(rows):
            if self._guard is not None:
                gmask = np.isin(rows.tcode, self._guard.guarded_codes())
                gmask &= np.isfinite(rows.origin)
                self._guard.wrap_rows(rows, gmask, self._tick)
            self._transmit_rows(rows)
        if profiler is not None:
            profiler.add("wire", time.perf_counter() - t0)

    def _transmit_rows(self, rows: WireRows) -> None:
        """Run *rows* through the active fault chain onto the wire."""
        rows, extra = apply_wire_faults(rows, self._wire_faults)
        if len(rows) == 0:
            return
        rows.due = self._tick + 1 + extra
        self._wire = WireRows.concat([self._wire, rows])

    # ------------------------------------------------------------------
    # Membership / churn
    # ------------------------------------------------------------------
    def leave(self, node_id: float) -> None:
        """Remove *node_id*; wire frames to it die with it (counted), wire
        mentions of it are purged (uncounted), and guarded envelopes for
        or mentioning it are dropped — as ``leave_node`` on a
        ``ChaosNetwork``."""
        super().leave(node_id)
        wire = self._wire
        if len(wire):
            doomed = (wire.dest == node_id) & (wire.kind != KIND_ACK)
            n = int(doomed.sum())
            if n:
                self.dropped += n
                wire = wire.take(~doomed)
            mention = (wire.kind != KIND_ACK) & _mentions(wire, node_id)
            if mention.any():
                wire = wire.take(~mention)
            self._wire = wire
        if self._guard is not None:
            self._guard.drop_for_destination(node_id)
            self._guard.drop_mentioning(node_id)

    def _after_leave_batch(self, victims: np.ndarray) -> None:
        """Vectorized wire + guard purge for a departure batch.

        The scalar ``leave`` interleaves outbox, wire, and guard purges per
        victim, but the three stores are disjoint, so processing each store
        with its own ``d <= m`` sweep over the ascending victim batch
        reproduces the sequential counts exactly.
        """
        wire = self._wire
        if len(wire):
            absent = len(victims)
            payload = wire.kind != KIND_ACK
            d = victim_rank(wire.dest, victims)
            m = victim_rank(wire.a, victims)
            lrl = wire.tcode == RESLRL
            if lrl.any():
                mb = victim_rank(wire.b, victims)
                mc = victim_rank(wire.c, victims)
                m = np.where(lrl, np.minimum(m, np.minimum(mb, mc)), m)
            doomed = payload & ((d < absent) | (m < absent))
            counted = int((doomed & (d <= m)).sum())
            if counted:
                self.dropped += counted
            if doomed.any():
                self._wire = wire.take(~doomed)
        if self._guard is not None:
            self._guard.drop_batch(victims)

    # ------------------------------------------------------------------
    # Connectivity accounting
    # ------------------------------------------------------------------
    def pending_total(self) -> int:
        """Total undelivered protocol messages (staged + wire payloads;
        the retransmit buffer holds copies and is not double-counted)."""
        wire_payloads = int((self._wire.kind != KIND_ACK).sum())
        return super().pending_total() + wire_payloads

    def _wire_payloads(self) -> WireRows:
        return self._wire.take(self._wire.kind != KIND_ACK)

    def _unsent_pending(self) -> np.ndarray:
        """Pending-guard row indices with no copy currently on the wire."""
        if self._guard is None:
            return np.empty(0, dtype=np.int64)
        g = self._guard
        on_wire = self._wire.seq[self._wire.kind == KIND_ENVELOPE]
        hidden = g.alive & ~np.isin(g.seq, on_wire)
        return np.flatnonzero(hidden)

    def inflight_pairs(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dest_ids, payload)`` of pending single-id messages of *code*,
        wire and retransmit buffer included (predicate contract)."""
        base_dest, base_a = super().inflight_pairs(code)
        wire = self._wire_payloads()
        sel = wire.tcode == code
        dests = [base_dest, wire.dest[sel]]
        payloads = [base_a, wire.a[sel]]
        hidden = self._unsent_pending()
        if len(hidden) and self._guard is not None:
            g = self._guard
            gsel = hidden[g.tcode[hidden] == code]
            dests.append(g.dest[gsel])
            payloads.append(g.a[gsel])
        return np.concatenate(dests), np.concatenate(payloads)

    def in_flight_id_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, payload_id)`` rows over every in-flight payload id,
        wire and retransmit buffer included."""
        base = super().in_flight_id_pairs()
        dests = [base[0]]
        pids = [base[1]]
        wire = self._wire_payloads()
        if len(wire):
            dests.append(wire.dest)
            pids.append(wire.a)
            lrl = wire.tcode == RESLRL
            if lrl.any():
                dests.extend((wire.dest[lrl], wire.dest[lrl]))
                pids.extend((wire.b[lrl], wire.c[lrl]))
        hidden = self._unsent_pending()
        if len(hidden) and self._guard is not None:
            g = self._guard
            dests.append(g.dest[hidden])
            pids.append(g.a[hidden])
            lrl = hidden[g.tcode[hidden] == RESLRL]
            if len(lrl):
                dests.extend((g.dest[lrl], g.dest[lrl]))
                pids.extend((g.b[lrl], g.c[lrl]))
        return np.concatenate(dests), np.concatenate(pids)

    def pending_messages(self) -> list[tuple[float, Message]]:
        """Pending messages as ``(dest, Message)`` pairs (export path)."""
        out = super().pending_messages()
        wire = self._wire_payloads()
        for k in range(len(wire)):
            code = int(wire.tcode[k])
            mtype = TYPE_OF_CODE[code]
            if code == RESLRL:
                ids: tuple[float, ...] = (
                    float(wire.a[k]), float(wire.b[k]), float(wire.c[k])
                )
            else:
                ids = (float(wire.a[k]),)
            out.append((float(wire.dest[k]), Message(mtype, ids)))
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self)}, "
            f"pending={self.pending_total()}, wire={len(self._wire)}, "
            f"faults={len(self._wire_faults)}, "
            f"guarded={self._guard is not None})"
        )


def _mentions(rows: WireRows, node_id: float) -> np.ndarray:
    """Which rows' payloads mention *node_id* (filler columns ignored)."""
    hit = rows.a == node_id
    lrl = rows.tcode == RESLRL
    if lrl.any():
        hit = hit | (lrl & ((rows.b == node_id) | (rows.c == node_id)))
    return hit


def _rows_by_code(rows: WireRows):
    """Yield ``(code, dest, a, b, c)`` per message type present in *rows*
    (outbox-chunk shape, ready for ``build_inbox``)."""
    if len(rows) == 0:
        return
    for code in np.unique(rows.tcode):
        sel = rows.tcode == code
        yield (
            int(code),
            rows.dest[sel],
            rows.a[sel],
            rows.b[sel] if code == RESLRL else None,
            rows.c[sel] if code == RESLRL else None,
        )
