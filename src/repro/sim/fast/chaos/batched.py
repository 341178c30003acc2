"""The batched chaos wire: vectorized wire faults + guarded handoff.

:class:`BatchedWire` is the stage a :class:`~repro.sim.fast.batched.FastEngine`
built with ``wire=True`` holds as ``engine.wire``, between its outbox and its
next inbox: staged sends become tick-stamped
:class:`~repro.sim.fast.chaos.wire.WireRows`, pass through the vectorized
fault executors (:func:`~repro.sim.fast.chaos.wire.apply_wire_faults`), and
— for the guarded message types — are wrapped into pending-ack rows managed
by :class:`BatchedGuard`, the struct-of-arrays port of
:class:`~repro.sim.chaos.guard.GuardedHandoff` (same
:class:`~repro.sim.chaos.guard.GuardPolicy`, same
:class:`~repro.sim.chaos.guard.GuardStats` fields, retry/backoff/abandon
arithmetic identical per row).

Equivalence to the reference chaos stack is *distributional*: the
injectors' private PCG64 streams produce the same draw values batched or
scalar, but delivery interleaving within a tick differs (the batched
round delivers by frame kind, the reference in wire insertion order), so
only aggregate behavior — recovery times, split/converge outcomes, guard
overhead — is comparable.  The bit-exact twin of the wired reference
network is a test oracle (``tests/reference_mirror.py``), which pins
every injector per round before this wire is trusted at scale
(docs/CHAOS.md, ``tests/test_mirror_differential.py``).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.chaos.guard import GuardPolicy, GuardStats
from repro.sim.chaos.network import Wire
from repro.sim.fast.buffers import CODE_OF_TYPE, RESLRL, TYPE_OF_CODE, departure_sweep
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
    from repro.sim.fast.soa import SoAState

__all__ = ["BatchedGuard", "BatchedWire"]


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

    def drop_batch(self, victims: np.ndarray) -> None:
        """Retire the pending rows a departure batch touches.

        *victims* sorted ascending.  By the ``d <= m`` rule of
        :func:`~repro.sim.fast.buffers.departure_sweep`, a pending row for
        a departed destination is abandoned (counted, as
        ``GuardedHandoff.drop_for_destination``), and one that merely
        mentions an earlier victim dies uncounted (as ``drop_mentioning``).
        """
        if len(victims) == 0 or len(self.alive) == 0:
            return
        doomed, counted = departure_sweep(
            victims, self.dest, self.a, self.b, self.c, self.tcode == RESLRL
        )
        self.stats.abandoned += int((counted & self.alive).sum())
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


class BatchedWire(Wire[BatchedGuard]):
    """The batched chaos wire: a stage between a batched engine's outbox
    and its next inbox, held as ``FastEngine.wire``.

    The engine calls it at four points: :meth:`deliver` takes the round's
    inbox chunks off the wire, :meth:`send` puts the round's staged sends
    on it, :meth:`depart` purges a departure batch, and
    :meth:`in_flight_rows` / :meth:`pending` add its share to the engine's
    in-flight set.  Each returns what the engine counts as ``dropped``
    where rows die.
    """

    def __init__(self, guard: GuardPolicy | None = None) -> None:
        super().__init__(BatchedGuard(policy=guard) if guard is not None else None)
        self._wire = WireRows.empty()

    def set_wire_faults(self, injectors: Iterable["FaultInjector"]) -> None:
        """Install the active wire-fault chain.

        Only the shipped wire injectors have vectorized executors; a
        custom ``on_wire`` override cannot be replayed as an array kernel,
        so it is rejected here (run it on a wired reference host
        instead).
        """
        chain = list(injectors)
        for inj in chain:
            if not supports_batched_wire(inj):
                raise TypeError(
                    f"{inj.name} has no vectorized wire executor; run "
                    "custom injectors on a wired reference host "
                    "(make_simulator(engine='reference', wire=True))"
                )
        super().set_wire_faults(chain)

    # ------------------------------------------------------------------
    # The round: delivery, then transmission of the round's sends
    # ------------------------------------------------------------------
    def deliver(self, soa: SoAState) -> tuple[list, int]:
        """Advance the wire clock and collect this tick's deliveries as
        outbox-shaped chunks for ``prepare_inbox``; also returns the
        payloads that died on arrival (their destination departed)."""
        dropped = 0
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
            _, found = soa.lookup(env.dest)
            lost = int(len(found) - found.sum())
            if lost:
                # Destination departed mid-flight: payload dies, no ack.
                dropped += lost
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
                # matching ScalarWire's defensive drop).
                dropped += len(env)

        # Plain messages: membership is re-checked (and drops counted)
        # by prepare_inbox's lookup, like Network._enqueue.
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
                _, found = soa.lookup(rows.dest)
                if not found.all():
                    rows = rows.take(found)
                if len(rows):
                    self._transmit_rows(rows)
            self._guard.compact()
        return chunks, dropped

    def send(self, staged: list, soa: SoAState) -> int:
        """Move a round's staged sends (``Outbox.take_all()``, already
        counted) onto the wire; returns the sends dropped at the source.

        As ``ScalarWire.dispatch`` per row: drop sends to departed
        identifiers at the source, guard-wrap the guarded types, then run
        the fault chain and stamp delivery ticks.
        """
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
        lost = 0
        if len(rows):
            _, found = soa.lookup(rows.dest)
            lost = int(len(found) - found.sum())
            if lost:
                rows = rows.take(found)
        if len(rows):
            if self._guard is not None:
                gmask = np.isin(rows.tcode, self._guard.guarded_codes())
                gmask &= np.isfinite(rows.origin)
                self._guard.wrap_rows(rows, gmask, self._tick)
            self._transmit_rows(rows)
        return lost

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
    def depart(self, victims: np.ndarray) -> int:
        """The wire and guard purge of a departure batch (*victims* sorted
        ascending); returns the wire payloads dropped.

        As ``leave_node`` on a wired ``Network``, per victim in ascending
        order: wire frames to it die with it (counted), wire mentions of it
        are purged (uncounted), acks are left alone, and guarded envelopes
        for or mentioning it are dropped.  The reference interleaves the
        outbox, wire and guard purges per victim, but the three stores are
        disjoint, so one ``d <= m`` sweep per store reproduces its counts.
        """
        dropped = 0
        wire = self._wire
        if len(wire):
            doomed, counted = departure_sweep(
                victims, wire.dest, wire.a, wire.b, wire.c, wire.tcode == RESLRL
            )
            payload = wire.kind != KIND_ACK
            dropped = int((counted & payload).sum())
            doomed &= payload
            if doomed.any():
                self._wire = wire.take(~doomed)
        if self._guard is not None:
            self._guard.drop_batch(victims)
        return dropped

    # ------------------------------------------------------------------
    # Connectivity accounting
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Protocol messages on the wire (acks carry none; the retransmit
        buffer holds copies and is not double-counted)."""
        return int((self._wire.kind != KIND_ACK).sum())

    def in_flight_rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """Every wire payload (acks carry none), then each pending guard
        row with no copy on the wire — an unacknowledged handoff still owns
        its identifiers — as ``(dest, tcode, a, b, c)`` columns."""
        wire = self._wire
        held = wire.kind != KIND_ACK
        if code is not None:
            held &= wire.tcode == code
        parts = [
            (wire.dest[held], wire.tcode[held], wire.a[held], wire.b[held], wire.c[held]),
        ]
        g = self._guard
        if g is not None:
            unsent = g.alive & ~np.isin(g.seq, wire.seq[wire.kind == KIND_ENVELOPE])
            if code is not None:
                unsent &= g.tcode == code
            parts.append(
                (g.dest[unsent], g.tcode[unsent], g.a[unsent], g.b[unsent], g.c[unsent])
            )
        return tuple(np.concatenate(column) for column in zip(*parts))


def _rows_by_code(rows: WireRows):
    """Yield ``(code, dest, a, b, c)`` per message type present in *rows*
    (outbox-chunk shape, ready for ``prepare_inbox``)."""
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
