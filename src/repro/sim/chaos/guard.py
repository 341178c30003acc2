"""Guarded handoffs: bounded at-least-once delivery for critical messages.

Why this layer exists
---------------------
The protocol's connectivity preservation (paper §III, Theorem 1 of [18])
replaces stored links by *in-flight* copies during linearization: a
displaced neighbor or a re-injected forgotten endpoint exists, transiently,
only inside one ``lin`` message.  Under the paper's lossless channels that
is safe; under loss, the single copy dies with the message and weak
connectivity — the one property self-stabilization cannot restore, because
every later configuration is a legal initial state of a *different*,
disconnected system — is gone permanently.

The guarded handoff is the minimal transport fix: messages of the
connectivity-critical types are wrapped in sequence-numbered
:class:`~repro.core.messages.Envelope` frames, kept in a retransmit buffer,
and re-sent with exponential backoff until an
:class:`~repro.core.messages.Ack` arrives or ``max_attempts`` is exhausted.
Receivers acknowledge *every* copy (an ack can be lost too) but deliver
each ``(origin, seq)`` once; redundant deliveries would be harmless anyway
because the protocol handlers are idempotent and the coalescing channels
absorb identical payloads (DESIGN.md §4.7) — the dedup just keeps the
channel-size analysis honest.

Guarantees (and non-guarantees)
-------------------------------
* While an envelope is unacknowledged it sits in the retransmit buffer, so
  its payload identifiers still exist in the system — the connectivity
  graphs count them as in-flight.  Loss therefore *delays* a guarded
  handoff instead of destroying it.
* Delivery is at-least-once only up to ``max_attempts`` transmissions
  (bounded redundancy): with per-attempt loss probability ``p`` a handoff
  is lost with probability ``p**max_attempts``.  The default (10) pushes
  moderate loss rates into the negligible range (0.2**10 ≈ 1e-7) without
  unbounded buffering.
* Nothing is exactly-once, ordered, or timely — the paper's non-FIFO
  unbounded-delay model is preserved above this layer.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.messages import Ack, Envelope, Message, MessageType

__all__ = ["GuardPolicy", "GuardStats", "GuardedHandoff"]

#: Message types whose loss can sever weak connectivity: ``lin`` is the
#: handoff carrier (displaced neighbors and re-injected long-range
#: endpoints travel in it), ``resring`` hands a ring-edge candidate to a
#: node that may store nothing else on that side.
CRITICAL_TYPES = frozenset({MessageType.LIN, MessageType.RESRING})


@dataclass(frozen=True)
class GuardPolicy:
    """Tunables of the guarded-handoff transport.

    Attributes
    ----------
    types:
        Message types to guard.  Defaults to the connectivity-critical set
        (``lin``, ``resring``); guarding everything is legal but wastes
        acks on traffic the regular action re-advertises anyway.
    retry_interval:
        Ticks before the first retransmission.  Must cover the round trip
        (send tick + ack tick = 2 under the synchronous scheduler), or
        every handoff retransmits once for nothing.
    backoff:
        Multiplier on the retry interval per attempt (exponential backoff).
    max_attempts:
        Total transmissions per envelope before the transport gives up —
        the bound in "bounded redundancy".
    receipt_memory:
        Receiver-side dedup entries kept (FIFO eviction).  Old receipts are
        only needed while duplicates of old envelopes can still arrive, so
        a few thousand entries suffice for any realistic campaign.
    """

    types: frozenset[MessageType] = CRITICAL_TYPES
    retry_interval: int = 2
    backoff: float = 2.0
    max_attempts: int = 10
    receipt_memory: int = 65536

    def __post_init__(self) -> None:
        if not self.types:
            raise ValueError("GuardPolicy.types must not be empty")
        if self.retry_interval < 1:
            raise ValueError("retry_interval must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        if self.receipt_memory < 1:
            raise ValueError("receipt_memory must be positive")


@dataclass
class GuardStats:
    """Transport-overhead counters, kept apart from the protocol's
    :class:`~repro.sim.metrics.MessageStats` so the paper's message-count
    experiments stay unpolluted."""

    #: Protocol messages wrapped in envelopes.
    guarded: int = 0
    #: Envelope retransmissions (beyond the first attempt).
    retransmits: int = 0
    #: Acks put on the wire by receivers.
    acks_sent: int = 0
    #: Acks that made it back and cleared a buffer entry.
    acks_received: int = 0
    #: Envelope redeliveries suppressed by the receipt log.
    duplicates: int = 0
    #: Envelopes delivered to their destination channel (first copies).
    delivered: int = 0
    #: Envelopes dropped after ``max_attempts`` transmissions.
    abandoned: int = 0

    def overhead_frames(self) -> int:
        """Extra wire traffic the guard generated (retransmits + acks)."""
        return self.retransmits + self.acks_sent


@dataclass
class _Pending:
    """One unacknowledged envelope in the sender-side retransmit buffer."""

    envelope: Envelope
    attempts: int
    due: int


@dataclass
class GuardedHandoff:
    """Sender/receiver state machine of the guarded-handoff transport.

    Owned and driven by the scalar wire stage,
    :class:`~repro.sim.chaos.network.ScalarWire`; pure bookkeeping, no I/O
    — every wire interaction goes back through the wire so fault injectors
    see retransmissions and acks too.
    """

    policy: GuardPolicy = field(default_factory=GuardPolicy)
    stats: GuardStats = field(default_factory=GuardStats)

    _next_seq: int = 0
    _outstanding: "OrderedDict[int, _Pending]" = field(default_factory=OrderedDict)
    _receipts: "OrderedDict[tuple[float, int], None]" = field(
        default_factory=OrderedDict
    )

    def wants(self, message: Message) -> bool:
        """Whether *message* should travel guarded."""
        return message.type in self.policy.types

    def wrap(self, origin: float, dest: float, message: Message, tick: int) -> Envelope:
        """Allocate a sequence number and open a retransmit-buffer entry."""
        envelope = Envelope(
            origin=origin, seq=self._next_seq, dest=dest, payload=message
        )
        self._next_seq += 1
        self._outstanding[envelope.seq] = _Pending(
            envelope=envelope,
            attempts=1,
            due=tick + self.policy.retry_interval,
        )
        self.stats.guarded += 1
        return envelope

    def due_retransmits(self, tick: int) -> list[Envelope]:
        """Envelopes whose retry timer expired; advances their backoff.

        Entries that exhausted ``max_attempts`` are abandoned (removed)
        instead of returned.
        """
        out: list[Envelope] = []
        exhausted: list[int] = []
        for seq, pending in self._outstanding.items():
            if pending.due > tick:
                continue
            if pending.attempts >= self.policy.max_attempts:
                exhausted.append(seq)
                continue
            pending.attempts += 1
            interval = self.policy.retry_interval * (
                self.policy.backoff ** (pending.attempts - 1)
            )
            pending.due = tick + max(1, int(interval))
            self.stats.retransmits += 1
            out.append(pending.envelope)
        for seq in exhausted:
            del self._outstanding[seq]
            self.stats.abandoned += 1
        return out

    def on_ack(self, ack: Ack) -> None:
        """Clear the acknowledged buffer entry (late/duplicate acks no-op)."""
        if self._outstanding.pop(ack.seq, None) is not None:
            self.stats.acks_received += 1

    def on_deliver(self, envelope: Envelope) -> tuple[bool, Ack]:
        """Process an arriving envelope at its destination.

        Returns ``(fresh, ack)``: *fresh* says whether the payload should
        enter the destination channel (first copy) — the *ack* is sent for
        every copy, because the previous ack may itself have been lost.
        """
        key = (envelope.origin, envelope.seq)
        ack = Ack(origin=envelope.origin, seq=envelope.seq)
        self.stats.acks_sent += 1
        if key in self._receipts:
            self.stats.duplicates += 1
            return False, ack
        self._receipts[key] = None
        while len(self._receipts) > self.policy.receipt_memory:
            self._receipts.popitem(last=False)
        self.stats.delivered += 1
        return True, ack

    def drop_for_destination(self, node_id: float) -> int:
        """Abandon buffer entries addressed to a departed node."""
        doomed = [
            seq
            for seq, pending in self._outstanding.items()
            if pending.envelope.dest == node_id
        ]
        for seq in doomed:
            del self._outstanding[seq]
            self.stats.abandoned += 1
        return len(doomed)

    def drop_mentioning(self, node_id: float) -> int:
        """Purge buffer entries whose payload carries *node_id* (churn)."""
        doomed = [
            seq
            for seq, pending in self._outstanding.items()
            if node_id in pending.envelope.payload.ids
        ]
        for seq in doomed:
            del self._outstanding[seq]
        return len(doomed)

    @property
    def outstanding(self) -> list[Envelope]:
        """Unacknowledged envelopes (their payloads are still in-flight)."""
        return [p.envelope for p in self._outstanding.values()]

    def __len__(self) -> int:
        return len(self._outstanding)
