"""The chaos wire: a faulty wire under the paper's channels.

A host built with ``wire=True`` holds a wire stage as ``host.wire``; every
stage answers the fault surface of :class:`Wire`.  :class:`ScalarWire` is
the stage a :class:`~repro.sim.network.Network` holds (and, bit-exact, the
oracle of ``tests/reference_mirror.py``); the batched engine's is
:class:`~repro.sim.fast.chaos.batched.BatchedWire`.

The wire sits between a host's sends and its staging.  Every transmission
— protocol message, guarded envelope, ack, retransmission — becomes a wire
frame that the active fault injectors may drop, duplicate, or delay before
it is enqueued.  The timing contract of a wireless host is preserved
exactly: an undisturbed frame sent during round ``t`` is receivable in
round ``t+1``, so a wired host with no active faults is observationally
identical to a wireless one.

With a :class:`~repro.sim.chaos.guard.GuardPolicy` installed, messages of
the connectivity-critical types are wrapped in sequence-numbered envelopes
and retransmitted with backoff until acknowledged (see
:mod:`repro.sim.chaos.guard`).  Both envelope and ack frames ride the same
faulty wire — the guard earns its keep under the exact faults it is meant
to survive.

The connectivity views (the host's ``in_flight``) count payloads held by
the wire *and* by the retransmit buffer: an unacknowledged handoff still
owns a live copy of its identifiers, which is precisely the mechanism that
turns "loss permanently splits the network" into "loss delays convergence".
"""

from __future__ import annotations

from collections.abc import Iterable, Sized
from typing import TYPE_CHECKING, Generic, Protocol, TypeVar

from repro.core.messages import Ack, Envelope, Frame, Message
from repro.sim.chaos.guard import GuardedHandoff, GuardPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.chaos.injectors import FaultInjector

__all__ = ["ScalarWire", "Wire"]

#: The guarded-handoff transport a stage keeps.
G = TypeVar("G")


class Wire(Generic[G]):
    """The fault surface of a wire stage, on either data layout: the
    campaigns and experiments set its fault chain and read its clock and
    guarded-handoff transport (*G*, ``None`` when unguarded)."""

    #: Frames in transit, in the stage's own layout.
    _wire: Sized

    def __init__(self, guard: G | None) -> None:
        self._wire_faults: list["FaultInjector"] = []
        self._tick = 0
        self._guard = guard

    @property
    def tick(self) -> int:
        """Wire clock: one tick per host flush (one round under the
        synchronous scheduler, one elementary step under the async one)."""
        return self._tick

    @property
    def wire_faults(self) -> list["FaultInjector"]:
        """The currently active wire-fault chain (applied in order)."""
        return list(self._wire_faults)

    def set_wire_faults(self, injectors: Iterable["FaultInjector"]) -> None:
        """Install the active wire-fault chain (campaigns call this per
        round as fault windows open and close)."""
        self._wire_faults = list(injectors)

    @property
    def guard(self) -> G | None:
        """The guarded-handoff transport, if one is installed."""
        return self._guard

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tick={self._tick}, frames={len(self._wire)}, "
            f"faults={len(self._wire_faults)}, guarded={self._guard is not None})"
        )


class _ScalarHost(Protocol):
    """What the wire needs from its host."""

    dropped: int

    def __contains__(self, node_id: float) -> bool: ...
    def _enqueue(self, dest: float, message: Message) -> None: ...


class ScalarWire(Wire[GuardedHandoff]):
    """A tick-stamped, fault-injected wire in front of a host's staging.

    The host counts each send, then hands it to :meth:`dispatch`; it calls
    :meth:`deliver` at the start of its flush, :meth:`drop_to` and
    :meth:`purge_mentions` on a departure, and adds :meth:`in_flight` and
    :meth:`pending` to its own.  Delivered payloads land in the host's
    staging through ``host._enqueue``.
    """

    def __init__(self, host: _ScalarHost, guard: GuardPolicy | None = None) -> None:
        super().__init__(GuardedHandoff(policy=guard) if guard is not None else None)
        self._host = host
        #: Frames in transit: ``(due_tick, dest, frame)``, delivery order.
        self._wire: list[tuple[int, float, Frame]] = []

    # ------------------------------------------------------------------
    # Sending through the wire
    # ------------------------------------------------------------------
    def dispatch(self, origin: float | None, dest: float, message: Message) -> None:
        """Put one (already counted) send on the wire on behalf of
        *origin* (``None``: no sender identity, so no guard)."""
        if dest not in self._host:
            # As a wireless host: sends to departed identifiers are
            # dropped at the source, not carried by the wire.
            self._host.dropped += 1
            return
        if (
            self._guard is not None
            and origin is not None
            and self._guard.wants(message)
        ):
            frame: Frame = self._guard.wrap(origin, dest, message, self._tick)
        else:
            frame = message
        self._transmit(dest, frame)

    def _transmit(self, dest: float, frame: Frame) -> None:
        """Put one frame on the wire, applying the active fault chain.

        The injectors' ``on_wire(dest, frame, network)`` receives the host
        as the network argument (the shipped injectors never touch it).
        """
        deliveries: list[tuple[int, float, Frame]] = [(0, dest, frame)]
        for injector in self._wire_faults:
            rewritten: list[tuple[int, float, Frame]] = []
            for extra, dst, frm in deliveries:
                out = injector.on_wire(dst, frm, self._host)  # type: ignore[arg-type]
                if out is None:
                    rewritten.append((extra, dst, frm))
                else:
                    rewritten.extend(
                        (extra + more, dst2, frm2) for more, dst2, frm2 in out
                    )
            deliveries = rewritten
        base_due = self._tick + 1
        self._wire.extend(
            (base_due + extra, dst, frm) for extra, dst, frm in deliveries
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deliver(self) -> None:
        """Advance the wire clock, deliver due frames into the host's
        staging, then retransmit (the first step of the host's flush)."""
        self._tick += 1
        due: list[tuple[int, float, Frame]] = []
        transit: list[tuple[int, float, Frame]] = []
        for entry in self._wire:
            (due if entry[0] <= self._tick else transit).append(entry)
        self._wire = transit
        for _, dest, frame in due:
            self._deliver_frame(dest, frame)
        if self._guard is not None:
            # After acks were processed: only genuinely unacknowledged
            # envelopes retransmit.
            for envelope in self._guard.due_retransmits(self._tick):
                if envelope.dest in self._host:
                    self._transmit(envelope.dest, envelope)

    def _deliver_frame(self, dest: float, frame: Frame) -> None:
        if isinstance(frame, Envelope):
            if self._guard is None or dest not in self._host:
                # No transport installed (defensive) or the destination
                # departed mid-flight: the payload dies here, no ack.
                self._host.dropped += 1
                return
            fresh, ack = self._guard.on_deliver(frame)
            if fresh:
                self._host._enqueue(dest, frame.payload)
            self._transmit(frame.origin, ack)
        elif isinstance(frame, Ack):
            if self._guard is not None:
                self._guard.on_ack(frame)
        else:
            self._host._enqueue(dest, frame)

    # ------------------------------------------------------------------
    # Departures and connectivity accounting
    # ------------------------------------------------------------------
    def drop_to(self, node_id: float) -> None:
        """Frames in transit to a departed node die with it (counted on
        the host); guarded envelopes for it are abandoned."""
        before = len(self._wire)
        self._wire = [
            (due, dest, frame)
            for due, dest, frame in self._wire
            if not (dest == node_id and not isinstance(frame, Ack))
        ]
        self._host.dropped += before - len(self._wire)
        if self._guard is not None:
            self._guard.drop_for_destination(node_id)

    def purge_mentions(self, node_id: float) -> int:
        """Purge wire frames and buffered envelopes that mention a departed
        identifier (clean-departure semantics, paper §IV-G); uncounted."""
        kept: list[tuple[int, float, Frame]] = []
        for due, dest, frame in self._wire:
            payload = frame.payload if isinstance(frame, Envelope) else frame
            if not (isinstance(payload, Message) and node_id in payload.ids):
                kept.append((due, dest, frame))
        purged = len(self._wire) - len(kept)
        self._wire = kept
        if self._guard is not None:
            purged += self._guard.drop_mentioning(node_id)
        return purged

    def in_flight(self) -> list[tuple[float, Message]]:
        """The wire's share of the in-flight set, in wire order: the
        payload of every wire-held frame but acks, then each
        unacknowledged envelope of the retransmit buffer with no copy on
        the wire.  The host's ``in_flight`` is its own set plus this."""
        out: list[tuple[float, Message]] = []
        seen_seqs: set[int] = set()
        for _, dest, frame in self._wire:
            if isinstance(frame, Envelope):
                out.append((dest, frame.payload))
                seen_seqs.add(frame.seq)
            elif isinstance(frame, Message):
                out.append((dest, frame))
        if self._guard is not None:
            for envelope in self._guard.outstanding:
                if envelope.seq not in seen_seqs:
                    out.append((envelope.dest, envelope.payload))
        return out

    def pending(self) -> int:
        """Protocol messages on the wire (acks carry none; the retransmit
        buffer holds copies and is not double-counted)."""
        return sum(1 for _, _, frame in self._wire if not isinstance(frame, Ack))
