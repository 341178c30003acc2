"""The chaos network: a faulty wire under the paper's channels.

:class:`ScalarWire` is that wire, written once: the reference
:class:`ChaosNetwork` and its draw-for-draw twin
:class:`~repro.sim.fast.chaos.mirror.ChaosMirrorEngine` both mix it in, so
the injectors see the same frames in the same order on either host.

:class:`ChaosNetwork` extends :class:`~repro.sim.network.Network` with a
*wire* between ``send`` and the destination channels.  Every transmission
— protocol message, guarded envelope, ack, retransmission — becomes a wire
frame that the active fault injectors may drop, duplicate, or delay before
it is enqueued.  The timing contract of the base network is preserved
exactly: an undisturbed frame sent during round ``t`` is receivable in
round ``t+1``, so a ``ChaosNetwork`` with no active faults is
observationally identical to a plain ``Network``.

With a :class:`~repro.sim.chaos.guard.GuardPolicy` installed, messages of
the connectivity-critical types are wrapped in sequence-numbered envelopes
and retransmitted with backoff until acknowledged (see
:mod:`repro.sim.chaos.guard`).  Both envelope and ack frames ride the same
faulty wire — the guard earns its keep under the exact faults it is meant
to survive.

The connectivity views (:attr:`in_flight`) count payloads held by the wire
*and* by the retransmit buffer: an unacknowledged handoff still owns a
live copy of its identifiers, which is precisely the mechanism that turns
"loss permanently splits the network" into "loss delays convergence".
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.core.messages import Ack, Envelope, Frame, Message
from repro.sim.chaos.guard import GuardedHandoff, GuardPolicy
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.node import Node
    from repro.sim.chaos.injectors import FaultInjector
    from repro.sim.metrics import MessageStats

__all__ = ["ChaosNetwork", "ScalarWire"]


class ScalarWire:
    """A tick-stamped, fault-injected wire in front of a host's staging.

    Mixed in *before* the host class (``Network`` or ``MirrorEngine``),
    whose ``flush`` / ``pending_total`` it extends; each host adds
    :meth:`_wire_in_flight` to its own in-flight set.  The
    constructor takes the host's arguments plus ``guard=``: a
    :class:`~repro.sim.chaos.guard.GuardPolicy` installs the
    guarded-handoff transport.
    """

    if TYPE_CHECKING:  # what the wire needs from its host
        stats: MessageStats
        dropped: int

        def __contains__(self, node_id: float) -> bool: ...
        def __len__(self) -> int: ...
        def _enqueue(self, dest: float, message: Message) -> None: ...

    def __init__(
        self, *args: Any, guard: GuardPolicy | None = None, **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self._wire_faults: list["FaultInjector"] = []
        #: Frames in transit: ``(due_tick, dest, frame)``, delivery order.
        self._wire: list[tuple[int, float, Frame]] = []
        self._tick = 0
        self._guard: GuardedHandoff | None = (
            GuardedHandoff(policy=guard) if guard is not None else None
        )

    # ------------------------------------------------------------------
    # Fault-chain management
    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Wire clock: one tick per :meth:`flush` (one round under the
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
    def guard(self) -> GuardedHandoff | None:
        """The guarded-handoff transport, if one is installed."""
        return self._guard

    # ------------------------------------------------------------------
    # Sending through the wire
    # ------------------------------------------------------------------
    def _dispatch(self, origin: float | None, dest: float, message: Message) -> None:
        self.stats.record_send(message.type)
        if dest not in self:
            # Match the base network: sends to departed identifiers are
            # dropped at the source, not carried by the wire.
            self.dropped += 1
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
                out = injector.on_wire(dst, frm, self)  # type: ignore[arg-type]
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
    def flush(self) -> Any:
        """Advance the wire clock, deliver due frames, retransmit, then
        perform the host's staging flush."""
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
                if envelope.dest in self:
                    self._transmit(envelope.dest, envelope)
        return super().flush()  # type: ignore[misc]

    def _deliver_frame(self, dest: float, frame: Frame) -> None:
        if isinstance(frame, Envelope):
            if self._guard is None or dest not in self:
                # No transport installed (defensive) or the destination
                # departed mid-flight: the payload dies here, no ack.
                self.dropped += 1
                return
            fresh, ack = self._guard.on_deliver(frame)
            if fresh:
                self._enqueue(dest, frame.payload)
            self._transmit(frame.origin, ack)
        elif isinstance(frame, Ack):
            if self._guard is not None:
                self._guard.on_ack(frame)
        else:
            self._enqueue(dest, frame)

    # ------------------------------------------------------------------
    # Departures and connectivity accounting
    # ------------------------------------------------------------------
    def _drop_wire_to(self, node_id: float) -> None:
        """Frames in transit to a departed node die with it (counted)."""
        before = len(self._wire)
        self._wire = [
            (due, dest, frame)
            for due, dest, frame in self._wire
            if not (dest == node_id and not isinstance(frame, Ack))
        ]
        self.dropped += before - len(self._wire)
        if self._guard is not None:
            self._guard.drop_for_destination(node_id)

    def _purge_wire_mentions(self, node_id: float) -> int:
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

    def _wire_in_flight(self) -> list[tuple[float, Message]]:
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

    def pending_total(self) -> int:
        """Total undelivered protocol messages (host's own + wire; the
        retransmit buffer holds copies and is not double-counted)."""
        wire_payloads = sum(
            1 for _, _, frame in self._wire if not isinstance(frame, Ack)
        )
        return super().pending_total() + wire_payloads  # type: ignore[misc]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={len(self)}, "
            f"pending={self.pending_total()}, wire={len(self._wire)}, "
            f"faults={len(self._wire_faults)}, "
            f"guarded={self._guard is not None})"
        )


class ChaosNetwork(ScalarWire, Network):
    """A network whose wire is subject to composable fault injection."""

    def send(self, dest: float, message: Message) -> None:
        """Stage *message* via the faulty wire (no sender identity)."""
        self._dispatch(None, dest, message)

    def send_from(self, origin: float, dest: float, message: Message) -> None:
        """Stage *message* on behalf of *origin* (enables guarded acks)."""
        self._dispatch(origin, dest, message)

    @property
    def in_flight(self) -> list[tuple[float, Message]]:
        """Undelivered protocol messages: the network's staging and
        channels, then the wire's share (wire-held frames and
        unacknowledged envelopes in the retransmit buffer)."""
        return super().in_flight + self._wire_in_flight()

    def remove_node(self, node_id: float) -> "Node":
        """Remove a node; frames in transit to it die with it."""
        node = super().remove_node(node_id)
        self._drop_wire_to(node_id)
        return node

    def purge_identifier(self, node_id: float) -> int:
        """Also purge wire frames and buffered envelopes that mention the
        departed identifier."""
        return super().purge_identifier(node_id) + self._purge_wire_mentions(
            node_id
        )
