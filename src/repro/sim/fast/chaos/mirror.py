"""The chaos mirror engine: bit-exact twin of ``ChaosNetwork`` rounds.

:class:`ChaosMirrorEngine` extends the scalar
:class:`~repro.sim.fast.mirror.MirrorEngine` with the chaos wire: every
send becomes a real :class:`~repro.core.messages.Message` frame (optionally
guard-wrapped into an :class:`~repro.core.messages.Envelope`) and passes
through the active fault-injector chain before landing on a tick-stamped
wire — the very :class:`~repro.sim.chaos.network.ScalarWire` that
:class:`~repro.sim.chaos.ChaosNetwork` mixes in.  Because the
injectors see the *same frame objects in the same order* — including the
``repr``-hashed frames of ``MessageDelay(mode="hash")`` — and the guard is
the *same* :class:`~repro.sim.chaos.guard.GuardedHandoff` implementation,
a chaos mirror run seeded like a reference chaos run is bit-identical
per round: state snapshots, message census, drop counters, guard stats,
and campaign traces all match (``tests/test_fast_chaos_differential.py``).

This is the oracle that pins the vectorized
:class:`~repro.sim.fast.chaos.batched.ChaosFastEngine` semantics before
its batched-RNG default is trusted at scale (docs/CHAOS.md, docs/PERF.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import Message
from repro.sim.chaos.network import ScalarWire
from repro.sim.fast.buffers import CODE_OF_TYPE, TYPE_OF_CODE
from repro.sim.fast.mirror import MirrorEngine, MirrorMessage, pair_columns

__all__ = ["ChaosMirrorEngine"]


class ChaosMirrorEngine(ScalarWire, MirrorEngine):
    """Scalar SoA engine whose wire is subject to fault injection.

    Takes ``MirrorEngine``'s arguments plus ``guard=`` (see
    :class:`~repro.sim.chaos.network.ScalarWire`).
    """

    #: The node currently acting (its sends carry this sender identity,
    #: like the reference's per-node bound ``network.sender(nid)``).
    _origin: float | None = None

    # ------------------------------------------------------------------
    # Sending through the wire
    # ------------------------------------------------------------------
    def _send(self, dest: float, code: int, *payload: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.record_send(code)
        # Python floats only: Envelope's dataclass repr feeds the hash-mode
        # delay injector, and np.float64 reprs would diverge from the
        # reference wire.
        message = Message(
            TYPE_OF_CODE[code], tuple(float(x) for x in payload)
        )
        self._dispatch(self._origin, float(dest), message)

    def _enqueue(self, dest: float, message: Message) -> None:
        """``Network._enqueue`` equivalent: membership-checked staging."""
        if dest in self.soa:
            self._staging.append(
                (dest, (CODE_OF_TYPE[message.type], *message.ids))
            )
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # Round execution: sender-identity tracking
    # ------------------------------------------------------------------
    def _on_message(
        self, i: int, msg: MirrorMessage, rng: np.random.Generator
    ) -> None:
        self._origin = float(self.soa.ids[i])
        try:
            super()._on_message(i, msg, rng)
        finally:
            self._origin = None

    def _regular_action(self, i: int) -> None:
        self._origin = float(self.soa.ids[i])
        try:
            super()._regular_action(i)
        finally:
            self._origin = None

    # ------------------------------------------------------------------
    # Membership / churn
    # ------------------------------------------------------------------
    def leave(self, node_id: float) -> None:
        """Remove *node_id*; wire frames to it die with it (counted), wire
        mentions of it are purged (uncounted), and guarded envelopes for
        or mentioning it are dropped — as ``leave_node`` on a
        ``ChaosNetwork``."""
        super().leave(node_id)
        self._drop_wire_to(node_id)
        self._purge_wire_mentions(node_id)

    def crash_channel_clear(self, node_id: float) -> None:
        """Drop a crashed node's queued messages (``channel.clear()``)."""
        if node_id in self._channels:
            self._channels[node_id] = []
            if self._sets is not None:
                self._sets[node_id] = set()

    # ------------------------------------------------------------------
    # Connectivity accounting
    # ------------------------------------------------------------------
    def inflight_pairs(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dest_ids, payload)`` of pending single-id messages of *code*,
        wire and retransmit buffer included (predicate contract)."""
        mtype = TYPE_OF_CODE[code]
        return pair_columns(
            [
                (dest, float(message.ids[0]))
                for dest, message in self.in_flight
                if message.type is mtype
            ]
        )
