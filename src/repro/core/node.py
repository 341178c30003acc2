"""Algorithms 1–10: the actions of a protocol node (paper §III).

Every node has exactly two actions:

* the **receive action** (:meth:`Node.on_message`, Algorithm 1) — enabled
  whenever a message is in the node's channel, dispatching to the handlers
  of Algorithms 2–8;
* the **regular action** (:meth:`Node.regular_action`) — always enabled,
  executing ``sendid()`` (Algorithm 9) and ``probing()`` (Algorithm 10).

The implementation is a line-by-line translation of the paper's pseudocode.
Every place where the pseudocode under-specifies a corner case carries a
``DESIGN.md §4.x`` comment referencing the documented decision:

* §4.1 — Algorithm 3's third branch sends ``(p.ring, p.r)``, not the
  paper's (typo'd) ``(p.ring, p.l)``.
* §4.2 — messages never carry ±∞; ``p.id`` is substituted as the witness.
* §4.3 — ``p.ring`` bootstraps from the node's best known identifier.
* §4.5 — messages may be addressed to the node itself; the useless cases
  (``ring`` to self, ``lin`` echoing the receiver's own stored neighbor)
  are suppressed as no-ops.
* §4.6 — ``p.age`` increments at the top of every ``move-forget``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.forget import forget_probability
from repro.core.messages import (
    Message,
    MessageType,
    inclrl,
    lin,
    probl,
    probr,
    reslrl,
    resring,
    ring,
)
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF
from repro.sim.trace import TraceEvent, TraceKind

__all__ = ["Node"]

#: Type of the send callback handed in by the scheduler:
#: ``send(destination_id, message)``.
SendFn = Callable[[float, Message], None]


class Node:
    """One protocol process: state plus the two guarded actions."""

    __slots__ = ("state", "config")

    def __init__(self, state: NodeState, config: ProtocolConfig | None = None) -> None:
        self.state = state
        self.config = config or ProtocolConfig()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send(self, send: SendFn, dest: float, message: Message) -> None:
        trace = self.config.trace
        if trace is not None:
            trace.record(
                TraceEvent(TraceKind.SEND, self.state.id, message, dest)
            )
        send(dest, message)

    # ------------------------------------------------------------------
    # Algorithm 1 — the receive action
    # ------------------------------------------------------------------
    def on_message(self, m: Message, send: SendFn, rng: np.random.Generator) -> None:
        """Dispatch one received message (Algorithm 1's receive action)."""
        trace = self.config.trace
        if trace is not None:
            trace.record(TraceEvent(TraceKind.RECEIVE, self.state.id, m))
        t = m.type
        if t is MessageType.LIN:
            self.linearize(m.id, send)
        elif t is MessageType.INCLRL:
            self.respond_lrl(m.id, send)
        elif t is MessageType.RESLRL:
            self.move_forget(m.responder, m.id1, m.id2, rng, send)
        elif t is MessageType.PROBR:
            self.probing_r(m.id, send)
        elif t is MessageType.PROBL:
            self.probing_l(m.id, send)
        elif t is MessageType.RING:
            self.respond_ring(m.id, send)
        elif t is MessageType.RESRING:
            self.update_ring(m.id, send)
        else:  # pragma: no cover - enum is exhaustive
            raise AssertionError(f"unhandled message type {t!r}")

    # ------------------------------------------------------------------
    # the regular action (guard: true)
    # ------------------------------------------------------------------
    def regular_action(self, send: SendFn, rng: np.random.Generator) -> None:
        """``sendid(); probing()`` — the always-enabled action."""
        p = self.state
        if not p.needs_ring and p.ring is not None:
            # Variable hygiene: "this identifier is only set if p.l = −∞ or
            # p.r = ∞" (§III) — a node with both neighbors drops its stale
            # ring edge (the paper's "resetting them over time ... p.ring").
            # The identifier it held is folded into linearization instead
            # of being lost (DESIGN.md §4.12).
            stale = p.ring
            p.ring = None
            self.linearize(stale, send)
        self.send_id(send)
        self.probing(send)

    # ------------------------------------------------------------------
    # Algorithm 2 — linearize(id)
    # ------------------------------------------------------------------
    def linearize(self, nid: float, send: SendFn) -> None:
        """Try to adopt *nid* as a closer neighbor, else forward it.

        The forwarding may shortcut through the long-range link when it
        points in the right direction and is closer to *nid* than the
        stored neighbor (the paper's ``m.id > p.lrl > p.r`` branch).
        """
        p = self.state
        shortcuts = self.config.lrl_shortcuts
        if nid > p.id:
            if nid < p.r:
                if p.has_right:
                    # Keep connectivity: the displaced right neighbor is
                    # handed to the new one (Lemma 4.10's path substitution).
                    self._send(send, nid, lin(p.r))
                p.r = nid
            elif shortcuts and nid > p.lrl > p.r:
                self._send(send, p.lrl, lin(nid))
            elif nid > p.r:
                # nid == p.r would echo the receiver's own id (no-op on
                # receipt); suppressed per DESIGN.md §4.5.
                self._send(send, p.r, lin(nid))
        elif nid < p.id:
            if nid > p.l:
                if p.has_left:
                    self._send(send, nid, lin(p.l))
                p.l = nid
            elif shortcuts and nid < p.lrl < p.l:
                self._send(send, p.lrl, lin(nid))
            elif nid < p.l:
                self._send(send, p.l, lin(nid))
        # nid == p.id: a node's own identifier carries no information.

    # ------------------------------------------------------------------
    # Algorithm 3 — respondlrl(id)
    # ------------------------------------------------------------------
    def respond_lrl(self, origin: float, send: SendFn) -> None:
        """Tell the long-range link's *origin* about our ring neighbors.

        The reply carries ``(ring-left, ring-right)`` so the origin's token
        can take one random-walk step on the ring.  For the extremal nodes
        the ring edge supplies the wrap-around neighbor; a missing side is
        signalled with the matching sentinel slot (Algorithm 4 handles it).
        """
        if not self.config.move_and_forget:
            return
        p = self.state
        if p.has_left and p.has_right:
            self._send(send, origin, reslrl(p.id, p.l, p.r))
        elif p.has_left:  # p.r = +∞: ring-right wraps via the ring edge
            right = p.ring if p.ring is not None else POS_INF
            self._send(send, origin, reslrl(p.id, p.l, right))
        elif p.has_right:  # p.l = −∞: ring-left wraps via the ring edge
            # DESIGN.md §4.1: the paper's (p.ring, p.l) would hand −∞ to
            # move-forget; the intended payload is (p.ring, p.r).
            left = p.ring if p.ring is not None else NEG_INF
            if left == NEG_INF and p.r == POS_INF:
                return  # nothing real to report
            self._send(send, origin, reslrl(p.id, left, p.r))
        # Neither neighbor known and no ring: nothing to report (the paper
        # has no branch for p.l = −∞ ∧ p.r = +∞).

    # ------------------------------------------------------------------
    # Algorithm 4 — move-forget(id1, id2)
    # ------------------------------------------------------------------
    def move_forget(
        self,
        responder: float,
        id1: float,
        id2: float,
        rng: np.random.Generator,
        send: SendFn,
    ) -> None:
        """One random-walk step of the long-range-link token, then maybe forget.

        ``id1``/``id2`` are the ring-left/ring-right neighbors of the
        current endpoint; a sentinel means that side is unknown and the walk
        is forced the other way.

        Responses from anyone other than the *current* endpoint are
        discarded (DESIGN.md §4.13): unordered unbounded channels deliver
        stale responses from previous endpoints arbitrarily late, and
        stepping on stale information would teleport the token — and could
        silently drop the last reference to the current endpoint.
        """
        if not self.config.move_and_forget:
            return
        p = self.state
        if responder != p.lrl:
            return  # stale response from a previous endpoint
        if id1 > NEG_INF and id2 < POS_INF:
            p.lrl = id1 if rng.random() < 0.5 else id2
        elif id1 > NEG_INF:
            p.lrl = id1
        elif id2 < POS_INF:
            p.lrl = id2
        # DESIGN.md §4.6: age counts move-and-forget steps since the last
        # reset; it increments before the forget test so that φ(1)=φ(2)=0
        # protect exactly the first three steps of a fresh link.
        p.age += 1
        if rng.random() < forget_probability(p.age, self.config.epsilon):
            forgotten = p.lrl
            p.lrl = p.id
            p.age = 0
            # DESIGN.md §4.12: re-inject the forgotten endpoint into the
            # linearization process instead of silently dropping it.  A
            # stored identifier may be the last reference tying two parts
            # of the graph together; Algorithm 4 as printed can therefore
            # disconnect CC in rare asynchronous executions (not reproduced
            # by a current test; ROADMAP.md item 20 searches for one).
            # Lemma 4.10's discipline — links are "kept, added or
            # substituted by a path", never dropped — is restored by
            # handing the identifier to linearize.
            self.linearize(forgotten, send)
            trace = self.config.trace
            if trace is not None:
                trace.record(TraceEvent(TraceKind.FORGET, p.id))

    # ------------------------------------------------------------------
    # Algorithm 5 — probingr(id)
    # ------------------------------------------------------------------
    def probing_r(self, dest: float, send: SendFn) -> None:
        """Forward a rightward probe toward *dest*, repairing if stuck.

        The probe greedily moves right via ``p.lrl`` (when it stays at or
        left of *dest*) or ``p.r``; if *dest* lies strictly between ``p``
        and ``p.r`` no node path exists and the probe converts into a
        ``linearize`` that creates the missing link (Phase 1 repair).
        """
        p = self.state
        if self.config.lrl_shortcuts and dest >= p.lrl and p.lrl > p.r:
            self._send(send, p.lrl, probr(dest))
        elif dest >= p.r:
            self._send(send, p.r, probr(dest))
        elif p.id < dest < p.r:
            self.linearize(dest, send)
        # dest <= p.id: stale probe, dropped (the paper's empty else).

    # ------------------------------------------------------------------
    # Algorithm 6 — probingl(id)
    # ------------------------------------------------------------------
    def probing_l(self, dest: float, send: SendFn) -> None:
        """Mirror image of :meth:`probing_r` for leftward probes."""
        p = self.state
        if self.config.lrl_shortcuts and dest <= p.lrl and p.lrl < p.l:
            self._send(send, p.lrl, probl(dest))
        elif dest <= p.l:
            self._send(send, p.l, probl(dest))
        elif p.id > dest > p.l:
            self.linearize(dest, send)
        # dest >= p.id: stale probe, dropped.

    # ------------------------------------------------------------------
    # Algorithm 7 — respondring(id)
    # ------------------------------------------------------------------
    def respond_ring(self, origin: float, send: SendFn) -> None:
        """Answer a ring-edge message from *origin*.

        Either teach *origin* (via ``lin``) about a node that proves its
        missing-neighbor belief wrong, or propagate its ring-edge search one
        step toward the true extremal node (via ``resring``).  Wherever the
        pseudocode would ship a ±∞ sentinel, the node itself is the best
        existing witness and ``p.id`` is sent instead (DESIGN.md §4.2).
        """
        p = self.state
        if origin == p.id:
            return  # self-addressed ring edge carries no information (§4.5)
        if origin < p.id:
            if p.l < origin:
                self._send(send, origin, lin(p.l if p.has_left else p.id))
            elif p.lrl < origin:
                self._send(send, origin, lin(p.lrl))
            elif p.lrl > p.r:
                self._send(send, origin, resring(p.lrl))
            else:
                self._send(
                    send, origin, resring(p.r if p.has_right else p.id)
                )
        else:
            if p.r > origin:
                self._send(send, origin, lin(p.l if p.has_left else p.id))
            elif p.lrl > origin:
                self._send(send, origin, lin(p.lrl))
            elif p.lrl < p.l:
                self._send(send, origin, resring(p.lrl))
            else:
                self._send(
                    send, origin, resring(p.l if p.has_left else p.id)
                )

    # ------------------------------------------------------------------
    # Algorithm 8 — updatering(id)
    # ------------------------------------------------------------------
    def update_ring(self, candidate: float, send: SendFn) -> None:
        """Adopt *candidate* as ring endpoint if it improves the current one.

        A node missing its left neighbor hunts for the maximum (its ring
        endpoint only ever grows); a node missing its right neighbor hunts
        for the minimum.  Nodes with both neighbors ignore stale responses.
        A replaced candidate is re-injected into linearization rather than
        dropped (DESIGN.md §4.12, same rationale as in move-forget).
        """
        p = self.state
        old: float | None = None
        if not p.has_left:
            if p.ring is None or candidate > p.ring:
                old = p.ring
                p.ring = candidate
        elif not p.has_right:
            if p.ring is None or candidate < p.ring:
                old = p.ring
                p.ring = candidate
        if old is not None and old != candidate:
            self.linearize(old, send)

    # ------------------------------------------------------------------
    # Algorithm 9 — sendid()
    # ------------------------------------------------------------------
    def send_id(self, send: SendFn) -> None:
        """Advertise our identifier to neighbors (or the ring) and the lrl."""
        p = self.state
        if p.has_left:
            self._send(send, p.l, lin(p.id))
        else:
            target = self._ring_target()
            if target is not None:
                self._send(send, target, ring(p.id))
        if p.has_right:
            self._send(send, p.r, lin(p.id))
        else:
            target = self._ring_target()
            if target is not None:
                self._send(send, target, ring(p.id))
        if self.config.move_and_forget:
            # Note: may legitimately be addressed to ourselves when the
            # token is at home — that is how a fresh token starts walking.
            self._send(send, p.lrl, inclrl(p.id))

    def _ring_target(self) -> float | None:
        """Return ``p.ring``, bootstrapping it if unset (DESIGN.md §4.3).

        An arbitrary initial state may leave ``p.ring`` unset while the node
        is missing a neighbor.  The node adopts its best known identifier;
        self-stabilization makes any initial value legal.  Returns ``None``
        (send nothing) only when the node knows no identifier but its own.
        """
        p = self.state
        if p.ring is not None and p.ring != p.id:
            return p.ring
        for candidate in (p.lrl, p.r if p.has_right else None,
                          p.l if p.has_left else None):
            if candidate is not None and candidate != p.id:
                p.ring = candidate
                return candidate
        return None

    # ------------------------------------------------------------------
    # Algorithm 10 — probing()
    # ------------------------------------------------------------------
    def probing(self, send: SendFn) -> None:
        """Emit the periodic probes toward the ring edge and the lrl."""
        if not self.config.probing:
            return
        p = self.state
        if p.needs_ring and p.ring is not None:
            self._probe_toward(p.ring, send)
        if self.config.move_and_forget:
            self._probe_toward(p.lrl, send)

    def _probe_toward(self, target: float, send: SendFn) -> None:
        """The shared body of Algorithm 10's two symmetric blocks."""
        p = self.state
        if target < p.id:
            if target <= p.l:  # false when p.l = −∞ (target is real)
                self._send(send, p.l, probl(target))
            elif p.id > target > p.l:
                self.linearize(target, send)
        elif target > p.id:
            if target >= p.r:
                self._send(send, p.r, probr(target))
            elif p.id < target < p.r:
                self.linearize(target, send)
        # target == p.id: token at home, nothing to verify.

    def __repr__(self) -> str:
        return f"Node({self.state!r})"
