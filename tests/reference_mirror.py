"""Reference oracle for the synchronous round: the mirror engine.

:class:`MirrorEngine` executes the protocol over the same struct-of-arrays
state and tuple messages as the batched engine, but **scalar**, making the
*exact same RNG calls in the exact same order* as
``Simulator(network, rng, SynchronousScheduler())``:

1. flush (no draws), in staging-insertion order;
2. one ``rng.permutation(len(ids))`` over the round-start sorted live ids;
3. per node in that order — skipped without a draw if removed mid-round —
   a full channel drain with ``rng.permutation(len(msgs))`` *only when more
   than one message is pending* (matching ``Channel.drain``), each message
   dispatched scalar; ``move_forget`` draws its direction coin only when
   both neighbor slots are real and always draws the forget coin after the
   age increment (scalar :func:`~repro.core.forget.forget_probability`);
4. one regular action (no draws).

Because the draws line up call-for-call, a mirror run seeded like a
reference run must produce **bit-identical**
:data:`~repro.core.state.StateTuple` snapshots after every round — that is
the differential-equivalence oracle (``tests/test_mirror_differential.py``,
docs/PERF.md §3), and it validates the SoA representation, the tuple wire
format, and the churn plumbing that the batched engine shares.  The
batched engine owes the reference only the distribution of its
executions; this draw-for-draw replay is a test device, so it lives here.

``MirrorEngine(wire=True)`` holds the reference network's own chaos wire,
:class:`~repro.sim.chaos.network.ScalarWire`, as :attr:`MirrorEngine.wire`:
every send becomes a real :class:`~repro.core.messages.Message` frame, so
the injectors see the same frames in the same order — including the
``repr``-hashed frames of ``MessageDelay(mode="hash")`` — and a wired
mirror run is bit-identical per round with a wired reference run.

Handlers are deliberate line-for-line ports of
:class:`repro.core.node.Node`; keep them in sync with Algorithms 1–10
there.  Tests build it with :func:`mirror_simulator`.  Not collected by
pytest (no ``test_`` prefix); nothing under ``src/`` imports it.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.analysis.flow.access import class_access_sets
from repro.core.forget import forget_probability
from repro.core.messages import Message
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF
from repro.sim.channel import Channel
from repro.sim.chaos.network import ScalarWire
from repro.sim.fast.batched import join_batch_rows, leave_batch_victims
from repro.sim.fast.buffers import (
    CODE_OF_TYPE,
    INCLRL,
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    RING,
    TYPE_OF_CODE,
)
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.predicates import SoAHost
from repro.sim.fast.sanitize import (
    FlowSanitizer,
    SanitizedSoAState,
    sanitize_enabled,
)
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.chaos.guard import GuardPolicy

__all__ = ["MirrorEngine", "mirror_sanitizer", "mirror_simulator"]

#: A wire message: ``(type_code, *payload_ids)``.
MirrorMessage = tuple[float, ...]

#: Handler method per message-type code (sanitizer recording labels).
_HANDLER_OF_CODE = {
    LIN: "_linearize",
    INCLRL: "_respond_lrl",
    RESLRL: "_move_forget",
    RING: "_respond_ring",
    RESRING: "_update_ring",
    PROBR: "_probing_r",
    PROBL: "_probing_l",
}

#: Optional per-position churn hook: ``after_node(position, node_id)`` runs
#: after each scheduled node's turn (including skipped dead nodes), exactly
#: where a hooked reference scheduler would run it.
AfterNodeHook = Callable[[int, float], None]


def message_rows(
    pending: list[tuple[float, MirrorMessage]], code: int | None = None
) -> tuple[np.ndarray, ...]:
    """``(dest, message)`` pairs of type *code* (every type when ``None``)
    as the ``(dest, tcode, a, b, c)`` columns of ``in_flight_rows``."""
    table = np.array(
        [(d, *m, 0.0, 0.0)[:5] for d, m in pending if code is None or m[0] == code],
        dtype=np.float64,
    ).reshape(-1, 5)
    return table[:, 0], table[:, 1].astype(np.int8), table[:, 2], table[:, 3], table[:, 4]


class MirrorEngine(SoAHost):
    """Scalar engine over SoA state reproducing the reference RNG stream."""

    def __init__(
        self,
        states: Iterable[NodeState] | SoAState,
        config: ProtocolConfig | None = None,
        *,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
        wire: bool = False,
        guard: "GuardPolicy | None" = None,
    ) -> None:
        cfg = config or ProtocolConfig()
        if cfg.trace is not None:
            raise ValueError(
                "the mirror engine does not support event tracing; "
                "use the reference engine for trace-based tests"
            )
        self.config = cfg
        self.soa = SoAState.from_states(states)
        # The scalar engine funnels every column access through
        # ``self.soa``, so sanitizing wraps the whole state; recording
        # stays scoped to handler windows and no draws are added, so a
        # sanitized run is bit-exact with an unsanitized one.
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: FlowSanitizer | None = None
        if sanitize:
            self.sanitizer = mirror_sanitizer()
            self.soa = cast(SoAState, SanitizedSoAState(self.soa, self.sanitizer))
        self.dedup = dedup
        self.stats = MessageStats(keep_history=keep_history)
        #: Messages sent to identifiers that no longer exist (dropped).
        self.dropped = 0
        self._staging: list[tuple[float, MirrorMessage]] = []
        self._channels: dict[float, Channel[MirrorMessage]] = {
            nid: Channel(dedup=dedup) for nid in self.soa.live_ids_list()
        }
        #: The node currently acting: its sends carry this sender identity,
        #: like the reference's per-node bound ``network.sender(nid)``.
        self._origin: float | None = None
        #: The reference network's chaos wire; ``None`` when wireless.
        self.wire: ScalarWire | None = None
        if wire or guard is not None:
            self.wire = ScalarWire(self, guard)

    # ------------------------------------------------------------------
    # Sending and delivery
    # ------------------------------------------------------------------
    def _send(self, dest: float, code: int, *payload: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.record_send(code)
        self.stats.record_send(TYPE_OF_CODE[code])
        if self.wire is not None:
            # Python floats only: Envelope's dataclass repr feeds the
            # hash-mode delay injector, and np.float64 reprs would diverge
            # from the reference wire.
            message = Message(TYPE_OF_CODE[code], tuple(float(x) for x in payload))
            self.wire.dispatch(self._origin, float(dest), message)
        elif dest in self._channels:
            self._staging.append((dest, (code, *payload)))
        else:
            self.dropped += 1

    def _enqueue(self, dest: float, message: Message) -> None:
        """``Network._enqueue``: membership-checked staging of what the
        wire delivers."""
        if dest in self._channels:
            self._staging.append((dest, (CODE_OF_TYPE[message.type], *message.ids)))
        else:
            self.dropped += 1

    def __contains__(self, node_id: float) -> bool:
        """Liveness from the channels (``ScalarWire`` asks per envelope),
        as the reference reads ``Network.nodes``."""
        return node_id in self._channels

    def flush(self) -> None:
        """Deliver what the wire has due, then staged messages into
        channels (insertion order, dedup), as ``Network.flush``."""
        if self.wire is not None:
            self.wire.deliver()
        staged, self._staging = self._staging, []
        for dest, msg in staged:
            channel = self._channels.get(dest)
            if channel is None:
                self.dropped += 1
                continue
            channel.put(msg)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def execute_round(
        self,
        rng: np.random.Generator,
        *,
        after_node: AfterNodeHook | None = None,
    ) -> None:
        """One synchronous round, draw-for-draw like the reference."""
        self.flush()
        live, idx = self.soa.sorted_live()
        if not len(live):
            return
        # A mid-round leave only tombstones and a join only appends, so a
        # round-start slot stays its node's unless the id left and joined
        # again before its turn (a fresh slot, found by lookup).
        ids, slots = live.tolist(), idx.tolist()
        order = rng.permutation(len(ids))
        for pos in order:
            nid = ids[pos]
            if nid in self._channels:
                i = slots[pos]
                if not self.soa.alive[i]:
                    i = int(self.soa.lookup(np.array([nid]))[0][0])
                self._origin = nid
                for msg in self._channels[nid].drain(rng):
                    self._on_message(i, msg, rng)
                self._regular_action(i)
            if after_node is not None:
                after_node(int(pos), nid)
        self._origin = None

    # ------------------------------------------------------------------
    # Membership / churn
    # ------------------------------------------------------------------
    def join(self, new_id: float, contact_id: float) -> None:
        """Add a fresh node knowing only *contact_id* (as ``join_node``).

        The columns are written by a join batch of one, like every SoA
        host's; the channel is the mirror's own.
        """
        self.soa.add_batch(
            *join_batch_rows(
                np.array([new_id], dtype=np.float64),
                np.array([contact_id], dtype=np.float64),
                self.soa,
            )
        )
        self._channels[new_id] = Channel(dedup=self.dedup)

    def leave(self, node_id: float) -> None:
        """Remove *node_id* with full reference purge (as ``leave_node``).

        Works mid-round too (from an ``after_node`` hook): the departed
        node's channel disappears, staged and wire messages to it are
        dropped and counted, in-flight mentions are purged uncounted, and
        stored references are scrubbed — the same sequence as
        ``Network.remove_node`` + ``purge_identifier`` + the state scrub.
        The columns are written by departure batches of one.
        """
        if node_id not in self._channels:
            raise KeyError(f"no node with id {node_id!r}")
        victim = np.array([node_id], dtype=np.float64)
        self.soa.remove_batch(victim)
        self._channels.pop(node_id).clear()
        before = len(self._staging)
        self._staging = [(d, m) for d, m in self._staging if d != node_id]
        self.dropped += before - len(self._staging)
        if self.wire is not None:
            self.wire.drop_to(node_id)
        # purge_identifier: mentions in staging, channels and on the wire,
        # uncounted.
        self._staging = [
            (d, m) for d, m in self._staging if node_id not in m[1:]
        ]
        for channel in self._channels.values():
            channel.remove_matching(lambda m: node_id in m[1:])
        if self.wire is not None:
            self.wire.purge_mentions(node_id)
        self.soa.scrub_departed_many(victim)

    def crash_restart(self, node_ids: Sequence[float] | np.ndarray) -> None:
        """The shared column reset, then each crashed node's queued
        messages dropped, as the reference's ``crash_restart`` does
        (``channel.clear()``)."""
        ids = np.asarray(node_ids, dtype=np.float64)
        super().crash_restart(ids)
        for nid in ids.tolist():
            self._channels[nid].clear()

    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int:
        """Batch join: the scalar joins in ascending new-id order.

        The mirror engine *is* the scalar reference semantics, so the batch
        API is the canonical per-id loop — the same order
        ``FastEngine.join_batch`` is defined against, which is what lets
        the differential harness pin batched churn mid-storm.  In-batch
        duplicates are rejected up front; each scalar join then applies its
        own membership checks.
        """
        new_ids = np.ascontiguousarray(new_ids, dtype=np.float64)
        contact_ids = np.ascontiguousarray(contact_ids, dtype=np.float64)
        if new_ids.shape != contact_ids.shape:
            raise ValueError("new_ids and contact_ids must align")
        if len(np.unique(new_ids)) != len(new_ids):
            raise ValueError("duplicate joining id within batch")
        order = np.argsort(new_ids, kind="stable")
        for k in order.tolist():
            self.join(float(new_ids[k]), float(contact_ids[k]))
        return len(new_ids)

    def leave_batch(self, node_ids: np.ndarray) -> int:
        """Batch leave: the scalar departures in ascending id order — the
        sequential contract the batched engine's ``d <= m`` accounting
        reproduces."""
        victims = leave_batch_victims(node_ids, self.soa)
        for nid in victims.tolist():
            self.leave(nid)
        return len(victims)

    def pending_total(self) -> int:
        """Total undelivered messages (staged + in channels + on the wire)."""
        wire = 0 if self.wire is None else self.wire.pending()
        return len(self._staging) + sum(len(c) for c in self._channels.values()) + wire

    def in_flight_rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """Staging, then each channel, then the wire's share
        (``Network.in_flight`` order)."""
        pending = list(self._staging)
        for nid, channel in self._channels.items():
            pending.extend((nid, m) for m in channel)
        if self.wire is not None:
            pending.extend(
                (dest, (CODE_OF_TYPE[message.type], *message.ids))
                for dest, message in self.wire.in_flight()
            )
        return message_rows(pending, code)

    # ------------------------------------------------------------------
    # Algorithm 1 — the receive action
    # ------------------------------------------------------------------
    def _on_message(
        self, i: int, msg: MirrorMessage, rng: np.random.Generator
    ) -> None:
        san = self.sanitizer
        if san is None:
            self._dispatch_message(i, msg, rng)
            return
        san.begin(_HANDLER_OF_CODE.get(msg[0], "_on_message"))
        try:
            self._dispatch_message(i, msg, rng)
        except BaseException:  # repro-lint: ignore[broad-except] re-raises immediately; only closes the sanitizer recording window first
            san.abort()
            raise
        san.end()

    def _dispatch_message(
        self, i: int, msg: MirrorMessage, rng: np.random.Generator
    ) -> None:
        code = msg[0]
        if code == LIN:
            self._linearize(i, msg[1])
        elif code == INCLRL:
            self._respond_lrl(i, msg[1])
        elif code == RESLRL:
            self._move_forget(i, msg[1], msg[2], msg[3], rng)
        elif code == PROBR:
            self._probing_r(i, msg[1])
        elif code == PROBL:
            self._probing_l(i, msg[1])
        elif code == RING:
            self._respond_ring(i, msg[1])
        elif code == RESRING:
            self._update_ring(i, msg[1])
        else:  # pragma: no cover - codes are exhaustive
            raise AssertionError(f"unhandled message code {code!r}")

    # ------------------------------------------------------------------
    # Algorithm 2 — linearize(id)
    # ------------------------------------------------------------------
    def _linearize(self, i: int, nid: float) -> None:
        s = self.soa
        shortcuts = self.config.lrl_shortcuts
        pid = s.ids[i]
        if nid > pid:
            if nid < s.r[i]:
                if s.r[i] != POS_INF:
                    self._send(nid, LIN, float(s.r[i]))
                s.r[i] = nid
            elif shortcuts and nid > s.lrl[i] > s.r[i]:
                self._send(float(s.lrl[i]), LIN, nid)
            elif nid > s.r[i]:
                self._send(float(s.r[i]), LIN, nid)
        elif nid < pid:
            if nid > s.l[i]:
                if s.l[i] != NEG_INF:
                    self._send(nid, LIN, float(s.l[i]))
                s.l[i] = nid
            elif shortcuts and nid < s.lrl[i] < s.l[i]:
                self._send(float(s.lrl[i]), LIN, nid)
            elif nid < s.l[i]:
                self._send(float(s.l[i]), LIN, nid)

    # ------------------------------------------------------------------
    # Algorithm 3 — respondlrl(id)
    # ------------------------------------------------------------------
    def _respond_lrl(self, i: int, origin: float) -> None:
        if not self.config.move_and_forget:
            return
        s = self.soa
        pid = float(s.ids[i])
        has_l = s.l[i] != NEG_INF
        has_r = s.r[i] != POS_INF
        ring_val = s.ring[i]
        if has_l and has_r:
            self._send(origin, RESLRL, pid, float(s.l[i]), float(s.r[i]))
        elif has_l:
            right = POS_INF if math.isnan(ring_val) else float(ring_val)
            self._send(origin, RESLRL, pid, float(s.l[i]), right)
        elif has_r:
            left = NEG_INF if math.isnan(ring_val) else float(ring_val)
            if left == NEG_INF and s.r[i] == POS_INF:
                return  # nothing real to report
            self._send(origin, RESLRL, pid, left, float(s.r[i]))

    # ------------------------------------------------------------------
    # Algorithm 4 — move-forget(id1, id2)
    # ------------------------------------------------------------------
    def _move_forget(
        self,
        i: int,
        responder: float,
        id1: float,
        id2: float,
        rng: np.random.Generator,
    ) -> None:
        if not self.config.move_and_forget:
            return
        s = self.soa
        if responder != s.lrl[i]:
            return  # stale response from a previous endpoint
        if id1 > NEG_INF and id2 < POS_INF:
            s.lrl[i] = id1 if rng.random() < 0.5 else id2  # repro-flow: ignore[flow-branch-rng] exact port of the reference node's conditional coin; both engines branch on the same message payload, so draw counts stay aligned
        elif id1 > NEG_INF:
            s.lrl[i] = id1
        elif id2 < POS_INF:
            s.lrl[i] = id2
        s.age[i] += 1
        if rng.random() < forget_probability(int(s.age[i]), self.config.epsilon):
            forgotten = float(s.lrl[i])
            s.lrl[i] = s.ids[i]
            s.age[i] = 0
            self._linearize(i, forgotten)

    # ------------------------------------------------------------------
    # Algorithms 5/6 — probingr(id) / probingl(id)
    # ------------------------------------------------------------------
    def _probing_r(self, i: int, dest: float) -> None:
        s = self.soa
        if self.config.lrl_shortcuts and dest >= s.lrl[i] and s.lrl[i] > s.r[i]:
            self._send(float(s.lrl[i]), PROBR, dest)
        elif dest >= s.r[i]:
            self._send(float(s.r[i]), PROBR, dest)
        elif s.ids[i] < dest < s.r[i]:
            self._linearize(i, dest)

    def _probing_l(self, i: int, dest: float) -> None:
        s = self.soa
        if self.config.lrl_shortcuts and dest <= s.lrl[i] and s.lrl[i] < s.l[i]:
            self._send(float(s.lrl[i]), PROBL, dest)
        elif dest <= s.l[i]:
            self._send(float(s.l[i]), PROBL, dest)
        elif s.ids[i] > dest > s.l[i]:
            self._linearize(i, dest)

    # ------------------------------------------------------------------
    # Algorithm 7 — respondring(id)
    # ------------------------------------------------------------------
    def _respond_ring(self, i: int, origin: float) -> None:
        s = self.soa
        pid = float(s.ids[i])
        if origin == pid:
            return  # self-addressed ring edge (DESIGN.md §4.5)
        has_l = s.l[i] != NEG_INF
        has_r = s.r[i] != POS_INF
        if origin < pid:
            if s.l[i] < origin:
                self._send(origin, LIN, float(s.l[i]) if has_l else pid)
            elif s.lrl[i] < origin:
                self._send(origin, LIN, float(s.lrl[i]))
            elif s.lrl[i] > s.r[i]:
                self._send(origin, RESRING, float(s.lrl[i]))
            else:
                self._send(origin, RESRING, float(s.r[i]) if has_r else pid)
        else:
            if s.r[i] > origin:
                self._send(origin, LIN, float(s.l[i]) if has_l else pid)
            elif s.lrl[i] > origin:
                self._send(origin, LIN, float(s.lrl[i]))
            elif s.lrl[i] < s.l[i]:
                self._send(origin, RESRING, float(s.lrl[i]))
            else:
                self._send(origin, RESRING, float(s.l[i]) if has_l else pid)

    # ------------------------------------------------------------------
    # Algorithm 8 — updatering(id)
    # ------------------------------------------------------------------
    def _update_ring(self, i: int, candidate: float) -> None:
        s = self.soa
        ring_val = s.ring[i]
        unset = math.isnan(ring_val)
        old: float | None = None
        adopted = False
        if s.l[i] == NEG_INF:
            if unset or candidate > ring_val:
                old = None if unset else float(ring_val)
                adopted = True
        elif s.r[i] == POS_INF:
            if unset or candidate < ring_val:
                old = None if unset else float(ring_val)
                adopted = True
        if adopted:
            s.ring[i] = candidate
        if old is not None and old != candidate:
            self._linearize(i, old)

    # ------------------------------------------------------------------
    # Algorithms 9/10 — the regular action
    # ------------------------------------------------------------------
    def _regular_action(self, i: int) -> None:
        san = self.sanitizer
        if san is None:
            self._run_regular(i)
            return
        san.begin("_run_regular")
        try:
            self._run_regular(i)
        except BaseException:  # repro-lint: ignore[broad-except] re-raises immediately; only closes the sanitizer recording window first
            san.abort()
            raise
        san.end()

    def _run_regular(self, i: int) -> None:
        s = self.soa
        needs_ring = s.l[i] == NEG_INF or s.r[i] == POS_INF
        if not needs_ring and not math.isnan(s.ring[i]):
            stale = float(s.ring[i])
            s.ring[i] = math.nan
            self._linearize(i, stale)
        self._send_id(i)
        self._probing(i)

    def _send_id(self, i: int) -> None:
        s = self.soa
        pid = float(s.ids[i])
        if s.l[i] != NEG_INF:
            self._send(float(s.l[i]), LIN, pid)
        else:
            target = self._ring_target(i)
            if target is not None:
                self._send(target, RING, pid)
        if s.r[i] != POS_INF:
            self._send(float(s.r[i]), LIN, pid)
        else:
            target = self._ring_target(i)
            if target is not None:
                self._send(target, RING, pid)
        if self.config.move_and_forget:
            self._send(float(s.lrl[i]), INCLRL, pid)

    def _ring_target(self, i: int) -> float | None:
        s = self.soa
        pid = s.ids[i]
        ring_val = s.ring[i]
        if not math.isnan(ring_val) and ring_val != pid:
            return float(ring_val)
        candidates = (
            float(s.lrl[i]),
            float(s.r[i]) if s.r[i] != POS_INF else None,
            float(s.l[i]) if s.l[i] != NEG_INF else None,
        )
        for candidate in candidates:
            if candidate is not None and candidate != pid:
                s.ring[i] = candidate
                return candidate
        return None

    def _probing(self, i: int) -> None:
        if not self.config.probing:
            return
        s = self.soa
        needs_ring = s.l[i] == NEG_INF or s.r[i] == POS_INF
        if needs_ring and not math.isnan(s.ring[i]):
            self._probe_toward(i, float(s.ring[i]))
        if self.config.move_and_forget:
            self._probe_toward(i, float(s.lrl[i]))

    def _probe_toward(self, i: int, target: float) -> None:
        s = self.soa
        pid = s.ids[i]
        if target < pid:
            if target <= s.l[i]:
                self._send(float(s.l[i]), PROBL, target)
            elif pid > target > s.l[i]:
                self._linearize(i, target)
        elif target > pid:
            if target >= s.r[i]:
                self._send(float(s.r[i]), PROBR, target)
            elif pid < target < s.r[i]:
                self._linearize(i, target)

    def __repr__(self) -> str:
        return (
            f"MirrorEngine(n={len(self)}, pending={self.pending_total()}, "
            f"sent={self.stats.total})"
        )


def mirror_sanitizer() -> FlowSanitizer:
    """Static access sets of this module's scalar handlers."""
    return FlowSanitizer(
        class_access_sets(inspect.getsource(sys.modules[__name__]), "MirrorEngine")
    )


def mirror_simulator(
    states: Iterable[NodeState] | SoAState,
    config: ProtocolConfig | None = None,
    *,
    rng: np.random.Generator | int | None = None,
    **options: Any,
) -> FastSimulator:
    """``FastSimulator(MirrorEngine(states, config, **options), rng)``:
    *options* are the engine's ``dedup``, ``wire``, ``guard``, ``sanitize``."""
    return FastSimulator(MirrorEngine(states, config, **options), rng)
