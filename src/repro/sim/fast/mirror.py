"""The mirror-RNG engine: bit-exact twin of the reference synchronous round.

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
the differential-equivalence harness's oracle (docs/PERF.md), and it
validates the SoA representation, the tuple wire format, and the churn
plumbing that the batched engine shares.

Handlers are deliberate line-for-line ports of
:class:`repro.core.node.Node`; keep them in sync with Algorithms 1–10
there.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, cast

import numpy as np

from repro.core.forget import forget_probability
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF, require_id
from repro.sim.fast.buffers import (
    INCLRL,
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    RING,
    TYPE_OF_CODE,
)
from repro.sim.fast.predicates import SoAHost
from repro.sim.fast.sanitize import (
    FlowSanitizer,
    SanitizedSoAState,
    sanitize_enabled,
)
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import Message
    from repro.obs.profile import PhaseProfiler

__all__ = ["MirrorEngine"]

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


def pair_columns(pairs: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """``(dest, payload)`` pairs as the two float columns predicates read."""
    if not pairs:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[:, 0], arr[:, 1]


class MirrorEngine(SoAHost):
    """Scalar engine over SoA state reproducing the reference RNG stream."""

    def __init__(
        self,
        states: Iterable[NodeState],
        config: ProtocolConfig | None = None,
        *,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
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
            self.sanitizer = FlowSanitizer.for_mirror()
            self.soa = cast(SoAState, SanitizedSoAState(self.soa, self.sanitizer))
        self.dedup = dedup
        self.stats = MessageStats(keep_history=keep_history)
        #: Messages sent to identifiers that no longer exist (dropped).
        self.dropped = 0
        #: Coarse phase profiler, installed by an ambient observer
        #: (repro.obs); ``None`` keeps the round on the untimed path.
        self.profiler: PhaseProfiler | None = None
        self._staging: list[tuple[float, MirrorMessage]] = []
        self._channels: dict[float, list[MirrorMessage]] = {
            nid: [] for nid in self.soa.live_ids_list()
        }
        self._sets: dict[float, set[MirrorMessage]] | None = (
            {nid: set() for nid in self._channels} if dedup else None
        )

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------
    def _send(self, dest: float, code: int, *payload: float) -> None:
        if self.sanitizer is not None:
            self.sanitizer.record_send(code)
        self.stats.record_send(TYPE_OF_CODE[code])
        if dest in self.soa:
            self._staging.append((dest, (code, *payload)))
        else:
            self.dropped += 1

    def flush(self) -> None:
        """Deliver staged messages into channels (insertion order, dedup)."""
        staged, self._staging = self._staging, []
        for dest, msg in staged:
            channel = self._channels.get(dest)
            if channel is None:
                self.dropped += 1
                continue
            if self._sets is not None:
                seen = self._sets[dest]
                if msg in seen:
                    continue
                seen.add(msg)
            channel.append(msg)

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
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        self.flush()
        if profiler is not None:
            profiler.add("flush", time.perf_counter() - t0)
        ids = self.soa.live_ids_list()
        if not ids:
            return
        order = rng.permutation(len(ids))
        receive = 0.0
        regular = 0.0
        received = 0
        acted = 0
        for pos in order:
            nid = ids[pos]
            if nid in self.soa:
                i = self.soa.index_of(nid)
                assert i is not None
                msgs = self._channels[nid]
                t1 = time.perf_counter() if profiler is not None else 0.0
                if msgs:
                    self._channels[nid] = []
                    if self._sets is not None:
                        self._sets[nid] = set()
                    if len(msgs) > 1:
                        perm = rng.permutation(len(msgs))  # repro-flow: ignore[flow-branch-rng] deliberate draw-for-draw match of Channel.drain, which also permutes only multi-message queues
                        msgs = [msgs[j] for j in perm]
                    for msg in msgs:
                        self._on_message(i, msg, rng)
                if profiler is not None:
                    t2 = time.perf_counter()
                    receive += t2 - t1
                    received += len(msgs)
                    self._regular_action(i)
                    regular += time.perf_counter() - t2
                    acted += 1
                else:
                    self._regular_action(i)
            if after_node is not None:
                after_node(int(pos), nid)
        if profiler is not None:
            profiler.add("receive", receive, calls=received)
            profiler.add("regular", regular, calls=acted)

    # ------------------------------------------------------------------
    # Membership / churn
    # ------------------------------------------------------------------
    def join(self, new_id: float, contact_id: float) -> None:
        """Add a fresh node knowing only *contact_id* (as ``join_node``)."""
        require_id(new_id, what="joining id")
        if new_id in self.soa:
            raise ValueError(f"id {new_id!r} already in the network")
        if contact_id not in self.soa:
            raise ValueError(f"contact {contact_id!r} not in the network")
        if contact_id == new_id:
            raise ValueError("a node cannot join via itself")
        state = NodeState(id=new_id)
        if contact_id < new_id:
            state.corrupt(l=contact_id)
        else:
            state.corrupt(r=contact_id)
        self.soa.add(state)
        self._channels[new_id] = []
        if self._sets is not None:
            self._sets[new_id] = set()

    def leave(self, node_id: float) -> None:
        """Remove *node_id* with full reference purge (as ``leave_node``).

        Works mid-round too (from an ``after_node`` hook): the departed
        node's channel disappears, staged messages to it are dropped and
        counted, in-flight mentions are purged uncounted, and stored
        references are scrubbed — the same sequence as
        ``Network.remove_node`` + ``purge_identifier`` + the state scrub.
        """
        if node_id not in self.soa:
            raise KeyError(f"no node with id {node_id!r}")
        self.soa.remove(node_id)
        del self._channels[node_id]
        if self._sets is not None:
            del self._sets[node_id]
        before = len(self._staging)
        self._staging = [(d, m) for d, m in self._staging if d != node_id]
        self.dropped += before - len(self._staging)
        # purge_identifier: mentions in staging and channels, uncounted.
        self._staging = [
            (d, m) for d, m in self._staging if node_id not in m[1:]
        ]
        for nid, channel in self._channels.items():
            kept = [m for m in channel if node_id not in m[1:]]
            if len(kept) != len(channel):
                self._channels[nid] = kept
                if self._sets is not None:
                    self._sets[nid] = set(kept)
        self.soa.scrub_departed(node_id)

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
        """Batch leave: the scalar departures in ascending id order.

        Chaos subclasses inherit this loop unchanged — each iteration runs
        their own ``leave`` override, which is exactly the sequential
        contract the batched engine's ``d <= m`` accounting reproduces.
        """
        victims = np.sort(np.ascontiguousarray(node_ids, dtype=np.float64))
        k = len(victims)
        if k > 1 and bool((victims[1:] == victims[:-1]).any()):
            raise KeyError("duplicate departing id within batch")
        for nid in victims.tolist():
            if nid not in self.soa:
                raise KeyError(f"no node with id {nid!r}")
        for nid in victims.tolist():
            self.leave(nid)
        return k

    def pending_total(self) -> int:
        """Total undelivered messages (staged + in channels)."""
        return len(self._staging) + sum(
            len(c) for c in self._channels.values()
        )

    def _pending_raw(self) -> list[tuple[float, MirrorMessage]]:
        out = list(self._staging)
        for nid, channel in self._channels.items():
            out.extend((nid, m) for m in channel)
        return out

    def inflight_pairs(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dest_ids, payload)`` of pending single-id messages of *code*."""
        return pair_columns(
            [(dest, m[1]) for dest, m in self._pending_raw() if m[0] == code]
        )

    def pending_messages(self) -> list[tuple[float, "Message"]]:
        """Pending messages as ``(dest, Message)`` pairs (export path)."""
        from repro.core.messages import Message

        return [
            (dest, Message(TYPE_OF_CODE[int(m[0])], m[1:]))
            for dest, m in self._pending_raw()
        ]

    @property
    def in_flight(self) -> list[tuple[float, "Message"]]:
        """Every undelivered message (as ``Network.in_flight``)."""
        return self.pending_messages()

    def in_flight_id_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, payload_id)`` rows over every in-flight payload id."""
        return pair_columns(
            [
                (dest, float(pid))
                for dest, message in self.in_flight
                for pid in message.ids
            ]
        )

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
                s.ring[i] = candidate  # repro-lint: ignore[scalar-loop-over-soa] the mirror engine is the deliberate scalar port; three candidates, first-match semantics
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
