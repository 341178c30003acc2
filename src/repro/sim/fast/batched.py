"""The batched synchronous-round engine.

:class:`FastEngine` plays the combined role of ``Network`` +
``SynchronousScheduler`` for the struct-of-arrays representation: it owns
the node state (:class:`~repro.sim.fast.soa.SoAState`), the staged messages
(:class:`~repro.sim.fast.buffers.Outbox`), and the per-round execution.

One round (the batched counterpart of
``SynchronousScheduler.execute_round``):

1. **flush** — last round's outbox becomes this round's inbox: unresolvable
   destinations dropped (and counted), optional dedup, random delivery
   keys, wave ranks (:func:`~repro.sim.fast.buffers.build_inbox`);
2. **receive** — the *writer schedule*: the only order a round owes
   anybody is each node's own delivery order, and only a row that stores
   into its node has to wait for the rows before it.  :func:`writer_rows`
   marks the rows that may store (a superset, decided up front), the token
   walk of Algorithm 4 runs first (it reads and writes ``lrl``/``age``
   only, which nothing else in the phase steers), and the inbox is then
   dispatched by ``(writers before the row in its node, type)``: a
   read-only group may hold a destination many times, a writer group holds
   it at most once, and either way one group is one vectorized kernel call
   (:class:`~repro.sim.fast.kernels.Kernels`, docs/PERF.md §2);
3. **regular actions** — one batched ``sendid(); probing()`` over all live
   nodes.

Equivalence to the reference engine is *distributional*, not draw-for-draw:
within a synchronous round all sends are staged for the next round, so
nodes do not interact mid-round and any per-node delivery order produced by
uniform keys is reachable by the reference scheduler's permutations with
equal probability.  The bit-exact twin is
:class:`~repro.sim.fast.mirror.MirrorEngine`; the differential tests pin
both (docs/PERF.md).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, cast

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF, require_id
from repro.sim.fast.buffers import (
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    Outbox,
    RoundInbox,
    _wave_check_enabled,
    build_inbox,
    stable_order,
)
from repro.sim.fast.kernels import Kernels
from repro.sim.fast.pool import ArrayPool
from repro.sim.fast.predicates import SoAHost
from repro.sim.fast.sanitize import (
    FlowSanitizer,
    SanitizedOutbox,
    SanitizedSoAState,
    sanitize_enabled,
)
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import Message
    from repro.obs.profile import PhaseProfiler

__all__ = ["FastEngine", "KERNEL_NAMES", "RoundPlan", "WaveFault", "writer_rows"]

#: Kernel name per message-type code (profiling labels, docs/PERF.md).
KERNEL_NAMES = (
    "linearize",  # LIN
    "respond_lrl",  # INCLRL
    "move_forget",  # RESLRL
    "respond_ring",  # RING
    "update_ring",  # RESRING
    "probing_r",  # PROBR
    "probing_l",  # PROBL
)


#: One conflict-free dispatch unit: ``(type code, inbox row indices)``.
WaveGroup = tuple[int, np.ndarray]


def writer_rows(inbox: RoundInbox, soa: SoAState) -> np.ndarray:
    """Mark the inbox rows that may store into their node this round.

    A superset, decided from the start-of-round state.  Every ``reslrl``
    and ``resring`` row counts.  A ``lin``/probe row stores only when it
    adopts its payload, adoption only moves ``l`` up and ``r`` down, and
    once a candidate ``c`` on the right has been handled ``r <= c`` holds
    whether it was adopted or not: so such a row can adopt only if its
    payload lies strictly inside the node's gap ``(l, r)`` on its side
    of the node's id *and* is strictly closer than every earlier such
    payload on that side.  Candidates this does not see (a forgotten
    link, a replaced ring edge) only tighten the gap further.
    """
    tcode = inbox.tcode
    idx = inbox.dest_idx.astype(np.int64)
    a = inbox.a
    writer = (tcode == RESLRL) | (tcode == RESRING)
    own = soa.ids[idx]
    right = a > own
    # A probe repairs on its own side only; on the other it neither stores
    # nor tightens the gap, so it is no candidate there.
    lin = tcode == LIN
    inside = np.where(
        right,
        (a < soa.r[idx]) & (lin | (tcode == PROBR)),
        (a > soa.l[idx]) & (a < own) & (lin | (tcode == PROBL)),
    )
    rows = np.flatnonzero(inside)
    if len(rows) == 0:
        return writer
    idx, a, right = idx[rows], a[rows], right[rows]
    # Strict prefix records per (node, side) in one running minimum: the
    # right-hand candidates in inbox order, then the left-hand ones, each
    # keyed by its dense closeness rank under a head that falls from one
    # node to the next, so a new node always undercuts the minimum so far.
    sel = np.concatenate((np.flatnonzero(right), np.flatnonzero(~right)))
    closeness = np.unique(np.where(right, a, -a)[sel], return_inverse=True)[1]
    nodes = int(idx[-1]) + 1
    head = (nodes * right[sel] + (nodes - 1)) - idx[sel]
    packed = (head << np.int64(len(sel).bit_length())) | closeness
    record = np.ones(len(sel), dtype=bool)
    np.less(packed[1:], np.minimum.accumulate(packed)[:-1], out=record[1:])
    writer[rows[sel[record]]] = True
    return writer


@dataclass
class RoundPlan:
    """One round's receive phase, scheduled (:meth:`FastEngine._plan_round`)."""

    inbox: RoundInbox
    #: Dispatch units in dispatch order.
    groups: list[WaveGroup]
    #: Per inbox row, whether it may store; ``None`` is "every row may".
    writer: np.ndarray | None
    #: The token walk's batches (inbox rows of ``reslrl``), in draw order.
    batches: list[np.ndarray]
    #: Slots holding a token this round, and their start-of-round ``lrl``.
    token_slots: np.ndarray
    token_lrl0: np.ndarray
    #: Per inbox row (``reslrl`` rows only): what the walk recorded.
    token_lrl: np.ndarray
    token_forgot: np.ndarray


class WaveFault(Protocol):
    """Adversarial rewrite of the round's wave-group dispatch sequence.

    Installed via :meth:`FastEngine.set_wave_fault` (the batched story for
    ``SchedulerFault``, docs/CHAOS.md).  ``rewrite`` receives the round's
    wave groups in canonical ascending ``(wave, type)`` order and returns
    ``(dispatch, starved)``: the groups to run this round, in dispatch
    order, and the groups whose rows are deferred to the next round.
    """

    def rewrite(
        self, groups: list[WaveGroup]
    ) -> tuple[list[WaveGroup], list[WaveGroup]]: ...


def join_batch_rows(
    new_ids: np.ndarray, contact_ids: np.ndarray, soa: SoAState
) -> tuple[np.ndarray, ...]:
    """Validate a join batch against *soa*; build its ``add_batch`` columns.

    Returns ``(ids, l, r, lrl, ring, age)`` in ascending new-id order (the
    canonical batch-membership order): ``NodeState`` defaults with the
    contact grafted on the matching side, exactly as the scalar join
    builds them.  Raises ``ValueError`` before anything is built.
    """
    new_ids = np.ascontiguousarray(new_ids, dtype=np.float64)
    contact_ids = np.ascontiguousarray(contact_ids, dtype=np.float64)
    if new_ids.shape != contact_ids.shape:
        raise ValueError("new_ids and contact_ids must align")
    k = len(new_ids)
    order = np.argsort(new_ids, kind="stable")
    new_ids, contact_ids = new_ids[order], contact_ids[order]
    # require_id's range rule, vectorized (NaN fails both compares).
    if not bool(((new_ids >= 0.0) & (new_ids < 1.0)).all()):
        raise ValueError("joining ids must lie in [0, 1)")
    if len(np.unique(new_ids)) != k:
        raise ValueError("duplicate joining id within batch")
    already = soa.lookup(new_ids)[1]
    if bool(already.any()):
        nid = float(new_ids[np.flatnonzero(already)[0]])
        raise ValueError(f"id {nid!r} already in the network")
    have_contact = soa.lookup(contact_ids)[1]
    if not bool(have_contact.all()):
        cid = float(contact_ids[np.flatnonzero(~have_contact)[0]])
        raise ValueError(f"contact {cid!r} not in the network")
    if bool((contact_ids == new_ids).any()):
        raise ValueError("a node cannot join via itself")
    return (
        new_ids,
        np.where(contact_ids < new_ids, contact_ids, NEG_INF),
        np.where(contact_ids > new_ids, contact_ids, POS_INF),
        new_ids,
        np.full(k, np.nan),
        np.zeros(k, dtype=np.int64),
    )


def leave_batch_victims(node_ids: np.ndarray, soa: SoAState) -> np.ndarray:
    """Validate a departure batch against *soa*; the victims, ascending.

    Ascending is the order the ``d <= m`` drop accounting is defined
    against.  Raises ``KeyError`` on a duplicate or unknown id.
    """
    victims = np.sort(np.ascontiguousarray(node_ids, dtype=np.float64))
    if len(victims) > 1 and bool((victims[1:] == victims[:-1]).any()):
        raise KeyError("duplicate departing id within batch")
    found = soa.lookup(victims)[1]
    if not bool(found.all()):
        nid = float(victims[np.flatnonzero(~found)[0]])
        raise KeyError(f"no node with id {nid!r}")
    return victims


class FastEngine(SoAHost):
    """Struct-of-arrays state + staged messages + batched round execution."""

    def __init__(
        self,
        states: Iterable[NodeState] | SoAState,
        config: ProtocolConfig | None = None,
        *,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
        compact_outbox: bool | None = None,
        stats: MessageStats | None = None,
    ) -> None:
        """*states* may be a ready :class:`SoAState` and *stats* a ready
        :class:`MessageStats`: the engine then runs over those borrowed
        objects (the sharded engine's cores all share one of each)."""
        cfg = config or ProtocolConfig()
        if cfg.trace is not None:
            raise ValueError(
                "the batched engine does not support event tracing; "
                "use the reference engine for trace-based tests"
            )
        self.config = cfg
        self.soa = (
            states if isinstance(states, SoAState) else SoAState.from_states(states)
        )
        self.dedup = dedup
        self.stats = stats or MessageStats(keep_history=keep_history)
        # Mid-round staged-row dedup is sound exactly when the inbox dedups
        # anyway (coalescing-set semantics); the chaos wire overrides this
        # to keep its frame multiset byte-exact.
        if compact_outbox is None:
            compact_outbox = dedup
        self.outbox = Outbox(self.stats, auto_compact=compact_outbox)
        #: Recycles the inbox-assembly temporaries across rounds.
        self.pool = ArrayPool()
        # The sanitizer scopes recording to kernel code: the engine keeps
        # its real state/outbox references, only the kernels see the
        # recording proxies.  Draw order is untouched either way, so a
        # sanitized run stays bit-exact with an unsanitized one.
        if sanitize is None:
            sanitize = sanitize_enabled()
        self.sanitizer: FlowSanitizer | None = None
        kernel_soa, kernel_out = self.soa, self.outbox
        if sanitize:
            self.sanitizer = FlowSanitizer.for_kernels()
            kernel_soa = cast(
                SoAState, SanitizedSoAState(self.soa, self.sanitizer)
            )
            kernel_out = cast(Outbox, SanitizedOutbox(self.outbox, self.sanitizer))
        self.kernels = Kernels(kernel_soa, kernel_out, cfg)
        #: Messages sent to identifiers that no longer exist (dropped).
        self.dropped = 0
        #: Per-kernel profiler, installed by an ambient observer
        #: (repro.obs); ``None`` keeps the round on the untimed path.
        self.profiler: PhaseProfiler | None = None
        #: Adversarial wave-dispatch rewrite (``SchedulerFault``'s batched
        #: story); ``None`` keeps the canonical ascending dispatch order.
        self._wave_fault: WaveFault | None = None

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def _take_wire(self, rng: np.random.Generator) -> list:
        """This round's deliverable chunks (chaos engines interpose here)."""
        del rng
        return self.outbox.take_all()

    def _close_round(self, rng: np.random.Generator) -> None:
        """End-of-round bookkeeping (chaos engines interpose here)."""
        del rng
        self.outbox.flush_stats()

    def execute_round(self, rng: np.random.Generator) -> None:
        """Advance the network by one synchronous round."""
        profiler = self.profiler
        t0 = time.perf_counter() if profiler is not None else 0.0
        inbox, dropped = build_inbox(
            self._take_wire(rng),
            self.soa.lookup,
            rng,
            dedup=self.dedup,
            pool=self.pool,
        )
        if profiler is not None:
            profiler.add("flush", time.perf_counter() - t0)
        self.dropped += dropped
        if inbox is not None:
            plan = self._plan_round(inbox)
            for rows in plan.batches:
                self._walk_tokens(plan, rows, rng)
            self._run_groups(plan)
        self._run_regular(rng)
        self._close_round(rng)

    def _plan_round(self, inbox: RoundInbox) -> RoundPlan:
        """Schedule *inbox*: writer mask, dispatch groups, token batches.

        One schedule, read off the engine's state once per round: while
        staging order is observable — the outbox keeps raw frames (the
        chaos wire, ``dedup=False``) or a :class:`WaveFault` rewrites the
        dispatch — every row counts as a writer, which groups the inbox by
        ``(wave, type)``; the token walk then takes its batches from the
        (rewritten) group list.
        """
        fault = self._wave_fault
        writer = None
        if self.outbox.auto_compact and fault is None:
            writer = writer_rows(inbox, self.soa)
        groups = self._wave_groups(inbox, writer)
        if fault is not None:
            groups, starved = fault.rewrite(groups)
            for code, rows in starved:
                self._defer_rows(code, inbox, rows)
        tokens = np.flatnonzero(inbox.tcode == RESLRL)
        if writer is None:
            batches = [rows for code, rows in groups if code == RESLRL]
        else:
            # The draw order of a wave-by-wave dispatch: the reslrl rows of
            # one wave are one batch, ascending waves, inbox order within.
            order, ranks = stable_order(
                inbox.rank[tokens].astype(np.int64), inbox.n_waves.bit_length()
            )
            cuts = np.flatnonzero(ranks[1:] != ranks[:-1]) + 1
            batches = np.split(tokens[order], cuts) if len(tokens) else []
        slots = inbox.dest_idx[tokens]
        return RoundPlan(
            inbox=inbox,
            groups=groups,
            writer=writer,
            batches=batches,
            token_slots=slots,
            token_lrl0=self.soa.lrl[slots],
            token_lrl=np.empty(len(inbox), dtype=np.float64),
            token_forgot=np.empty(len(inbox), dtype=np.float64),
        )

    @staticmethod
    def _wave_groups(
        inbox: RoundInbox, writer: np.ndarray | None = None
    ) -> list[WaveGroup]:
        """The round's dispatch units in canonical order.

        Every row gets the step ``2 * (writers before it in its node's
        segment) + (is it a writer)`` and rows are grouped by ``(step,
        type)``: ascending steps preserve what each row reads of its node
        — everything the writers before it stored, nothing of the writers
        after it.  An odd step holds a node at most once; an even step is
        read-only, so a node may repeat in it.  Without a mask every row
        is a writer: step orders as the wave rank, and the groups are the
        ``(wave, type)`` groups of unique destinations.
        """
        count = len(inbox)
        if writer is None:
            writer = np.ones(count, dtype=bool)
        is_writer = writer.astype(np.int64)
        before = np.cumsum(is_writer)
        before -= is_writer
        before -= before[np.arange(count) - inbox.rank]
        step = 2 * before + is_writer
        if __debug__ and _wave_check_enabled():
            # What every storing kernel relies on: within one writer step
            # each destination slot appears at most once.
            packed = step[writer] * np.int64(int(inbox.dest_idx[-1]) + 1)
            packed += inbox.dest_idx[writer]
            assert np.unique(packed).size == packed.size, (
                "writer precondition violated: a destination repeats "
                "within one writer step"
            )
        group = step * 8 + inbox.tcode
        order, sorted_keys = stable_order(
            group, (inbox.n_waves * 16).bit_length()
        )
        cuts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        bounds = [0, *cuts.tolist(), len(order)]
        codes = (sorted_keys[bounds[:-1]] & 7).tolist()
        return [
            (code, order[lo:hi])
            for code, lo, hi in zip(codes, bounds, bounds[1:])
        ]

    def _windowed(
        self,
        name: str,
        idx: np.ndarray,
        read_only: bool,
        kernel: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """Call *kernel* — inside a sanitizer window when one is recording."""
        san = self.sanitizer
        if san is None:
            return kernel(*args, **kwargs)
        san.begin(name, idx, read_only=read_only)
        try:
            result = kernel(*args, **kwargs)
        except BaseException:  # repro-lint: ignore[broad-except] re-raises immediately; only closes the sanitizer recording window first
            san.abort()
            raise
        san.end()
        return result

    def _walk_tokens(
        self,
        plan: RoundPlan,
        rows: np.ndarray,
        rng: np.random.Generator,
        coins: np.ndarray | None = None,
        forget_u: np.ndarray | None = None,
    ) -> None:
        """Step the tokens of one ``reslrl`` batch; record what each leaves.

        Runs ahead of the dispatch groups (Algorithm 4 reads and writes
        ``lrl``/``age`` only): batches, row order, validity filter and
        draws are the ones a wave-by-wave dispatch makes.
        """
        profiler = self.profiler
        t1 = time.perf_counter() if profiler is not None else 0.0
        inbox = plan.inbox
        idx = inbox.dest_idx[rows]
        plan.token_lrl[rows], plan.token_forgot[rows] = self._windowed(
            "move_forget",
            idx,
            False,
            self.kernels.move_forget,
            idx,
            inbox.a[rows],
            inbox.b[rows],
            inbox.c[rows],
            rng,
            coins=coins,
            forget_u=forget_u,
        )
        if profiler is not None:
            profiler.add("move_forget", time.perf_counter() - t1, calls=len(rows))

    def _run_groups(self, plan: RoundPlan) -> None:
        """Run the dispatch groups through their kernels, in order.

        First the walked ``lrl`` slots go back to their start-of-round
        values: each ``reslrl`` row stores what the walk recorded for it
        where it sits in its node's sequence, so the rows before it read
        what they would have read wave by wave.
        """
        self.soa.lrl[plan.token_slots] = plan.token_lrl0
        profiler = self.profiler
        kernels = self.kernels
        inbox = plan.inbox
        writer = plan.writer
        for code, rows in plan.groups:
            t1 = time.perf_counter() if profiler is not None else 0.0
            idx = inbox.dest_idx[rows]
            if code == RESLRL:
                name = "place_token"
                payload = (plan.token_lrl[rows], plan.token_forgot[rows])
            else:
                name = KERNEL_NAMES[code]
                payload = (inbox.a[rows],)
            read_only = writer is not None and not writer[rows[0]]
            self._windowed(
                name, idx, read_only, getattr(kernels, name), idx, *payload
            )
            if profiler is not None:
                profiler.add(name, time.perf_counter() - t1, calls=len(rows))

    def _regular_rows(self) -> np.ndarray:
        """Slots the regular action covers, ascending by identifier."""
        return self.soa.sorted_live()[1]

    def _run_regular(self, rng: np.random.Generator) -> int:
        """One batched regular action over all live nodes; their count."""
        profiler = self.profiler
        t2 = time.perf_counter() if profiler is not None else 0.0
        live_idx = self._regular_rows()
        self._windowed(
            "regular_action",
            live_idx,
            False,
            self.kernels.regular_action,
            live_idx,
            rng,
        )
        if profiler is not None:
            profiler.add("regular", time.perf_counter() - t2, calls=len(live_idx))
        return len(live_idx)

    # ------------------------------------------------------------------
    # Membership / churn (round boundaries only)
    # ------------------------------------------------------------------
    def join(self, new_id: float, contact_id: float) -> None:
        """Add a fresh node knowing only *contact_id* (paper §IV-G).

        Same contract as :func:`repro.churn.join.join_node`.
        """
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

    def leave(self, node_id: float) -> None:
        """Remove *node_id*, purging every reference to it (paper §IV-G).

        Same contract as :func:`repro.churn.leave.leave_node`: staged
        messages to the departed node are dropped (and counted), staged
        messages mentioning it are purged (uncounted, mirroring
        ``Network.purge_identifier``), and every stored reference is
        scrubbed.
        """
        if node_id not in self.soa:
            raise KeyError(f"no node with id {node_id!r}")
        self.soa.remove(node_id)
        self.dropped += self.outbox.drop_dest(node_id)
        self.outbox.purge_mentions(node_id)
        self.soa.scrub_departed(node_id)

    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int:
        """Add a batch of fresh nodes in one column append (paper §IV-G).

        State-equivalent to :meth:`join` once per ``(new_id, contact_id)``
        pair in ascending new-id order (the canonical batch-membership
        order; joins are independent — each writes only its own row).  The
        whole batch is validated before any row lands.  Returns the number
        of nodes added.
        """
        rows = join_batch_rows(new_ids, contact_ids, self.soa)
        self.soa.add_batch(*rows)
        return len(rows[0])

    def leave_batch(self, node_ids: np.ndarray) -> int:
        """Remove a batch of nodes in one vectorized pass (paper §IV-G).

        State-equivalent to :meth:`leave` once per id in ascending order:
        staged rows die with the ``d <= m`` accounting of
        :meth:`Outbox.drop_and_purge_batch`, stored references are scrubbed
        in one ``isin`` pass, and tombstoned slots are reclaimed by
        round-boundary compaction once they dominate.  The whole batch is
        validated before any state changes.  Returns the departure count.
        """
        victims = leave_batch_victims(node_ids, self.soa)
        if len(victims) == 0:
            return 0
        self.soa.remove_batch(victims)
        self.dropped += self.outbox.drop_and_purge_batch(victims)
        self.soa.scrub_departed_many(victims)
        self._after_leave_batch(victims)
        self.soa.maybe_compact()
        return len(victims)

    def _after_leave_batch(self, victims: np.ndarray) -> None:
        """Post-departure hook (chaos engines purge their wire/guard here).

        *victims* is sorted ascending — the order the ``d <= m`` accounting
        is defined against.
        """
        del victims

    # ------------------------------------------------------------------
    # Wave-dispatch faults (SchedulerFault's batched story)
    # ------------------------------------------------------------------
    def set_wave_fault(self, fault: WaveFault | None) -> None:
        """Install (or clear, with ``None``) a wave-dispatch fault."""
        self._wave_fault = fault

    def _defer_rows(
        self, code: int, inbox: RoundInbox, rows: np.ndarray
    ) -> None:
        """Push starved inbox rows back into the outbox, uncounted.

        The deferred rows re-enter next round's inbox exactly as if their
        senders' messages had arrived one round late; their original sends
        were already counted, so :meth:`Outbox.restage` skips the stats.
        """
        dest = self.soa.ids[inbox.dest_idx[rows]]
        a = inbox.a[rows]
        if code == RESLRL:
            self.outbox.restage(code, dest, a, inbox.b[rows], inbox.c[rows])
        else:
            self.outbox.restage(code, dest, a)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_total(self) -> int:
        """Total undelivered (staged) messages."""
        return self.outbox.pending_total()

    def inflight_pairs(self, code: int) -> tuple[np.ndarray, np.ndarray]:
        """``(dest_ids, payload)`` of pending single-id messages of *code*.

        Between rounds every undelivered message sits in the outbox (the
        batched round drains its whole inbox), so this is the complete
        in-flight set — what the channel-connectivity predicates read.
        """
        pending = self.outbox.pending_by_type().get(code)
        if pending is None:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        return pending[0], pending[1]

    def in_flight_id_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, payload_id)`` rows over every in-flight payload id
        (what the channel-connectivity component count reads)."""
        dests: list[np.ndarray] = []
        pids: list[np.ndarray] = []
        for code, arrays in self.outbox.pending_by_type().items():
            dst = arrays[0]
            dests.append(dst)
            pids.append(arrays[1])
            if code == RESLRL:
                dests.extend((dst, dst))
                pids.extend((arrays[2], arrays[3]))
        if not dests:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        return np.concatenate(dests), np.concatenate(pids)

    def pending_messages(self) -> list[tuple[float, "Message"]]:
        """Pending messages as ``(dest, Message)`` pairs (export path)."""
        return self.outbox.pending_messages()

    def __repr__(self) -> str:
        return (
            f"FastEngine(n={len(self)}, pending={self.pending_total()}, "
            f"sent={self.stats.total})"
        )
