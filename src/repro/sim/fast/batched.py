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
   only, which nothing else in the phase steers) as one kernel call per
   *segment* — a run of waves that holds each node at most once, usually
   the whole round (:func:`walk_cuts`, :func:`token_draws`) — and the
   inbox is then dispatched by ``(writers before the row in its node,
   type)``: a read-only group may hold a destination many times, a writer
   group holds it at most once, and either way one group is one
   vectorized kernel call (:class:`~repro.sim.fast.kernels.Kernels`,
   docs/PERF.md §2);
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
from repro.ids import NEG_INF, POS_INF
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
    from repro.obs.profile import PhaseProfiler

__all__ = [
    "FastEngine",
    "KERNEL_NAMES",
    "RoundPlan",
    "WaveFault",
    "token_draws",
    "walk_cuts",
    "writer_rows",
]

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


def walk_cuts(slots: np.ndarray, wave: np.ndarray) -> np.ndarray:
    """The waves, ascending, at which the token walk starts a new segment.

    *slots* and *wave* are the walk's destination slots and waves in draw
    order.  A segment starts at every wave that holds a node's
    second-or-later ``reslrl`` row of the round, so a segment walks each
    node at most once.  Usually no node holds two and the whole walk is
    one segment: one ``bincount`` says so.
    """
    none = np.empty(0, dtype=np.int64)
    if len(slots) == 0:
        return none
    held = np.bincount(slots)
    if held.max() <= 1:
        return none
    rows = np.flatnonzero(held[slots] > 1)
    rows = rows[np.argsort(slots[rows], kind="stable")]
    again = rows[1:][slots[rows[1:]] == slots[rows[:-1]]]
    return np.unique(wave[again])


def token_draws(
    rng: np.random.Generator, counts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One segment's move-and-forget draws, one ``rng.random`` call.

    ``counts[p, w]`` is the number of valid ``reslrl`` rows that part *p*
    (the engine, or one shard core) holds in wave *w* of the segment.  Wave
    by wave, the walk draws ``K_w = counts[:, w].sum()`` direction coins
    and then ``K_w`` forget coins, parts ascending within each.  Since
    ``random(k1)`` followed by ``random(k2)`` is ``random(k1 + k2)`` split,
    one ``random(2 * counts.sum())`` is that stream: wave *w* takes its
    coins from ``[P_w, P_w + K_w)`` and its forgets from
    ``[P_w + K_w, P_w + 2 K_w)``, ``P_w = 2 * sum(K[:w])``.  Returns per
    part ``(coins, forget_u)``, aligned with its valid rows in draw order.
    """
    totals = counts.sum(axis=0)
    uniform = rng.random(2 * int(totals.sum()))
    first = 2 * (np.cumsum(totals) - totals) + (np.cumsum(counts, axis=0) - counts)
    draws = []
    for start, k in zip(first, counts):
        coin = np.repeat(start - (np.cumsum(k) - k), k)
        coin += np.arange(len(coin))
        draws.append((uniform[coin], uniform[coin + np.repeat(totals, k)]))
    return draws


@dataclass
class RoundPlan:
    """One round's receive phase, scheduled (:meth:`FastEngine._plan_round`)."""

    inbox: RoundInbox
    #: Dispatch units in dispatch order.
    groups: list[WaveGroup]
    #: Per inbox row, whether it may store; ``None`` is "every row may".
    writer: np.ndarray | None
    #: The token walk: the ``reslrl`` rows in draw order, and the wave each
    #: is drawn in (ascending) — its wave rank under the writer schedule,
    #: the position of its group among the dispatched ``reslrl`` groups
    #: otherwise.
    walk: np.ndarray
    walk_wave: np.ndarray
    #: Waves at which a segment of the walk starts, the first excepted.
    cuts: np.ndarray
    #: Slots holding a token this round, and their start-of-round ``lrl``.
    token_slots: np.ndarray
    token_lrl0: np.ndarray
    #: Per inbox row (``reslrl`` rows only): what the walk recorded.
    token_lrl: np.ndarray
    token_forgot: np.ndarray

    def segments(self) -> list[tuple[int, int]]:
        """The walk's segments as half-open wave ranges, in draw order."""
        if len(self.walk) == 0:
            return []
        bounds = [
            int(self.walk_wave[0]),
            *self.cuts.tolist(),
            int(self.walk_wave[-1]) + 1,
        ]
        return list(zip(bounds, bounds[1:]))

    def walk_rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The walk rows of the waves ``[lo, hi)``, and their waves."""
        first, end = np.searchsorted(self.walk_wave, (lo, hi))
        return self.walk[first:end], self.walk_wave[first:end]


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
    contact grafted on the matching side, exactly as
    :func:`repro.churn.join.join_node` builds them.  Raises ``ValueError``
    before anything is built.
    """
    new_ids = np.ascontiguousarray(new_ids, dtype=np.float64)
    contact_ids = np.ascontiguousarray(contact_ids, dtype=np.float64)
    if new_ids.shape != contact_ids.shape:
        raise ValueError("new_ids and contact_ids must align")
    k = len(new_ids)
    order = np.argsort(new_ids, kind="stable")
    new_ids, contact_ids = new_ids[order], contact_ids[order]
    # require_id's range rule, vectorized (NaN fails both compares).
    in_range = (new_ids >= 0.0) & (new_ids < 1.0)
    if not bool(in_range.all()):
        bad = float(new_ids[np.flatnonzero(~in_range)[0]])
        raise ValueError(f"joining id must lie in [0, 1), got {bad!r}")
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

    #: Whether a wire between the outbox and the next inbox consumes the
    #: staged frames as sent (the chaos engine's fault executors draw per
    #: frame), which makes staging order observable.
    has_wire = False

    def __init__(
        self,
        states: Iterable[NodeState] | SoAState,
        config: ProtocolConfig | None = None,
        *,
        dedup: bool = True,
        keep_history: bool = False,
        sanitize: bool | None = None,
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
        self.outbox = Outbox(self.stats)
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
        )
        if profiler is not None:
            profiler.add("flush", time.perf_counter() - t0)
        self.dropped += dropped
        if inbox is not None:
            plan = self._plan_round(inbox)
            self._walk(plan, rng)
            self._run_groups(plan)
        self._run_regular(rng)
        self._close_round(rng)

    def _plan_round(self, inbox: RoundInbox) -> RoundPlan:
        """Schedule *inbox*: writer mask, dispatch groups, token walk.

        One schedule, read off the engine once per round.  Writers are
        planned only where staging order cannot show: the inbox dedups, no
        :class:`WaveFault` rewrites the dispatch and no wire
        (:attr:`has_wire`) consumes the staged frames.  Otherwise every row
        counts as a writer, which groups the inbox by ``(wave, type)``; the
        token walk then takes its waves from the (rewritten) group list.
        """
        fault = self._wave_fault
        writer = None
        if self.dedup and fault is None and not self.has_wire:
            writer = writer_rows(inbox, self.soa)
        groups = self._wave_groups(inbox, writer)
        if fault is not None:
            groups, starved = fault.rewrite(groups)
            for code, rows in starved:
                self._defer_rows(code, inbox, rows)
        tokens = np.flatnonzero(inbox.tcode == RESLRL)
        if writer is None:
            batches = [rows for code, rows in groups if code == RESLRL]
            walk = np.concatenate(batches) if batches else tokens[:0]
            walk_wave = np.repeat(
                np.arange(len(batches)), [len(rows) for rows in batches]
            )
        else:
            # The draw order of a wave-by-wave dispatch: ascending waves,
            # inbox order within a wave.
            order, walk_wave = stable_order(
                inbox.rank[tokens].astype(np.int64), inbox.n_waves.bit_length()
            )
            walk = tokens[order]
        slots = inbox.dest_idx[tokens]
        return RoundPlan(
            inbox=inbox,
            groups=groups,
            writer=writer,
            walk=walk,
            walk_wave=walk_wave,
            cuts=walk_cuts(inbox.dest_idx[walk], walk_wave),
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

    def _walk(self, plan: RoundPlan, rng: np.random.Generator) -> None:
        """The token walk: one draw and one ``move_forget`` per segment.

        Runs ahead of the dispatch groups (Algorithm 4 reads and writes
        ``lrl``/``age`` only).  Row order, validity and draws are the ones
        a wave-by-wave walk makes (:func:`token_draws`).
        """
        for lo, hi in plan.segments():
            rows, counts = self._segment(plan, lo, hi)
            ((coins, forget_u),) = token_draws(rng, counts[None])
            self._walk_tokens(plan, rows, rng, coins, forget_u)

    def _segment(
        self, plan: RoundPlan, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The walk rows of the waves ``[lo, hi)``, and per wave how many
        of them are valid (``responder == lrl``).

        A segment walks each node at most once, so validity read up front
        is what each row sees at its turn.  With move-and-forget off no row
        is valid and nothing is drawn, as in the kernel.
        """
        rows, waves = plan.walk_rows(lo, hi)
        inbox = plan.inbox
        idx = inbox.dest_idx[rows]
        if __debug__ and _wave_check_enabled():
            assert np.unique(idx).size == idx.size, (
                "a node repeats within one segment of the token walk"
            )
        valid = (inbox.a[rows] == self.soa.lrl[idx]) & self.kernels.maf
        return rows, np.bincount(waves[valid] - lo, minlength=hi - lo)

    def _walk_tokens(
        self,
        plan: RoundPlan,
        rows: np.ndarray,
        rng: np.random.Generator,
        coins: np.ndarray,
        forget_u: np.ndarray,
    ) -> None:
        """Step the tokens of one segment with its draws; record what each
        row leaves."""
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
    # Membership / churn (round boundaries only).  The batches are the only
    # membership writers; ``join``/``leave`` are batches of one (SoAHost).
    # ------------------------------------------------------------------
    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int:
        """Add a batch of fresh nodes in one column append (paper §IV-G).

        Each node knows only its contact, as in
        :func:`repro.churn.join.join_node`; rows land in ascending new-id
        order (the canonical batch-membership order; joins are independent
        — each writes only its own row), so a batch equals its one-element
        batches in that order.  The whole batch is validated before any
        row lands.  Returns the number of nodes added.
        """
        rows = join_batch_rows(new_ids, contact_ids, self.soa)
        self.soa.add_batch(*rows)
        return len(rows[0])

    def leave_batch(self, node_ids: np.ndarray) -> int:
        """Remove a batch of nodes in one vectorized pass (paper §IV-G).

        The contract of :func:`repro.churn.leave.leave_node` per id, in
        ascending order: in-flight rows to a departed node are dropped
        (and counted), rows mentioning one are purged (uncounted), by the
        ``d <= m`` rule of :func:`~repro.sim.fast.buffers.departure_sweep`
        — so a batch equals its one-element batches in that order.  Stored
        references are scrubbed in one ``isin`` pass, and tombstoned slots
        are reclaimed by round-boundary compaction once they dominate.  The
        whole batch is validated before any state changes.  Returns the
        departure count.
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
        """Post-departure hook (the chaos engine purges its wire and guard
        here).

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

    def in_flight_rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """``(dest, tcode, a, b, c)`` of every undelivered message of type
        *code* (every type when ``None``): between rounds every one sits in
        the outbox, since the batched round drains its whole inbox."""
        return self.outbox.rows(code)

    def __repr__(self) -> str:
        return (
            f"FastEngine(n={len(self)}, pending={self.pending_total()}, "
            f"sent={self.stats.total})"
        )
