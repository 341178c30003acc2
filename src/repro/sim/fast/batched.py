"""The batched synchronous-round engine.

:class:`FastEngine` plays the combined role of ``Network`` +
``SynchronousScheduler`` for the struct-of-arrays representation: it owns
the node state (:class:`~repro.sim.fast.soa.SoAState`), the staged messages
(:class:`~repro.sim.fast.buffers.Outbox`), and the per-round execution.

One round (the batched counterpart of
``SynchronousScheduler.execute_round``):

1. **flush** — last round's outbox becomes this round's prepared inbox:
   unresolvable destinations dropped (and counted), identical rows
   coalesced (:func:`~repro.sim.fast.buffers.prepare_inbox`), one uniform
   delivery key per row (:func:`~repro.sim.fast.buffers.draw_delivery_keys`);
2. **receive** — the *writer schedule*: the only order a round owes
   anybody is each node's own delivery order, ``(key, canonical
   position)``, and only a row that stores into its node has to wait for
   the rows before it.  :func:`receive_steps` gives every row a *step*
   straight from the canonical rows and their keys: a node with at most
   one row that may store (a superset, decided up front) places every
   other row before or after that writer with one compare, and only the
   rows of nodes where two writers may meet are sorted into delivery order
   and counted (:func:`~repro.sim.fast.buffers.finalize_inbox`,
   :func:`writer_rows`).  The token walk of Algorithm 4 runs first (it
   reads and writes ``lrl``/``age`` only, which nothing else in the phase
   steers) as one kernel call per *segment* — a run of waves that holds
   each node at most once, usually the whole round (:func:`walk_cuts`,
   :func:`token_draws`) — and the inbox is then dispatched by ``(step,
   type)``: a read-only group may hold a destination many times, a writer
   group holds it at most once, and either way one group is one
   vectorized kernel call (:class:`~repro.sim.fast.kernels.Kernels`,
   docs/PERF.md §2);
3. **regular actions** — one batched ``sendid(); probing()`` over all live
   nodes.

``FastEngine(wire=True)`` (implied by a ``guard``) holds the batched chaos
wire, :class:`~repro.sim.fast.chaos.batched.BatchedWire`, as
:attr:`FastEngine.wire`: the flush then takes the round's chunks from the
wire instead of the outbox, and the round's sends go onto the wire at its
end.  A wireless engine's ``wire`` is ``None``.

Equivalence to the reference engine is *distributional*, not draw-for-draw:
within a synchronous round all sends are staged for the next round, so
nodes do not interact mid-round and any per-node delivery order produced by
uniform keys is reachable by the reference scheduler's permutations with
equal probability.  The bit-exact twin of the reference round is a test
oracle (``tests/reference_mirror.py``); the differential tests pin both
(docs/PERF.md).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, cast

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF
from repro.sim.fast import buffers
from repro.sim.fast.buffers import (
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    Outbox,
    PreparedInbox,
    RoundInbox,
    _wave_check_enabled,
    stable_order,
)

# The round calls the flush stages through ``buffers`` (a wrapper installed
# there sees them); this name is the full-inbox composition the suite's
# traced run (benchmarks/suite/tracing.py) still wraps here.
from repro.sim.fast.buffers import build_inbox as build_inbox
from repro.sim.fast.heap import apply_heap_policy
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
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.fast.chaos.batched import BatchedWire

__all__ = [
    "FastEngine",
    "KERNEL_NAMES",
    "RoundPlan",
    "WaveFault",
    "receive_steps",
    "token_draws",
    "walk_cuts",
    "writer_rows",
]

#: Kernel name per message-type code (the dispatch table, docs/PERF.md).
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
    """Mark the rows of a delivery-ordered inbox that may store into their
    node this round.

    A superset, decided from the start-of-round state.  Every ``reslrl``
    and ``resring`` row counts.  A ``lin``/probe row stores only when it
    adopts its payload, adoption only moves ``l`` up and ``r`` down, and
    once a candidate ``c`` on the right has been handled ``r <= c`` holds
    whether it was adopted or not: so such a row can adopt only if its
    payload lies strictly inside the node's gap ``(l, r)`` on its side
    of the node's id (:func:`_gap_candidates`) *and* is strictly closer
    than every earlier such payload on that side — a strict prefix record
    in delivery order.  Candidates this does not see (a forgotten link, a
    replaced ring edge) only tighten the gap further.  A node's first
    candidate on a side is always a record, so a node's lone candidate
    always stores; :func:`receive_steps` leans on that and runs this only
    on the rows of nodes with two or more rows that may store.
    """
    tcode = inbox.tcode
    writer = (tcode == RESLRL) | (tcode == RESRING)
    idx = inbox.dest_idx.astype(np.intp)
    rows, right = _gap_candidates(idx, tcode, inbox.a, soa)
    if len(rows) == 0:
        return writer
    idx, a = idx[rows], inbox.a[rows]
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


def _gap_candidates(
    idx: np.ndarray, tcode: np.ndarray, a: np.ndarray, soa: SoAState
) -> tuple[np.ndarray, np.ndarray]:
    """The ``lin``/probe rows whose payload lies strictly inside their
    node's gap on its side, ascending, and whether that side is the right.

    Order-free: it reads each row and its node's start-of-round links
    only.  The side-aware test runs only on the rows whose payload lies
    strictly inside ``(min(l, id), max(r, id))`` of their node, two
    gathers over every row: a payload inside the gap on its side lies
    there whatever ``l``/``r`` hold, so the prefilter drops no row the
    test would keep.  *idx* are the rows' slots, widened to intp for the
    gathers (docs/PERF.md "Gather index dtype").
    """
    n = soa.size
    low = np.minimum(soa.l[:n], soa.ids[:n])
    high = np.maximum(soa.r[:n], soa.ids[:n])
    near = a > low[idx]
    near &= a < high[idx]
    rows = np.flatnonzero(near)
    del near, low, high
    idx, a, tcode = idx[rows], a[rows], tcode[rows]
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
    keep = np.flatnonzero(inside)
    return rows[keep], right[keep]


def receive_steps(
    pre: PreparedInbox, keys: np.ndarray, soa: SoAState, *, planned: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Each prepared row's dispatch step, the writer mask and the wave of
    each ``reslrl`` row, from the canonical rows and their delivery keys.

    A node takes its rows in ``(key, canonical position)`` order, and a
    row's step is ``2 * (writers before it in its node) + (is it a
    writer)``: ascending steps preserve what each row reads of its node.
    Without *planned* every row is a writer; with it the rows that may
    store are every ``reslrl`` and ``resring`` row and the gap candidates
    (:func:`_gap_candidates`).  A node with at most one of those is
    planned with one compare per row: that row is its one writer
    (a lone candidate is its side's first record, :func:`writer_rows`),
    step 1; any other row of the node is step 0 or 2 as its ``(key,
    position)`` falls before or after the writer's; and a ``reslrl``
    writer's wave is the number of its node's rows ahead of it.  That is
    exactly what the delivery order would give them.  Only the rows of
    nodes with two or more rows that may store are sorted into delivery
    order (:func:`~repro.sim.fast.buffers.finalize_inbox`), marked by
    :func:`writer_rows` (*planned*) and stepped by the segmented count;
    their ``reslrl`` rows take their delivery rank as wave.  Steps are
    int32, the mask is ``None`` without *planned*, waves are int32 in
    ``reslrl`` ordinal order.
    """
    count = len(pre)
    lo = pre.res_lo
    hi = lo + pre.n_res
    idx = pre.dest_idx.astype(np.intp)
    if planned:
        candidates, _ = _gap_candidates(idx, pre.tcode, pre.a, soa)
        may = np.concatenate(
            (np.flatnonzero(pre.tcode == RESRING), candidates, np.arange(lo, hi))
        )
        del candidates
    else:
        may = np.arange(count)
    node_of = idx[may]
    shared = np.bincount(node_of, minlength=soa.size) > 1
    alone = ~shared[node_of]
    lone, lone_slots = may[alone], node_of[alone]
    del may, node_of, alone
    sub = np.flatnonzero(shared[idx])
    del shared

    # One writer a node: every other row is before or after it.
    writer_key = np.full(soa.size, np.iinfo(np.int64).max, dtype=np.int64)
    writer_key[lone_slots] = keys[lone]
    near = writer_key[idx]
    after = keys > near
    ties = np.flatnonzero(keys == near)  # every writer, and equal keys
    del near, writer_key
    writer_row = np.zeros(soa.size, dtype=np.intp)
    writer_row[lone_slots] = lone
    after[ties] = ties > writer_row[idx[ties]]
    del ties, writer_row, idx
    writer = None
    wave = np.zeros(hi - lo, dtype=np.int32)
    if planned:
        writer = np.zeros(count, dtype=bool)
        writer[lone] = True
        # The reslrl block is the suffix and the rows before it are
        # slot-major (prepare_inbox's canonical order): a lone token's
        # node holds its other rows in one run there, and the token's wave
        # is the number of that run's rows not after it.
        single = pre.dest_idx[:lo]
        if lo:
            runs = np.flatnonzero(np.diff(single, prepend=-1))
            ahead = np.zeros(soa.size, dtype=np.int32)
            ahead[single[runs]] = np.diff(runs, append=lo) - np.add.reduceat(
                after[:lo], runs, dtype=np.int32
            )
            wave = ahead[pre.dest_idx[lo:hi]]
            del runs, ahead
        del single
    step = after.astype(np.int32)
    del after
    step <<= 1
    step[lone] = 1
    del lone, lone_slots

    # Two or more: the delivery order of those nodes' rows.
    if len(sub):
        first, end = np.searchsorted(sub, (lo, hi))
        res = sub[first:end] - lo
        ordered = buffers.finalize_inbox(
            PreparedInbox(
                dest_idx=pre.dest_idx[sub],
                tcode=pre.tcode[sub],
                a=pre.a[sub],
                b=pre.b[res],
                c=pre.c[res],
                n_res=len(res),
            ),
            keys[sub],
        )
        del res
        rows = sub[ordered.position]
        del sub
        marked = (
            writer_rows(ordered, soa)
            if planned
            else np.ones(len(rows), dtype=bool)
        )
        counted = np.cumsum(marked, dtype=np.int32)
        counted -= marked
        first_row = np.arange(len(rows), dtype=np.intp)
        first_row -= ordered.rank
        counted -= counted[first_row]
        counted *= 2
        counted += marked
        step[rows] = counted
        if writer is not None:
            writer[rows] = marked
        tokens = ordered.tcode == RESLRL
        wave[rows[tokens] - lo] = ordered.rank[tokens]
    if __debug__ and _wave_check_enabled():
        # What every storing kernel relies on: within one writer step
        # each destination slot appears at most once.
        stores = slice(None) if writer is None else writer
        packed = step[stores] * np.int64(int(pre.dest_idx.max()) + 1)
        packed += pre.dest_idx[stores]
        assert np.unique(packed).size == packed.size, (
            "writer precondition violated: a destination repeats "
            "within one writer step"
        )
    return step, writer, wave


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

    #: The round's rows in canonical order; group, walk and token rows are
    #: positions in it.
    inbox: PreparedInbox
    #: Dispatch units in dispatch order, their rows held as int32.
    groups: list[WaveGroup]
    #: Per inbox row, whether it may store; ``None`` is "every row may".
    writer: np.ndarray | None
    #: The token walk: the ``reslrl`` rows in draw order, and the wave each
    #: is drawn in (ascending) — its wave under the writer schedule, the
    #: position of its group among the dispatched ``reslrl`` groups
    #: otherwise.
    walk: np.ndarray
    walk_wave: np.ndarray
    #: The reslrl ordinal of each walk row (``ordinals(walk)``).
    walk_token: np.ndarray
    #: Waves at which a segment of the walk starts, the first excepted.
    cuts: np.ndarray
    #: The position of the inbox's first ``reslrl`` row: its ``reslrl``
    #: rows are one block, so a row's reslrl ordinal — which indexes
    #: ``inbox.b``/``inbox.c`` and the three token columns below — is its
    #: offset into it (:attr:`PreparedInbox.res_lo`).
    res_lo: int
    #: Per token: its slot and the slot's start-of-round ``lrl``.
    token_slots: np.ndarray
    token_lrl0: np.ndarray
    #: Per token: the ``lrl`` the walk recorded, and the link it forgot.
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

    def walk_rows(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """The walk rows of the waves ``[lo, hi)``, their waves and their
        reslrl ordinals."""
        first, end = np.searchsorted(self.walk_wave, (lo, hi))
        return (
            self.walk[first:end],
            self.walk_wave[first:end],
            self.walk_token[first:end],
        )

    def ordinals(self, rows: np.ndarray) -> np.ndarray:
        """The reslrl ordinals of the ``reslrl`` inbox *rows*."""
        return rows - self.res_lo


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

    def __init__(
        self,
        states: Iterable[NodeState] | SoAState,
        config: ProtocolConfig | None = None,
        *,
        keep_history: bool = False,
        sanitize: bool | None = None,
        stats: MessageStats | None = None,
        soa: SoAState | None = None,
        wire: bool = False,
        guard: "GuardPolicy | None" = None,
    ) -> None:
        """The engine runs over its own copy of *states* (reference
        states, or an id-sorted :class:`SoAState`;
        :meth:`SoAState.from_states`), unless *soa* hands it a ready
        container and *stats* a ready :class:`MessageStats`: it then runs
        over those borrowed objects (the sharded engine's cores all share
        one of each).  The first engine in a process sets its heap policy
        (:func:`repro.sim.fast.heap.apply_heap_policy`)."""
        apply_heap_policy()
        cfg = config or ProtocolConfig()
        if cfg.trace is not None:
            raise ValueError(
                "the batched engine does not support event tracing; "
                "use the reference engine for trace-based tests"
            )
        self.config = cfg
        self.soa = soa if soa is not None else SoAState.from_states(states)
        self.stats = stats or MessageStats(keep_history=keep_history)
        self.outbox = Outbox(self.stats)
        #: The batched chaos wire between outbox and inbox; ``None`` when
        #: wireless.
        self.wire: BatchedWire | None = None
        if wire or guard is not None:
            from repro.sim.fast.chaos.batched import BatchedWire

            self.wire = BatchedWire(guard)
            # The guard wraps rows and addresses acks by their sender: the
            # one reader of the origin column, so the one outbox staging it.
            self.outbox.keep_origin = True
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
        #: Adversarial wave-dispatch rewrite (``SchedulerFault``'s batched
        #: story); ``None`` keeps the canonical ascending dispatch order.
        self._wave_fault: WaveFault | None = None

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def execute_round(self, rng: np.random.Generator) -> None:
        """Advance the network by one synchronous round.

        With a wire, the round's chunks come off the wire and the round's
        sends go onto it at the end.
        """
        wire = self.wire
        if wire is None:
            chunks = self.outbox.take_all()
        else:
            chunks, lost = wire.deliver(self.soa)
            self.dropped += lost
        pre, dropped = buffers.prepare_inbox(chunks, self.soa.lookup)
        # Last round's staged arrays die here, not at the end of this round.
        del chunks
        self.dropped += dropped
        if pre is not None:
            keys = buffers.draw_delivery_keys(rng, len(pre))
            plan = self._plan_round(pre, keys)
            del pre, keys
            self._walk(plan, rng)
            self._run_groups(plan)
            # The regular action reads nothing of the round's inbox.
            del plan
        self._run_regular()
        self.outbox.flush_stats()
        if wire is not None:
            self.dropped += wire.send(self.outbox.take_all(), self.soa)

    def _plan_round(self, pre: PreparedInbox, keys: np.ndarray) -> RoundPlan:
        """Schedule the prepared rows *pre* under their delivery *keys*:
        writer mask, dispatch groups, token walk.

        One schedule, read off the engine once per round.  Writers are
        planned only where staging order cannot show: no
        :class:`WaveFault` rewrites the dispatch and no wire consumes the
        staged frames (its fault executors draw per frame).  Otherwise every
        row counts as a writer, which groups the inbox by ``(wave, type)``
        in delivery order; the token walk then takes its waves from the
        (rewritten) group list.  Neither reads *keys* afterwards.
        """
        fault = self._wave_fault
        planned = fault is None and self.wire is None
        step, writer, token_wave = receive_steps(pre, keys, self.soa, planned=planned)
        groups = self._wave_groups(step, pre.tcode)
        del step
        res_lo = pre.res_lo
        if fault is not None:
            groups, starved = fault.rewrite(groups)
            for code, rows in starved:
                self._defer_rows(code, pre, rows, res_lo)
        if writer is None:
            batches = [rows for code, rows in groups if code == RESLRL]
            walk = np.concatenate([np.empty(0, dtype=np.intp), *batches], dtype=np.intp)
            walk_wave = np.repeat(
                np.arange(len(batches)), [len(rows) for rows in batches]
            )
            walk_token = walk - res_lo
        else:
            # The draw order of a wave-by-wave dispatch: ascending waves,
            # slot order (the reslrl block's order) within a wave.
            top = int(token_wave.max()) if len(token_wave) else 0
            walk_token, walk_wave = stable_order(token_wave, top.bit_length())
            walk = walk_token + res_lo
        slots = pre.dest_idx[res_lo : res_lo + pre.n_res].astype(np.intp)
        return RoundPlan(
            inbox=pre,
            groups=groups,
            writer=writer,
            walk=walk,
            walk_wave=walk_wave,
            walk_token=walk_token,
            cuts=walk_cuts(pre.dest_idx[walk], walk_wave),
            res_lo=res_lo,
            token_slots=slots,
            token_lrl0=self.soa.lrl[slots],
            token_lrl=np.empty(pre.n_res, dtype=np.float64),
            token_forgot=np.empty(pre.n_res, dtype=np.float64),
        )

    @staticmethod
    def _wave_groups(step: np.ndarray, tcode: np.ndarray) -> list[WaveGroup]:
        """The round's dispatch units in canonical order: the rows grouped
        by ``(step, type)`` (:func:`receive_steps`), one sort of canonical
        positions.

        An odd step holds a node at most once; an even step is read-only,
        so a node may repeat in it, in canonical order.  Canonical order
        is slot-major within each type, so a writer group's rows come out
        slot-ascending: their delivery order, which is the order the group
        stages its sends in where every row is a writer.  *step* is
        consumed: the group key ``step * 8 + type`` is built in it.  The
        keys sort as int32 words (:func:`stable_order`) while the largest
        key present and the row positions fit 31 bits together.  The
        groups' rows are int32: the plan holds them through the round, and
        :meth:`_run_groups` widens each group as it dispatches it.
        """
        step *= 8
        step += tcode
        order, sorted_keys = stable_order(step, int(step.max()).bit_length(), np.int32)
        del step
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
            counts = self._segment(plan, lo, hi)
            ((coins, forget_u),) = token_draws(rng, counts[None])
            self._walk_tokens(plan, lo, hi, coins, forget_u)

    def _segment(self, plan: RoundPlan, lo: int, hi: int) -> np.ndarray:
        """Per wave of ``[lo, hi)``, how many of its walk rows are valid
        (``responder == lrl``).

        A segment walks each node at most once, so validity read up front
        is what each row sees at its turn.  With move-and-forget off no row
        is valid and nothing is drawn, as in the kernel.
        """
        rows, waves, _ = plan.walk_rows(lo, hi)
        inbox = plan.inbox
        idx = inbox.dest_idx[rows].astype(np.intp)
        if __debug__ and _wave_check_enabled():
            assert np.unique(idx).size == idx.size, (
                "a node repeats within one segment of the token walk"
            )
        valid = (inbox.a[rows] == self.soa.lrl[idx]) & self.kernels.maf
        return np.bincount(waves[valid] - lo, minlength=hi - lo)

    def _walk_tokens(
        self,
        plan: RoundPlan,
        lo: int,
        hi: int,
        coins: np.ndarray,
        forget_u: np.ndarray,
    ) -> None:
        """Step the tokens of the segment ``[lo, hi)`` with the coins
        :func:`token_draws` cut for it (the engine's own draw, or the
        sharded coordinator's); record what each row leaves."""
        inbox = plan.inbox
        rows, _, token = plan.walk_rows(lo, hi)
        idx = inbox.dest_idx[rows].astype(np.intp)
        plan.token_lrl[token], plan.token_forgot[token] = self._windowed(
            "move_forget",
            idx,
            False,
            self.kernels.move_forget,
            idx,
            inbox.a[rows],
            inbox.b[token],
            inbox.c[token],
            coins=coins,
            forget_u=forget_u,
        )

    def _run_groups(self, plan: RoundPlan) -> None:
        """Run the dispatch groups through their kernels, in order.

        First the walked ``lrl`` slots go back to their start-of-round
        values: each ``reslrl`` row stores what the walk recorded for it
        where it sits in its node's sequence, so the rows before it read
        what they would have read wave by wave.
        """
        self.soa.lrl[plan.token_slots] = plan.token_lrl0
        kernels = self.kernels
        inbox = plan.inbox
        writer = plan.writer
        for code, rows in plan.groups:
            rows = rows.astype(np.intp)  # held as int32 (_plan_round)
            idx = inbox.dest_idx[rows].astype(np.intp)
            if code == RESLRL:
                name = "place_token"
                token = plan.ordinals(rows)
                payload = (plan.token_lrl[token], plan.token_forgot[token])
            else:
                name = KERNEL_NAMES[code]
                payload = (inbox.a[rows],)
            read_only = writer is not None and not writer[rows[0]]
            self._windowed(
                name, idx, read_only, getattr(kernels, name), idx, *payload
            )

    def _regular_rows(self) -> np.ndarray:
        """Slots the regular action covers, ascending by identifier."""
        return self.soa.sorted_live()[1]

    def _run_regular(self) -> None:
        """One batched regular action over all live nodes."""
        live_idx = self._regular_rows()
        self._windowed(
            "regular_action",
            live_idx,
            False,
            self.kernels.regular_action,
            live_idx,
        )

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
        in the outbox, then on the wire — so a batch equals its one-element
        batches in that order.  Stored references are scrubbed in one
        ``isin`` pass, and tombstoned slots are reclaimed by round-boundary
        compaction once they dominate.  The whole batch is validated before
        any state changes.  Returns the departure count.
        """
        victims = leave_batch_victims(node_ids, self.soa)
        if len(victims) == 0:
            return 0
        self.soa.remove_batch(victims)
        self.dropped += self.outbox.drop_and_purge_batch(victims)
        if self.wire is not None:
            self.dropped += self.wire.depart(victims)
        self.soa.scrub_departed_many(victims)
        self.soa.maybe_compact()
        return len(victims)

    # ------------------------------------------------------------------
    # Wave-dispatch faults (SchedulerFault's batched story)
    # ------------------------------------------------------------------
    def set_wave_fault(self, fault: WaveFault | None) -> None:
        """Install (or clear, with ``None``) a wave-dispatch fault."""
        self._wave_fault = fault

    def _defer_rows(
        self, code: int, pre: PreparedInbox, rows: np.ndarray, res_lo: int
    ) -> None:
        """Push starved inbox rows back into the outbox, uncounted.

        The deferred rows re-enter next round's inbox exactly as if their
        senders' messages had arrived one round late; their original sends
        were already counted, so :meth:`Outbox.restage` skips the stats.
        A ``reslrl`` row takes its ids from its reslrl ordinal, its offset
        from *res_lo* (the ``reslrl`` block's first row).
        """
        rows = rows.astype(np.intp)
        dest = self.soa.ids[pre.dest_idx[rows].astype(np.intp)]
        a = pre.a[rows]
        if code == RESLRL:
            token = rows - res_lo
            self.outbox.restage(code, dest, a, pre.b[token], pre.c[token])
        else:
            self.outbox.restage(code, dest, a)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_total(self) -> int:
        """Total undelivered messages (staged + on the wire)."""
        wire = 0 if self.wire is None else self.wire.pending()
        return self.outbox.pending_total() + wire

    def in_flight_rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """``(dest, tcode, a, b, c)`` of every undelivered message of type
        *code* (every type when ``None``): the outbox's rows (the batched
        round drains its whole inbox), then the wire's."""
        rows = self.outbox.rows(code)
        if self.wire is None:
            return rows
        return tuple(
            np.concatenate(pair) for pair in zip(rows, self.wire.in_flight_rows(code))
        )

    def __repr__(self) -> str:
        return (
            f"FastEngine(n={len(self)}, pending={self.pending_total()}, "
            f"sent={self.stats.total})"
        )
