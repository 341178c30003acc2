"""Reference oracles for the per-round flush, the membership purge and the
serving hop kernel.

The comparison-sort bodies that :func:`repro.sim.fast.buffers.prepare_inbox`,
:func:`~repro.sim.fast.buffers.finalize_inbox`, the dispatch grouping of
the batched round (:func:`repro.sim.fast.batched.receive_steps`, over a
whole delivery-ordered inbox) and
:func:`repro.serve.routing.route_batch` had before the packed-key value
sorts and the table-driven hop loop replaced them.  They are kept here,
and only here, as the executable definition of "the same permutation a
stable sort of the same key yields" and of "hop-for-hop identical":
``tests/test_flush_reference.py`` requires the shipped functions to equal
them array-for-array, dtypes included (the hop counts aside: the oracle
keeps them in int64, ``route_batch`` in its narrower ``hop_dtype``).  The
flush oracles compute ``b``/``c`` at full length, ``0.0`` off ``reslrl``,
as the flush once did, and convert at their edges to the shipped layout,
where ``b``/``c`` hold the ``reslrl`` rows only (:func:`full_length`,
:func:`reslrl_only`).

Beside them, the writer mask of the batched round before its payload
prefilter (``tests/test_index_dtypes.py``), and the per-node departure
purges the SoA engines had before every ``leave`` became a departure
batch of one — outbox, chaos wire and
guard, one victim at a time: the executable definition of the ``d <= m``
rule of :func:`repro.sim.fast.buffers.departure_sweep`
(``tests/test_departure_sweep.py``).  And the token walk as it ran before
it went by segments — one ``move_forget`` call per wave of ``reslrl``
rows, each with its own draw — the definition of the draw order
:func:`repro.sim.fast.batched.token_draws` cuts from one draw
(``tests/test_token_walk.py``).  Not collected by pytest (no ``test_``
prefix); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.serve.routing import (
    LOST_CROSSED,
    LOST_HOP_CAP,
    LOST_NO_LINK,
    LOST_NO_PROGRESS,
    NO_LINK,
    RouteResult,
    RouteView,
)
from repro.sim.fast.buffers import (
    LIN,
    N_TYPES,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    PreparedInbox,
    RoundInbox,
    _col,
)
from repro.sim.fast.chaos.batched import BatchedGuard
from repro.sim.fast.chaos.wire import KIND_ACK, WireRows

__all__ = [
    "finalize_inbox_reference",
    "full_length",
    "leave_guard_reference",
    "leave_outbox_reference",
    "leave_wire_reference",
    "prepare_inbox_reference",
    "reslrl_only",
    "route_batch_reference",
    "walk_tokens_reference",
    "wave_groups_reference",
    "writer_rows_reference",
]


def full_length(tcode: np.ndarray, column: np.ndarray) -> np.ndarray:
    """A ``reslrl``-only column (aligned with ``flatnonzero(tcode ==
    RESLRL)``) at full length, the ``0.0`` filler on every other row."""
    res = tcode == RESLRL
    assert int(res.sum()) == len(column), "one entry per reslrl row"
    out = np.zeros(len(tcode), dtype=np.float64)
    out[res] = column
    return out


def reslrl_only(tcode: np.ndarray, column: np.ndarray) -> np.ndarray:
    """A full-length column's ``reslrl`` rows, in row order."""
    return column[tcode == RESLRL]


def prepare_inbox_reference(
    chunks: list[list[tuple]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[PreparedInbox | None, int]:
    """Type-ascending staging, then a stable ``lexsort`` dedup per block."""
    dests: list[np.ndarray] = []
    cols_a: list[np.ndarray] = []
    per_code_counts = np.zeros(N_TYPES, dtype=np.int64)
    reslrl_b: list[np.ndarray] = []
    reslrl_c: list[np.ndarray] = []
    for code, per_type in enumerate(chunks):
        for ch in per_type:
            per_code_counts[code] += len(ch[0])
            dests.append(ch[0])
            cols_a.append(ch[1])
            if code == RESLRL:
                count = len(ch[0])
                reslrl_b.append(_col(ch, 2, count))
                reslrl_c.append(_col(ch, 3, count))
    if not dests:
        return None, 0
    total = int(per_code_counts.sum())
    dest_id = np.concatenate(dests)
    a = np.concatenate(cols_a)
    b = np.zeros(total, dtype=np.float64)
    c = np.zeros(total, dtype=np.float64)
    tcode = np.repeat(np.arange(N_TYPES, dtype=np.int8), per_code_counts)
    if reslrl_b:
        lo = int(per_code_counts[:RESLRL].sum())
        hi = lo + int(per_code_counts[RESLRL])
        b[lo:hi] = np.concatenate(reslrl_b)
        c[lo:hi] = np.concatenate(reslrl_c)

    dest_idx, found = lookup(dest_id)
    dropped = int(len(found) - found.sum())
    if dropped:
        dest_idx = dest_idx[found]
        tcode = tcode[found]
        a, b, c = a[found], b[found], c[found]
    if len(dest_idx) == 0:
        return None, dropped

    head = dest_idx.astype(np.int64) * np.int64(N_TYPES + 1) + tcode
    a_bits = np.ascontiguousarray(a).view(np.uint64)
    lo = int(np.searchsorted(tcode, RESLRL, side="left"))
    hi = int(np.searchsorted(tcode, RESLRL, side="right"))
    keep_chunks = []
    for rows, keys_of_rows in (
        (
            np.concatenate((np.arange(lo), np.arange(hi, len(head)))),
            lambda rows: (a_bits[rows], head[rows]),
        ),
        (
            np.arange(lo, hi),
            lambda rows: (
                np.ascontiguousarray(c[rows]).view(np.uint64),
                np.ascontiguousarray(b[rows]).view(np.uint64),
                a_bits[rows],
                head[rows],
            ),
        ),
    ):
        if len(rows) == 0:
            continue
        sort_keys = keys_of_rows(rows)
        row_order = np.lexsort(sort_keys)
        sorted_keys = tuple(k[row_order] for k in sort_keys)
        fresh = np.zeros(len(rows), dtype=bool)
        fresh[0] = True
        for k in sorted_keys:
            fresh[1:] |= k[1:] != k[:-1]
        keep_chunks.append(rows[row_order[fresh]])
    unique_pos = np.concatenate(keep_chunks)
    dest_idx = dest_idx[unique_pos]
    tcode = tcode[unique_pos]
    a, b, c = a[unique_pos], b[unique_pos], c[unique_pos]
    n_res = len(keep_chunks[-1]) if hi > lo else 0

    return (
        PreparedInbox(
            dest_idx=dest_idx.astype(np.int32, copy=False),
            tcode=tcode,
            a=a,
            b=reslrl_only(tcode, b),
            c=reslrl_only(tcode, c),
            n_res=n_res,
        ),
        dropped,
    )


def finalize_inbox_reference(pre: PreparedInbox, keys: np.ndarray) -> RoundInbox:
    """The stable two-key ``lexsort`` by ``(dest, key)``, at any slot count."""
    dest_idx = pre.dest_idx
    order = np.lexsort((keys, dest_idx))
    dest_idx = dest_idx[order]
    tcode = pre.tcode[order]
    a = pre.a[order]
    b = full_length(pre.tcode, pre.b)[order]
    c = full_length(pre.tcode, pre.c)[order]

    count = len(dest_idx)
    positions = np.arange(count, dtype=np.int32)
    boundary = np.empty(count, dtype=bool)
    boundary[0] = True
    boundary[1:] = dest_idx[1:] != dest_idx[:-1]
    segment_start = np.maximum.accumulate(np.where(boundary, positions, 0))
    rank = positions - segment_start
    return RoundInbox(
        dest_idx=dest_idx,
        tcode=tcode,
        a=a,
        b=reslrl_only(tcode, b),
        c=reslrl_only(tcode, c),
        rank=rank,
        n_waves=int(rank.max()) + 1,
        position=order,
    )


def wave_groups_reference(
    inbox: RoundInbox, writer: np.ndarray | None = None
) -> list[tuple[int, np.ndarray]]:
    """Stable ``argsort`` of ``step * 8 + tcode`` over the delivery-ordered
    *inbox*; the rows int32, as the engine's plan holds them.

    A row's step is ``2 * (writers before it in its node) + (is it a
    writer)``, counted row by row; without *writer* every row is one, and
    the step orders as the wave rank.
    """
    if writer is None:
        writer = np.ones(len(inbox), dtype=bool)
    step = np.zeros(len(inbox), dtype=np.int64)
    before = 0
    for row in range(len(inbox)):
        if inbox.rank[row] == 0:
            before = 0
        step[row] = 2 * before + int(writer[row])
        before += int(writer[row])
    group = step * 8 + inbox.tcode
    order = np.argsort(group, kind="stable").astype(np.int32)
    sorted_keys = group[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], len(sorted_keys)]
    return [
        (int(sorted_keys[lo] & 7), order[lo:hi]) for lo, hi in zip(starts, ends)
    ]


def writer_rows_reference(inbox: RoundInbox, soa) -> np.ndarray:
    """:func:`repro.sim.fast.batched.writer_rows` before its payload
    prefilter: the side-aware gap test on every row of the inbox."""
    tcode = inbox.tcode
    idx = inbox.dest_idx
    a = inbox.a
    writer = (tcode == RESLRL) | (tcode == RESRING)
    own = soa.ids[idx]
    right = a > own
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
    sel = np.concatenate((np.flatnonzero(right), np.flatnonzero(~right)))
    closeness = np.unique(np.where(right, a, -a)[sel], return_inverse=True)[1]
    nodes = int(idx[-1]) + 1
    head = (nodes * right[sel] + (nodes - 1)) - idx[sel]
    packed = (head << np.int64(len(sel).bit_length())) | closeness
    record = np.ones(len(sel), dtype=bool)
    np.less(packed[1:], np.minimum.accumulate(packed)[:-1], out=record[1:])
    writer[rows[sel[record]]] = True
    return writer


def walk_tokens_reference(engine, plan, rng: np.random.Generator) -> None:
    """``FastEngine``'s token walk one wave at a time.

    The waves are the ``reslrl`` groups of the dispatch list where every
    row is a writer, else the walk's rows by wave (their delivery ranks,
    which ``tests/test_flush_reference.py`` holds against
    :func:`finalize_inbox_reference`); each is one ``move_forget`` call
    that filters validity against the walk so far, with the wave's own
    draw: ``random(valid)`` direction coins, then ``random(valid)``
    forget coins, ``valid`` the wave's rows whose responder is their
    node's ``lrl`` (none without move-and-forget).
    """
    inbox = plan.inbox
    if plan.writer is None:
        batches = [rows for code, rows in plan.groups if code == RESLRL]
    else:
        waves = plan.walk_wave
        cuts = np.flatnonzero(waves[1:] != waves[:-1]) + 1
        batches = np.split(plan.walk, cuts) if len(waves) else []
    kernel = engine.kernels.move_forget
    b = full_length(inbox.tcode, inbox.b)
    c = full_length(inbox.tcode, inbox.c)
    token_lrl = np.empty(len(inbox), dtype=np.float64)
    token_forgot = np.empty(len(inbox), dtype=np.float64)
    for rows in batches:
        idx = inbox.dest_idx[rows]
        valid = (inbox.a[rows] == engine.soa.lrl[idx]) & engine.kernels.maf
        count = int(np.count_nonzero(valid))
        coins = rng.random(count)
        forget_u = rng.random(count)
        token_lrl[rows], token_forgot[rows] = engine._windowed(
            "move_forget", idx, False, kernel,
            idx, inbox.a[rows], b[rows], c[rows],
            coins=coins, forget_u=forget_u,
        )
    plan.token_lrl[:] = reslrl_only(inbox.tcode, token_lrl)
    plan.token_forgot[:] = reslrl_only(inbox.tcode, token_forgot)


def route_batch_reference(
    view: RouteView,
    source_ranks: np.ndarray,
    dest_ranks: np.ndarray,
    *,
    max_hops: int | None = None,
    collect_paths: bool = False,
) -> RouteResult:
    """The probr/probl walk, every rule re-evaluated per hop from the rank
    columns (Algorithms 5/6 as written, no precomputed tables), hop counts
    in int64 and each lost walk's reason read off the link it took."""
    n = view.n
    src = np.asarray(source_ranks, dtype=np.int64)
    dst = np.asarray(dest_ranks, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("source and destination batches must align")
    k = len(src)
    hops = np.zeros(k, dtype=np.int64)
    ok = np.ones(k, dtype=bool)
    lost_reason = np.zeros(k, dtype=np.uint8)
    cap = max_hops if max_hops is not None else n + 16
    valid = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    ok &= valid
    paths: list[list[float]] | None = None
    if collect_paths:
        paths = [
            [float(view.ids[s])] if v else []
            for s, v in zip(src.tolist(), valid.tolist())
        ]
    cur = np.where(valid, src, 0).astype(np.int64)
    right = dst > cur
    active = np.flatnonzero(valid & (cur != dst))
    for _ in range(cap):
        if active.size == 0:
            break
        c = cur[active]
        t = dst[active]
        rgt = right[active]
        ring = np.where(rgt, view.r_rank[c], view.l_rank[c])
        sc = view.lrl_rank[c]
        sc_ok = sc != NO_LINK
        ring_ok = ring != NO_LINK
        # Algorithm 5 (rightward): follow lrl iff dest >= lrl > r;
        # Algorithm 6 (leftward): follow lrl iff dest <= lrl < l.
        use_sc = np.where(
            rgt,
            sc_ok & (t >= sc) & (~ring_ok | (sc > ring)),
            sc_ok & (t <= sc) & (~ring_ok | (sc < ring)),
        )
        nxt = np.where(use_sc, sc, ring)
        # Mid-convergence hazards: no link at all, a self-loop that makes
        # no progress, or a ring step that crosses the destination.
        lost = (nxt == NO_LINK) | (nxt == c)
        stepped = ~lost
        crossed = stepped & np.where(rgt, nxt > t, nxt < t)
        lost |= crossed
        if paths is not None:
            for qi, rank, fine in zip(
                active.tolist(), nxt.tolist(), stepped.tolist()
            ):
                if fine:
                    paths[qi].append(float(view.ids[rank]))
        if lost.any():
            ok[active[lost]] = False
            lost_reason[active[nxt == NO_LINK]] = LOST_NO_LINK
            lost_reason[active[nxt == c]] = LOST_NO_PROGRESS
            lost_reason[active[crossed]] = LOST_CROSSED
        hops[active[stepped]] += 1
        keep = stepped & ~crossed
        cur[active[keep]] = nxt[keep]
        active = active[keep]
        arrived = cur[active] == dst[active]
        active = active[~arrived]
    if active.size:
        ok[active] = False
        lost_reason[active] = LOST_HOP_CAP
    return RouteResult(
        hops=hops,
        ok=ok,
        lost_reason=lost_reason,
        round_index=view.round_index,
        paths=paths,
    )


# ----------------------------------------------------------------------
# The per-victim departure purges (one ``leave`` at a time)
# ----------------------------------------------------------------------
def _filter_chunks(
    chunks: list[list[tuple]], keep_of_chunk: Callable[[int, tuple], np.ndarray]
) -> int:
    """``Outbox._filter``: keep each chunk's rows where *keep_of_chunk*
    says so, in place; returns how many rows went."""
    removed = 0
    for code, per_type in enumerate(chunks):
        fresh = []
        for ch in per_type:
            keep = keep_of_chunk(code, ch)
            removed += len(ch[0]) - int(keep.sum())
            if keep.any():
                fresh.append(tuple(None if col is None else col[keep] for col in ch))
        chunks[code] = fresh
    return removed


def drop_dest_reference(chunks: list[list[tuple]], nid: float) -> int:
    """``Outbox.drop_dest``: drop staged rows addressed to *nid*."""
    return _filter_chunks(chunks, lambda code, ch: ch[0] != nid)


def purge_mentions_reference(chunks: list[list[tuple]], nid: float) -> int:
    """``Outbox.purge_mentions``: drop staged rows whose payload names *nid*."""

    def keep(code: int, ch: tuple) -> np.ndarray:
        hit = ch[1] == nid
        if code == RESLRL and ch[2] is not None and ch[3] is not None:
            hit = hit | (ch[2] == nid) | (ch[3] == nid)
        return ~hit

    return _filter_chunks(chunks, keep)


def leave_outbox_reference(chunks: list[list[tuple]], victims: np.ndarray) -> int:
    """The scalar ``FastEngine.leave`` purge of staged *chunks*, victim by
    victim in ascending order; returns the counted destination drops."""
    counted = 0
    for nid in np.sort(victims).tolist():
        counted += drop_dest_reference(chunks, nid)
        purge_mentions_reference(chunks, nid)
    return counted


def leave_wire_reference(wire: WireRows, node_id: float) -> tuple[WireRows, int]:
    """The batched wire's purge of one scalar ``leave`` victim:
    frames to it die counted, frames naming it uncounted, acks stay."""
    doomed = (wire.dest == node_id) & (wire.kind != KIND_ACK)
    wire = wire.take(~doomed)
    mention = wire.a == node_id
    lrl = wire.tcode == RESLRL
    if lrl.any():
        mention = mention | (lrl & ((wire.b == node_id) | (wire.c == node_id)))
    return wire.take(~((wire.kind != KIND_ACK) & mention)), int(doomed.sum())


def leave_guard_reference(guard: BatchedGuard, node_id: float) -> None:
    """``BatchedGuard.drop_for_destination`` then ``drop_mentioning``: a
    pending row for the victim is abandoned (counted), one naming it dies."""
    hit = guard.alive & (guard.dest == node_id)
    guard.stats.abandoned += int(hit.sum())
    guard.alive[hit] = False
    mention = (guard.a == node_id) | (
        (guard.tcode == RESLRL) & ((guard.b == node_id) | (guard.c == node_id))
    )
    guard.alive[guard.alive & mention] = False
