"""Reference oracles for the per-round flush and the serving hop kernel.

The comparison-sort bodies that :func:`repro.sim.fast.buffers.prepare_inbox`,
:func:`~repro.sim.fast.buffers.finalize_inbox`,
:meth:`repro.sim.fast.batched.FastEngine._wave_groups`,
:meth:`repro.sim.fast.buffers.Outbox._compact_code` and
:func:`repro.serve.routing.route_batch` had before the packed-key value
sorts and the table-driven hop loop replaced them.  They are kept here,
and only here, as the executable definition of "the same permutation a
stable sort of the same key yields" and of "hop-for-hop identical":
``tests/test_flush_reference.py`` requires the shipped functions to equal
them array-for-array, dtypes included.  Not collected by pytest (no
``test_`` prefix); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.serve.routing import NO_LINK, RouteResult, RouteView
from repro.sim.fast.buffers import (
    N_TYPES,
    RESLRL,
    PreparedInbox,
    RoundInbox,
    _col,
)

__all__ = [
    "compact_chunks_reference",
    "finalize_inbox_reference",
    "prepare_inbox_reference",
    "route_batch_reference",
    "wave_groups_reference",
]


def prepare_inbox_reference(
    chunks: list[list[tuple]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    *,
    dedup: bool,
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
    n_res = int((tcode == RESLRL).sum())

    if dedup:
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

    packed_ok = bool(len(dest_idx)) and int(dest_idx.max()) < (1 << 21)
    return (
        PreparedInbox(
            dest_idx=dest_idx.astype(np.int32, copy=False),
            tcode=tcode,
            a=a,
            b=b,
            c=c,
            n_res=n_res,
            packed_ok=packed_ok,
        ),
        dropped,
    )


def finalize_inbox_reference(pre: PreparedInbox, keys: np.ndarray) -> RoundInbox:
    """Stable ``argsort`` of ``dest << 42 | key`` / two-key ``lexsort``."""
    dest_idx = pre.dest_idx
    if keys.dtype == np.int64:
        packed = dest_idx.astype(np.int64) << np.int64(42)
        packed |= keys
        order = np.argsort(packed, kind="stable")
    else:
        order = np.lexsort((keys, dest_idx))
    dest_idx = dest_idx[order]
    tcode = pre.tcode[order]
    a, b, c = pre.a[order], pre.b[order], pre.c[order]

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
        b=b,
        c=c,
        rank=rank,
        n_waves=int(rank.max()) + 1,
    )


def wave_groups_reference(inbox: RoundInbox) -> list[tuple[int, np.ndarray]]:
    """Stable ``argsort`` of ``rank * 8 + tcode``."""
    group = inbox.rank.astype(np.int64) * 8 + inbox.tcode
    order = np.argsort(group, kind="stable")
    sorted_keys = group[order]
    starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = np.r_[starts[1:], len(sorted_keys)]
    return [
        (int(sorted_keys[lo] & 7), order[lo:hi]) for lo, hi in zip(starts, ends)
    ]


def compact_chunks_reference(code: int, chunks: list[tuple]) -> tuple:
    """One type's staged chunks coalesced by a stable ``lexsort`` on raw bits.

    Returns the single ``(dest, a, b, c, origin)`` chunk
    ``Outbox._compact_code`` leaves behind: rows in ascending key order,
    each the *first staged* copy of its duplicate group (so the surviving
    ``origin`` is staging-determined).
    """
    dest = np.concatenate([ch[0] for ch in chunks])
    a = np.concatenate([ch[1] for ch in chunks])
    if code == RESLRL:
        b = np.concatenate([_col(ch, 2, len(ch[0])) for ch in chunks])
        c = np.concatenate([_col(ch, 3, len(ch[0])) for ch in chunks])
        keys: tuple[np.ndarray, ...] = (
            np.ascontiguousarray(c).view(np.uint64),
            np.ascontiguousarray(b).view(np.uint64),
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(dest).view(np.uint64),
        )
    else:
        b = c = None
        keys = (
            np.ascontiguousarray(a).view(np.uint64),
            np.ascontiguousarray(dest).view(np.uint64),
        )
    order = np.lexsort(keys)
    sorted_keys = tuple(k[order] for k in keys)
    fresh = np.zeros(len(order), dtype=bool)
    fresh[0] = True
    for k in sorted_keys:
        fresh[1:] |= k[1:] != k[:-1]
    keep = order[fresh]
    origin = None
    if all(ch[4] is not None for ch in chunks):
        origin = np.concatenate([ch[4] for ch in chunks])[keep]
    return (
        dest[keep],
        a[keep],
        None if b is None else b[keep],
        None if c is None else c[keep],
        origin,
    )


def route_batch_reference(
    view: RouteView,
    source_ranks: np.ndarray,
    dest_ranks: np.ndarray,
    *,
    max_hops: int | None = None,
    collect_paths: bool = False,
) -> RouteResult:
    """The probr/probl walk, every rule re-evaluated per hop from the rank
    columns (Algorithms 5/6 as written, no precomputed tables)."""
    n = view.n
    src = np.asarray(source_ranks, dtype=np.int64)
    dst = np.asarray(dest_ranks, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("source and destination batches must align")
    k = len(src)
    hops = np.zeros(k, dtype=np.int64)
    ok = np.ones(k, dtype=bool)
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
        hops[active[stepped]] += 1
        keep = stepped & ~crossed
        cur[active[keep]] = nxt[keep]
        active = active[keep]
        arrived = cur[active] == dst[active]
        active = active[~arrived]
    if active.size:
        ok[active] = False
    return RouteResult(hops=hops, ok=ok, round_index=view.round_index, paths=paths)
