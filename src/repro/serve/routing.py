"""Probe-routing lookups over a live engine: snapshots + the hop kernel.

The serving layer answers ``probr``/``probl`` lookups (Algorithms 5/6)
against an overlay that is still converging in the background.  Two
pieces make that safe and fast:

:class:`RouteView`
    An immutable rank-space snapshot of the live SoA columns, published
    by the engine thread once per round boundary.  Publication borrows
    the engine's cached sorted-id array and its bucket table
    (:meth:`SoAState.sorted_live` and :meth:`SoAState.sorted_buckets`
    replace — never mutate — both on rebuild; every fast engine has
    exactly one ``SoAState``), resolves the ``l``/``r``/``lrl`` link
    columns to ranks with one probe of that table
    (:func:`repro.ids.bucket_probe`, the probe the engine's own
    ``SoAState.lookup`` makes), and compiles the two hop tables below
    from the ranks: O(n) array work per round, no per-node Python
    objects.  Serving a lookup copies nothing, and its target ids are
    resolved through the same table.  Handler threads read the current
    view through a single atomic attribute load, so a mid-round scrape
    can never see a half-written column.

:func:`route_batch`
    The vectorized probr/probl walk over one view.  The direction is
    fixed at query time (``dest > source`` routes right, Algorithm 5;
    otherwise left, Algorithm 6) and each hop applies the paper's rule:
    take the long-range link when it makes progress past the ring link
    without overshooting the destination, else take the ring link.  It is
    the one probe walker in the package: experiment E3 runs it over
    :meth:`RouteView.from_ranks` to measure Lemma 4.23's O(ln^(2+ε) d)
    expected hop bound on the stable line; mid-convergence, dead links,
    overshoots and non-progress are detected and reported as *lost*
    lookups, each with its reason, instead of hanging the request path.
    A walk runs on the doubled *reflected directed index* — ``d = n - 1 -
    rank`` going left, ``d = n + rank`` going right, stored as ``2d`` — so
    progress means a larger ``d`` in either direction.  The view compiles
    the half of the rule that does not depend on the destination into two
    tables over ``2d`` with one absorbing sentinel row, which a missing or
    self link leads to, so that arrived, crossed and stuck all read
    ``position >= goal``.  A hop is then four array calls whatever its
    direction, and which walks finished is looked at once per
    :data:`BLOCK` hops, from the positions the block kept.  Every
    numpy call the loop makes is a place where the interpreter lock
    changes hands with the engine thread (docs/SERVING.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ids import bucket_probe, bucket_table

__all__ = ["LOST_REASONS", "RouteView", "RouteResult", "hop_dtype", "route_batch"]

#: Rank sentinel for a link that is missing (±inf) or not live in the view.
NO_LINK = -1

#: Why a lost walk ended, by ``RouteResult.lost_reason`` code minus one:
#: 1 the link it took was ``NO_LINK``, 2 the link led back to the node
#: itself, 3 the step crossed the destination, 4 the hop cap ran out.
LOST_REASONS: tuple[str, ...] = ("no_link", "no_progress", "crossed", "hop_cap")
LOST_NO_LINK, LOST_NO_PROGRESS, LOST_CROSSED, LOST_HOP_CAP = 1, 2, 3, 4

#: Hops every walk takes between two looks at which walks have finished.
#: A walk that finishes inside a block steps on to the block's end (past
#: its goal, or on the sentinel row), and the block's kept positions —
#: ``BLOCK + 1`` words a walk — say where it finished.
BLOCK = 12


class RouteView:
    """One round's routing table: sorted live ids + link columns in rank space.

    Instances are frozen after construction and shared across handler
    threads without locks; the engine thread publishes a fresh view each
    round and readers pick it up on their next attribute load.
    """

    __slots__ = (
        "ids", "l_rank", "r_rank", "lrl_rank", "round_index", "buckets", "bound", "step"
    )

    def __init__(
        self,
        ids: np.ndarray,
        l_rank: np.ndarray,
        r_rank: np.ndarray,
        lrl_rank: np.ndarray,
        round_index: int,
        buckets: np.ndarray | None = None,
    ) -> None:
        self.ids = ids
        self.l_rank = l_rank
        self.r_rank = r_rank
        self.lrl_rank = lrl_rank
        self.round_index = round_index
        #: The :func:`~repro.ids.bucket_table` over ``ids`` that
        #: :meth:`resolve` probes: borrowed from the engine when published,
        #: built on the first resolve otherwise.
        self.buckets = buckets
        n = len(ids)
        # Both tables are indexed by the doubled reflected directed index
        # 2d: the leftward rows (d = n - 1 - rank) read the rank columns
        # reversed, the rightward rows (d = n + rank) read them as they
        # are, and row d = 2n is the sentinel.  ``step[2d + take]`` is the
        # ring successor (take = 0) or the lrl successor (take = 1) as a
        # doubled index.  A missing link, or a link to the node itself,
        # leads to the sentinel, which leads only to itself: a stuck walk
        # then stands past every goal, as an arrived or crossed one does.
        links = np.stack((l_rank, r_rank, lrl_rank), dtype=np.int64)
        home = (links == NO_LINK) | (links == np.arange(n))
        succ = np.concatenate(((n - 1) - links[::2, ::-1], n + links[1:]), axis=1)
        stuck = np.concatenate((home[::2, ::-1], home[1:]), axis=1)
        step = np.hstack((np.where(stuck, 2 * n, succ), np.full((2, 1), 2 * n)))
        self.step = 2 * step.T.ravel()
        # Algorithms 5/6 follow lrl iff dest >= lrl > r (rightward) or
        # dest <= lrl < l (leftward).  The second inequality does not
        # depend on the destination: ``bound[2d]`` holds lrl as a doubled
        # index where it holds and 4n, which no doubled goal reaches, where
        # it fails (and on the sentinel), so the test per hop is
        # ``goal >= bound[2d]``; ``bound[2d + 1]`` repeats it.  A missing
        # ring link passes the inequality and a dead lrl fails it, so
        # NO_LINK has to lie behind the walk: below every rank rightwards,
        # as it is, and above every rank leftwards, where the ranks are
        # compared unsigned.
        unsigned = links.view(np.uint64)
        shortcut = np.concatenate(
            ((unsigned[2] < unsigned[0])[::-1], links[2] > links[1])
        )
        bound = np.append(np.where(shortcut, succ[1], 2 * n), 2 * n)
        self.bound = np.repeat(2 * bound, 2)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n(self) -> int:
        """Number of live nodes in the snapshot."""
        return len(self.ids)

    @classmethod
    def from_engine(cls, engine: Any, round_index: int) -> "RouteView":
        """Snapshot *engine*'s live columns (engine-thread only).

        Must run at a round boundary on the thread that owns the engine:
        the gathers below read the real ``SoAState`` columns (the
        sanitizer's recording proxies only wrap kernel dispatch, so this
        is sanitizer-clean by construction).  The id array and its bucket
        table are borrowed from the engine's sorted cache; only the three
        link columns are gathered, once, into rank space.
        """
        soa = engine.soa
        ids, idx = soa.sorted_live()
        return cls._from_links(
            ids, soa.l[idx], soa.r[idx], soa.lrl[idx], round_index, soa.sorted_buckets()
        )

    @classmethod
    def from_states(cls, states: Any, round_index: int = 0) -> "RouteView":
        """Build a view from :class:`NodeState` objects or ``StateTuple``
        rows (an iterable, or a mapping such as ``Network.states()`` or a
        host's ``state_snapshot()``): how greedy routing and experiment E22
        read any host's overlay, the reference one included.
        """
        if isinstance(states, Mapping):
            states = states.values()
        rows = sorted(s if isinstance(s, tuple) else s.as_tuple() for s in states)
        ids, l, r, lrl = (
            np.asarray([row[k] for row in rows], dtype=np.float64) for k in range(4)
        )
        return cls._from_links(ids, l, r, lrl, round_index, bucket_table(ids))

    @classmethod
    def from_ranks(cls, lrl_rank: np.ndarray) -> "RouteView":
        """The stable line over ranks ``0..n-1`` with the given long-range
        link ranks: ids are the ranks, ``l = rank - 1`` and ``r = rank + 1``,
        ``NO_LINK`` past either end.  A long-range rank other than
        ``NO_LINK`` outside ``[0, n)`` raises ``ValueError``."""
        lrl_rank = np.asarray(lrl_rank, dtype=np.int64)
        n = len(lrl_rank)
        if np.any((lrl_rank != NO_LINK) & ((lrl_rank < 0) | (lrl_rank >= n))):
            raise ValueError("lrl ranks must lie in [0, n)")
        rank = np.arange(n, dtype=np.int64)
        r_rank = rank + 1
        r_rank[-1:] = NO_LINK
        return cls(rank.astype(np.float64), rank - 1, r_rank, lrl_rank, 0)

    @classmethod
    def _from_links(
        cls,
        ids: np.ndarray,
        l: np.ndarray,
        r: np.ndarray,
        lrl: np.ndarray,
        round_index: int,
        buckets: np.ndarray,
    ) -> "RouteView":
        """Compress the link-id columns to ranks with one probe of the
        ids' bucket table (±inf and dead links fall to ``NO_LINK``)."""
        n = len(ids)
        ranks = _ranks(ids, buckets, np.concatenate((l, r, lrl)))
        return cls(ids, ranks[:n], ranks[n : 2 * n], ranks[2 * n :], round_index, buckets)

    def resolve(self, query_ids: np.ndarray) -> np.ndarray:
        """Ranks of arbitrary ids in this view (``NO_LINK`` when not live)."""
        if self.buckets is None:
            # Two readers may both build it; either table is the same.
            self.buckets = bucket_table(self.ids)
        return _ranks(self.ids, self.buckets, np.asarray(query_ids, dtype=np.float64))


def _ranks(ids: np.ndarray, buckets: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Positions of *x* in the sorted *ids* (int64), ``NO_LINK`` when absent."""
    pos, found = bucket_probe(ids, buckets, x)
    pos[~found] = NO_LINK
    return pos


def _hop_cap(n: int, max_hops: int | None) -> int:
    if max_hops is not None and max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    return max_hops if max_hops is not None else n + 16


_HOP_DTYPES = tuple((np.iinfo(t).max, np.dtype(t)) for t in (np.int8, np.int16, np.int32))


def hop_dtype(n: int, max_hops: int | None = None) -> np.dtype:
    """The dtype of :func:`route_batch`'s hop counts over *n* live nodes:
    the narrowest signed integer that holds ``cap + 1``, so a caller that
    adds the origin's forced hop (Algorithm 10) cannot wrap it.  That is
    int16 at the default cap ``n + 16`` while n ≤ 32 750."""
    top = _hop_cap(n, max_hops) + 1
    for most, dtype in _HOP_DTYPES:
        if top <= most:
            return dtype
    return np.dtype(np.int64)


@dataclass
class RouteResult:
    """Outcome of one :func:`route_batch` call.

    ``hops[i]`` counts edges walked for query *i*, in :func:`hop_dtype`;
    ``ok[i]`` is True when the walk reached the destination (lost lookups
    keep the hops walked before the route died, which the SLO accounting
    reports separately).  ``lost_reason[i]`` (uint8) is 0 unless the walk
    was lost, else one plus its index in :data:`LOST_REASONS`.
    ``paths`` holds the full id trace per query when requested.
    """

    hops: np.ndarray
    ok: np.ndarray
    lost_reason: np.ndarray
    round_index: int
    paths: list[list[float]] | None = None


def route_batch(
    view: RouteView,
    source_ranks: np.ndarray,
    dest_ranks: np.ndarray,
    *,
    max_hops: int | None = None,
    collect_paths: bool = False,
) -> RouteResult:
    """Walk every (source, dest) query over *view* with probr/probl rules.

    *source_ranks*/*dest_ranks* are positions in ``view.ids`` (from
    :meth:`RouteView.resolve`); entries outside ``[0, n)`` never start:
    not ok, with no lost reason (the service counts them as unknown).  The
    walk direction is fixed per query at the start; each hop prefers the
    long-range link when it advances past the ring link without
    overshooting (Algorithms 5/6; the origin's forced ring hop of
    Algorithm 10 is the caller's).  A query is lost when the link it takes
    is missing, makes no progress, or crosses the destination (possible
    only mid-convergence), or when *max_hops* (default ``n + 16``;
    negative is refused) runs out; ``lost_reason`` says which.
    """
    n = view.n
    src = np.asarray(source_ranks, dtype=np.int64)
    dst = np.asarray(dest_ranks, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("source and destination batches must align")
    cap = _hop_cap(n, max_hops)
    # Compared unsigned, a negative rank lies past n like a large one.
    valid = (src.view(np.uint64) < n) & (dst.view(np.uint64) < n)
    hops = np.zeros(len(src), dtype=hop_dtype(n, max_hops))
    ok = valid.copy()
    lost_reason = np.zeros(len(src), dtype=np.uint8)
    paths: list[list[float]] | None = None
    if collect_paths:
        paths = [
            [float(view.ids[s])] if v else []
            for s, v in zip(src.tolist(), valid.tolist())
        ]
    # The walking queries and their goals stay compacted together, as
    # doubled reflected indices 2d; a walk ends at or past its goal.
    # Rank r is row d = n + r going right and n + ~r = n - 1 - r going
    # left.
    query = np.flatnonzero(valid & (src != dst))
    ends = np.stack((src[query], dst[query]))
    ends = np.where(ends[1] > ends[0], ends, ~ends)
    ends += n
    ends <<= 1
    begin, goal = ends
    walks, goals = query, goal
    # Where each walk ended: its goal when it arrived, past it when it
    # crossed, the row it could not leave when it was stuck, -1 while it
    # walks on.  Everything else a walk's end decides is read from it
    # after the loop.
    last = np.full(len(src), -1, dtype=np.int64)
    m = width = len(query)
    # The block's kept positions, one row per hop, row 0 where it began:
    # ``flat[r * width + i]`` is row r of the i-th walk still going.
    trail = np.empty((BLOCK + 1, width), dtype=np.intp)
    trail[0] = begin
    flat = trail.ravel()
    row_start = np.arange(BLOCK + 1) * width
    took = np.empty(width, dtype=bool)
    at = np.empty(width, dtype=np.intp)
    bound, step, sentinel = view.bound, view.step, 4 * n
    hop = 0
    while m and hop < cap:
        span = min(BLOCK, cap - hop)
        block = trail[: span + 1, :m]
        tk, nx = took[:m], at[:m]
        for k in range(span):
            here = block[k]
            np.greater_equal(goal, bound[here], out=tk)
            np.add(here, tk, out=nx)
            block[k + 1] = step[nx]
        # A walk finished in this block iff it stood at or past its goal
        # at some hop: the first such position is its end, or the one
        # before when that is the sentinel (no step taken).  Every gather
        # here is one-dimensional, as a 2-D one gives up the interpreter
        # lock however small it is.
        walked = block[1:]
        going = np.maximum.reduce(walked) < goal
        left = np.count_nonzero(going)
        if left < m:
            done = np.logical_not(going).nonzero()[0]
            # The finished walks' positions in this block, a row each; row
            # 0 of the block is short of every goal, so ``first`` >= 1.
            seen = flat[done[:, None] + row_start[: span + 1]]
            first = (seen >= goal[done][:, None]).argmax(axis=1)
            cell = first * width + done
            there = flat[cell]
            stuck = there == sentinel
            taken = first - stuck
            finished = query[done]
            last[finished] = np.where(stuck, flat[cell - width], there)
            hops[finished] = hop + taken
        if paths is not None:
            count = np.full(m, span)
            if left < m:
                count[done] = taken
            _extend_paths(paths, view, query, walked, count)
        hop += span
        if left == m:
            trail[0, :m] = walked[-1]
        elif left:
            query, goal = query[going], goal[going]
            trail[0, :left] = walked[-1][going]
        else:
            query = query[:0]
        m = left
    hops[query] = hop
    end = last[walks]
    ok[walks] = end == goals
    lost = end != goals
    if lost.any():
        lost_reason[walks[lost]] = _lost_reasons(view, end[lost], goals[lost])
    return RouteResult(
        hops=hops,
        ok=ok,
        lost_reason=lost_reason,
        round_index=view.round_index,
        paths=paths,
    )


def _extend_paths(
    paths: list[list[float]],
    view: RouteView,
    query: np.ndarray,
    walked: np.ndarray,
    count: np.ndarray,
) -> None:
    """Append to each walk's path the ids of the first ``count`` positions
    it *walked* in a block (the sentinel is never among them)."""
    n = view.n
    d = walked >> 1
    rank = np.where(d < n, (n - 1) - d, d - n)
    ids = view.ids[np.minimum(rank, n - 1)]
    for qi, row, c in zip(query.tolist(), ids.T.tolist(), count.tolist()):
        paths[qi].extend(row[:c])


def _lost_reasons(view: RouteView, end: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Reason codes of walks lost at the doubled reflected indices *end*
    on their way to *goal*: -1 is a walk the cap stopped, an end past the
    goal crossed it, and one short of it is the row a stuck walk could not
    leave, over a link that is missing or leads back to the node
    (``step`` maps both to the sentinel).  ``bound`` never takes a missing
    long-range link, so a missing link is a ring link the row's ``bound``
    did not pass, read from the rank columns."""
    n = view.n
    at = np.maximum(end, 0)
    d = at >> 1
    left = d < n
    rank = np.where(left, (n - 1) - d, d - n)
    ring = np.where(left, view.l_rank[rank], view.r_rank[rank])
    missing = (goal < view.bound[at]) & (ring == NO_LINK)
    reason = np.where(missing, LOST_NO_LINK, LOST_NO_PROGRESS)
    reason[end > goal] = LOST_CROSSED
    reason[end < 0] = LOST_HOP_CAP
    return reason.astype(np.uint8)
