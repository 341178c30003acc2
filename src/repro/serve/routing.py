"""Probe-routing lookups over a live engine: snapshots + the hop kernel.

The serving layer answers ``probr``/``probl`` lookups (Algorithms 5/6)
against an overlay that is still converging in the background.  Two
pieces make that safe and fast:

:class:`RouteView`
    An immutable rank-space snapshot of the live SoA columns, published
    by the engine thread once per round boundary.  Publication borrows
    the engine's cached sorted-id array (:meth:`SoAState.sorted_live`
    replaces — never mutates — it on rebuild; every engine, the sharded
    one included, has exactly one ``SoAState``), then compresses the
    ``l``/``r``/``lrl`` link columns into integer ranks with one
    vectorized ``searchsorted`` pass.  That is the *only* O(n) work per
    round; serving a lookup copies nothing and materializes no per-node
    Python objects.  Handler threads read the current view through a
    single atomic attribute load, so a mid-round scrape can never see a
    half-written column.

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
    A walk runs on the *reflected directed index* — ``d = n - 1 - rank``
    going left, ``d = n + rank`` going right — so progress means a larger
    ``d`` in either direction, and the view compiles the half of the rule
    that does not depend on the destination into two tables over ``d``
    (:class:`RouteView`).  A hop is then one compare and one gather from
    each table, whatever its direction; every numpy call the loop makes is
    a place where the interpreter lock changes hands with the engine
    thread (docs/SERVING.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["LOST_REASONS", "RouteView", "RouteResult", "hop_dtype", "route_batch"]

#: Rank sentinel for a link that is missing (±inf) or not live in the view.
NO_LINK = -1

#: Why a lost walk ended, by ``RouteResult.lost_reason`` code minus one:
#: 1 the link it took was ``NO_LINK``, 2 the link led back to the node
#: itself, 3 the step crossed the destination, 4 the hop cap ran out.
LOST_REASONS: tuple[str, ...] = ("no_link", "no_progress", "crossed", "hop_cap")
LOST_NO_LINK, LOST_NO_PROGRESS, LOST_CROSSED, LOST_HOP_CAP = 1, 2, 3, 4


def _link_ranks(ids: np.ndarray, links: np.ndarray) -> np.ndarray:
    """Ranks of *links* within the sorted *ids*, ``NO_LINK`` when absent."""
    n = len(ids)
    pos = np.searchsorted(ids, links)
    if n == 0:
        return np.full(len(links), NO_LINK, dtype=np.int64)
    # ids are finite, so ±inf/NaN links and ones past the end (clipped onto
    # the last id) never match.
    return np.where(ids.take(pos, mode="clip") == links, pos, NO_LINK)


def _scattered_ranks(ids: np.ndarray, links: np.ndarray) -> np.ndarray:
    """:func:`_link_ranks` for ids in no particular order (lookup
    targets): ``np.searchsorted`` walks ascending needles several times
    faster than scattered ones, which more than pays for sorting them
    first."""
    order = np.argsort(links)
    ranks = np.empty(len(links), dtype=np.int64)
    ranks[order] = _link_ranks(ids, links[order])
    return ranks


class RouteView:
    """One round's routing table: sorted live ids + link columns in rank space.

    Instances are frozen after construction and shared across handler
    threads without locks; the engine thread publishes a fresh view each
    round and readers pick it up on their next attribute load.
    """

    __slots__ = ("ids", "l_rank", "r_rank", "lrl_rank", "round_index", "bound", "step")

    def __init__(
        self,
        ids: np.ndarray,
        l_rank: np.ndarray,
        r_rank: np.ndarray,
        lrl_rank: np.ndarray,
        round_index: int,
    ) -> None:
        self.ids = ids
        self.l_rank = l_rank
        self.r_rank = r_rank
        self.lrl_rank = lrl_rank
        self.round_index = round_index
        n = len(ids)
        # Both tables are indexed by the reflected directed index d: the
        # leftward rows (d = n - 1 - rank) read the rank columns reversed,
        # the rightward rows (d = n + rank) read them as they are.
        # ``step[2 * d + take]`` is the ring successor (take = 0) or the lrl
        # successor (take = 1) as a d.  A missing link leads back to the
        # row itself, as a link to the node itself does, so "no progress"
        # is one compare whatever the reason.
        links = np.stack((l_rank, r_rank, lrl_rank), dtype=np.int64)
        missing = links == NO_LINK
        own = np.where(missing, np.arange(n), links)
        succ = np.concatenate(((n - 1) - own[::2, ::-1], n + own[1:]), axis=1)
        self.step = np.stack(tuple(succ), axis=1).ravel()
        # Algorithms 5/6 follow lrl iff dest >= lrl > r (rightward) or
        # dest <= lrl < l (leftward).  The second inequality does not
        # depend on the destination: ``bound`` holds lrl as a d where it
        # holds and 2n, which no goal reaches, where it fails, so the test
        # per hop is ``goal >= bound[d]``.  A missing ring link passes the
        # inequality and a dead lrl fails it, so NO_LINK has to lie behind
        # the walk: below every rank rightwards, as it is, and above every
        # rank leftwards, where the ranks are compared unsigned.
        unsigned = links.view(np.uint64)
        shortcut = np.concatenate(
            ((unsigned[2] < unsigned[0])[::-1], links[2] > links[1])
        )
        self.bound = np.where(shortcut, succ[1], 2 * n)

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
        is sanitizer-clean by construction).  The id array is borrowed
        from the engine's sorted cache; only the three link columns are
        gathered, once, into rank space.
        """
        soa = engine.soa
        ids, idx = soa.sorted_live()
        return cls._from_links(
            ids, soa.l[idx], soa.r[idx], soa.lrl[idx], round_index
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
        return cls._from_links(ids, l, r, lrl, round_index)

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
    ) -> "RouteView":
        """Compress the link-id columns to ranks in one ``searchsorted``
        pass: the two ring columns are already close to ascending, and
        ``lrl`` is sorted first, as :func:`_scattered_ranks` does."""
        n = len(ids)
        order = np.argsort(lrl)
        ranks = _link_ranks(ids, np.concatenate((l, r, lrl[order])))
        lrl_rank = np.empty(n, dtype=np.int64)
        lrl_rank[order] = ranks[2 * n :]
        return cls(ids, ranks[:n], ranks[n : 2 * n], lrl_rank, round_index)

    def resolve(self, query_ids: np.ndarray) -> np.ndarray:
        """Ranks of arbitrary ids in this view (``NO_LINK`` when not live)."""
        return _scattered_ranks(self.ids, np.asarray(query_ids, dtype=np.float64))


def _hop_cap(n: int, max_hops: int | None) -> int:
    if max_hops is not None and max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    return max_hops if max_hops is not None else n + 16


def hop_dtype(n: int, max_hops: int | None = None) -> np.dtype:
    """The dtype of :func:`route_batch`'s hop counts over *n* live nodes:
    the narrowest signed integer that holds ``cap + 1``, so a caller that
    adds the origin's forced hop (Algorithm 10) cannot wrap it.  That is
    int16 at the default cap ``n + 16`` while n ≤ 32 750."""
    top = _hop_cap(n, max_hops) + 1
    for dtype in (np.int8, np.int16, np.int32):
        if top <= np.iinfo(dtype).max:
            return np.dtype(dtype)
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
    valid = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    hops = np.zeros(len(src), dtype=hop_dtype(n, max_hops))
    ok = valid.copy()
    lost_reason = np.zeros(len(src), dtype=np.uint8)
    paths: list[list[float]] | None = None
    if collect_paths:
        paths = [
            [float(view.ids[s])] if v else []
            for s, v in zip(src.tolist(), valid.tolist())
        ]
    bound, step = view.bound, view.step
    # The walking queries and their positions and goals, as reflected
    # directed indices, stay compacted together; nothing is re-gathered
    # through an index set, and a walk ends at or past its goal.
    query = np.flatnonzero(valid & (src != dst))
    start, dest = src[query], dst[query]
    rgt = dest > start
    cur = np.where(rgt, n + start, (n - 1) - start)
    goal = np.where(rgt, n + dest, (n - 1) - dest)
    walks, goals = query, goal
    # Where each walk ended, as a d: its goal when it arrived, past it when
    # it crossed, its own row when it took no step, -1 while it walks on.
    # Everything else a walk's end decides is read from it after the loop.
    last = np.full(len(src), -1, dtype=np.int64)
    hop = 0
    while query.size and hop < cap:
        hop += 1
        nxt = step[2 * cur + (goal >= bound[cur])]
        if paths is not None:
            rank = np.where(nxt < n, (n - 1) - nxt, nxt - n)
            for qi, r, gone in zip(query.tolist(), rank.tolist(), (nxt == cur).tolist()):
                if not gone:
                    paths[qi].append(float(view.ids[r]))
        # Mid-convergence hazards: no link at all or a self-loop makes no
        # progress (no step taken); a step past the goal crossed it.
        done = (nxt == cur) | (nxt >= goal)
        if done.any():
            finished = query[done]
            last[finished] = nxt[done]
            hops[finished] = hop
            keep = ~done
            query, nxt, goal = query[keep], nxt[keep], goal[keep]
        cur = nxt
    hops[query] = hop
    end = last[walks]
    ok[walks] = end == goals
    lost = end != goals
    if lost.any():
        walks, reason = walks[lost], _lost_reasons(view, end[lost], goals[lost])
        lost_reason[walks] = reason
        # A walk that took no step did not walk its last hop.
        hops[walks[reason <= LOST_NO_PROGRESS]] -= 1
    return RouteResult(
        hops=hops,
        ok=ok,
        lost_reason=lost_reason,
        round_index=view.round_index,
        paths=paths,
    )


def _lost_reasons(view: RouteView, end: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Reason codes of walks lost at the reflected indices *end* on their
    way to *goal*: -1 is a walk the cap stopped, an end past the goal
    crossed it, and one short of it took no step, over a link that is
    missing or leads back to the node (``step`` maps both to the row).
    ``bound`` never takes a missing long-range link, so a missing link is
    a ring link the row's ``bound`` did not pass, read from the rank
    columns."""
    n = view.n
    at = np.maximum(end, 0)
    left = at < n
    rank = np.where(left, (n - 1) - at, at - n)
    ring = np.where(left, view.l_rank[rank], view.r_rank[rank])
    missing = (goal < view.bound[at]) & (ring == NO_LINK)
    reason = np.where(missing, LOST_NO_LINK, LOST_NO_PROGRESS)
    reason[end > goal] = LOST_CROSSED
    reason[end < 0] = LOST_HOP_CAP
    return reason.astype(np.uint8)
