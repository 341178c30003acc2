"""Greedy-routing lookups over a live engine: snapshots + the hop kernel.

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
    without overshooting the destination, else take the ring link.  On a
    converged overlay this reproduces
    :func:`repro.routing.paths.probe_path_hops` hop-for-hop (with
    ``first_hop_ring=False``) and therefore inherits Lemma 4.23's
    O(ln^(2+ε) d) expected hop bound; mid-convergence, dead links,
    overshoots and non-progress are detected and reported as *lost*
    lookups instead of hanging the request path.  The half of the rule
    that does not depend on the destination is compiled into two tables
    per view (:class:`RouteView`), the walking queries are carried
    compacted from hop to hop, and the bookkeeping for walks that end
    runs only on a hop where one does: every large numpy call the loop
    makes is a place where the interpreter lock changes hands with the
    engine thread (docs/SERVING.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["RouteView", "RouteResult", "route_batch"]

#: Rank sentinel for a link that is missing (±inf) or not live in the view.
NO_LINK = -1


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
    """:func:`_link_ranks` for links in no particular order (long-range
    links, lookup targets): ``np.searchsorted`` walks ascending needles
    several times faster than scattered ones, which more than pays for
    sorting them first."""
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

    __slots__ = (
        "ids",
        "l_rank",
        "r_rank",
        "lrl_rank",
        "round_index",
        "sc_right",
        "sc_left",
    )

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
        # Algorithms 5/6 follow lrl iff dest >= lrl > r (rightward) or
        # dest <= lrl < l (leftward).  The second inequality does not
        # depend on the destination: where it fails the table holds a rank
        # no destination reaches, so the test per hop is one compare.
        # NO_LINK sorts below every rank, so rightwards a dead lrl fails
        # ``lrl > r`` and a missing r passes it; leftwards a missing l is
        # said outright and a dead lrl is its own sentinel.
        self.sc_right = np.where(lrl_rank > r_rank, lrl_rank, len(ids))
        self.sc_left = np.where(
            (l_rank == NO_LINK) | (lrl_rank < l_rank), lrl_rank, NO_LINK
        )

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
        """Build a view from reference :class:`NodeState` objects.

        Used by the cross-engine Lemma 4.23 tests to route over the
        reference scheduler's overlay with the same kernel.
        """
        rows = sorted(states, key=lambda s: s.id)
        ids = np.asarray([s.id for s in rows], dtype=np.float64)
        l = np.asarray([s.l for s in rows], dtype=np.float64)
        r = np.asarray([s.r for s in rows], dtype=np.float64)
        lrl = np.asarray([s.lrl for s in rows], dtype=np.float64)
        return cls._from_links(ids, l, r, lrl, round_index)

    @classmethod
    def _from_links(
        cls,
        ids: np.ndarray,
        l: np.ndarray,
        r: np.ndarray,
        lrl: np.ndarray,
        round_index: int,
    ) -> "RouteView":
        """Compress the link-id columns to ranks: the two ring columns,
        each already close to ascending, in one pass; ``lrl`` on its own."""
        n = len(ids)
        ring = _link_ranks(ids, np.concatenate((l, r)))
        return cls(ids, ring[:n], ring[n:], _scattered_ranks(ids, lrl), round_index)

    def resolve(self, query_ids: np.ndarray) -> np.ndarray:
        """Ranks of arbitrary ids in this view (``NO_LINK`` when not live)."""
        return _scattered_ranks(self.ids, np.asarray(query_ids, dtype=np.float64))


@dataclass
class RouteResult:
    """Outcome of one :func:`route_batch` call.

    ``hops[i]`` counts edges walked for query *i*; ``ok[i]`` is True when
    the walk reached the destination (lost lookups keep the hops walked
    before the route died, which the SLO accounting reports separately).
    ``paths`` holds the full id trace per query when requested.
    """

    hops: np.ndarray
    ok: np.ndarray
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
    :meth:`RouteView.resolve`); entries outside ``[0, n)`` are reported
    as immediately lost.  The walk direction is fixed per query at the
    start; each hop prefers the long-range link when it advances past
    the ring link without overshooting, mirroring
    :func:`repro.routing.paths.probe_path_hops`.  A query is lost when
    its next link is missing, makes no progress, or crosses the
    destination (possible only mid-convergence), or when *max_hops*
    (default ``n + 16``) runs out.
    """
    n = view.n
    src = np.asarray(source_ranks, dtype=np.int64)
    dst = np.asarray(dest_ranks, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("source and destination batches must align")
    cap = max_hops if max_hops is not None else n + 16
    valid = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    hops = np.zeros(len(src), dtype=np.int64)
    ok = valid.copy()
    paths: list[list[float]] | None = None
    if collect_paths:
        paths = [
            [float(view.ids[s])] if v else []
            for s, v in zip(src.tolist(), valid.tolist())
        ]
    l_rank, r_rank, lrl_rank = view.l_rank, view.r_rank, view.lrl_rank
    sc_right, sc_left = view.sc_right, view.sc_left
    # The walking queries, their positions, destinations and directions
    # stay compacted together; nothing is re-gathered through an index set.
    query = np.flatnonzero(valid & (src != dst))
    cur, t = src[query], dst[query]
    rgt = t > cur
    hop = 0
    while query.size and hop < cap:
        hop += 1
        # Algorithm 5 (rightward): follow lrl iff dest >= lrl > r;
        # Algorithm 6 (leftward): follow lrl iff dest <= lrl < l.
        use_sc = np.where(rgt, t >= sc_right[cur], t <= sc_left[cur])
        nxt = np.where(use_sc, lrl_rank[cur], np.where(rgt, r_rank[cur], l_rank[cur]))
        # Mid-convergence hazards: no link at all or a self-loop that makes
        # no progress (no step taken), or a step that crosses the destination.
        lost = (nxt == NO_LINK) | (nxt == cur)
        if paths is not None:
            for qi, rank, gone in zip(query.tolist(), nxt.tolist(), lost.tolist()):
                if not gone:
                    paths[qi].append(float(view.ids[rank]))
        done = lost | np.where(rgt, nxt >= t, nxt <= t)
        if done.any():
            finished = query[done]
            ok[finished] = nxt[done] == t[done]
            hops[finished] = hop - lost[done]
            keep = ~done
            query, nxt, t, rgt = query[keep], nxt[keep], t[keep], rgt[keep]
        cur = nxt
    if query.size:
        ok[query] = False
        hops[query] = hop
    return RouteResult(hops=hops, ok=ok, round_index=view.round_index, paths=paths)
