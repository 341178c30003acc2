"""``route_batch`` walks in blocks of ``BLOCK`` hops: the edges of a block.

The walk looks at which walks finished only once a block, and reads each
finished walk's end off the block's kept positions: the first position at
or past its goal, or the one before it when that is the sentinel row.
These tests put every kind of end — arrived, crossed, stuck on a missing
link or a self link — on and around the block edges, under hop caps on
and around them, and compare every output with the per-hop oracle
``tests.reference_flush.route_batch_reference``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.routing import (
    BLOCK,
    LOST_REASONS,
    NO_LINK,
    RouteView,
    route_batch,
)
from tests.reference_flush import route_batch_reference
from tests.test_flush_reference import assert_same_route

K = BLOCK
#: Hop counts on and around the first two block edges.
EDGES = sorted({1, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1})


def line(n: int, **edits: dict[int, int]) -> RouteView:
    """The stable line over ranks ``0..n-1`` with no long-range links and
    some rank-column entries replaced (``r_rank={3: NO_LINK}``)."""
    rank = np.arange(n)
    columns = {
        "l_rank": rank - 1,
        "r_rank": np.where(rank + 1 < n, rank + 1, NO_LINK),
        "lrl_rank": np.full(n, NO_LINK),
    }
    for name, entries in edits.items():
        for at, link in entries.items():
            columns[name][at] = link
    return RouteView(
        (rank + 0.5) / n, columns["l_rank"], columns["r_rank"], columns["lrl_rank"], 3
    )


def walk(view: RouteView, src, dst, **options):
    """``route_batch`` on one batch, checked against the oracle first."""
    src, dst = np.asarray(src), np.asarray(dst)
    assert_same_route(view, src, dst, **options)
    return route_batch(view, src, dst, **options)


def reasons(result) -> list[str | None]:
    return [LOST_REASONS[code - 1] if code else None for code in result.lost_reason.tolist()]


@pytest.mark.parametrize("hops", EDGES)
def test_arrivals_on_block_edges(hops):
    """Walks of exactly *hops* hops, both ways, beside longer and shorter
    walks in the same batch, so that the block compacts around them."""
    n = 2 * K + 8
    view = line(n)
    src = [0, n - 1, 0, n - 1, 5]
    dst = [hops, n - 1 - hops, hops + 1, n - 1 - (hops - 1), 5]
    result = walk(view, src, dst)
    assert result.ok.all()
    assert result.hops.tolist() == [hops, hops, hops + 1, hops - 1, 0]


@pytest.mark.parametrize("hops", EDGES)
@pytest.mark.parametrize("link", [NO_LINK, "self"])
def test_stuck_on_block_edges(hops, link):
    """A walk stuck after *hops* hops: the link out of rank *hops* is
    missing or leads back to the node, so the sentinel stands at hop
    ``hops + 1``; at ``hops = K`` that is the first hop of a block."""
    n = 2 * K + 8
    target = hops if link == "self" else NO_LINK
    right = line(n, r_rank={hops: target})
    result = walk(right, [0], [n - 1])
    assert reasons(result) == ["no_link" if link == NO_LINK else "no_progress"]
    assert result.hops.tolist() == [hops]
    mirrored = n - 1 - hops
    left = line(n, l_rank={mirrored: mirrored if link == "self" else NO_LINK})
    result = walk(left, [n - 1], [0])
    assert reasons(result) == ["no_link" if link == NO_LINK else "no_progress"]
    assert result.hops.tolist() == [hops]


def test_stuck_at_the_first_hop_of_every_block():
    """Walks whose sentinel lands on hop 1 of the first, second and third
    block: each one's end is the block's row 0, where it began."""
    n = 3 * K + 8
    for stuck in (0, K, 2 * K):
        view = line(n, r_rank={stuck: NO_LINK})
        result = walk(view, [0], [n - 1])
        assert reasons(result) == ["no_link"] and result.hops.tolist() == [stuck]


@pytest.mark.parametrize("hops", EDGES)
def test_crossings_on_block_edges(hops):
    """The step at hop *hops* jumps past the goal: the walk is lost as
    crossed with *hops* hops, wherever that falls in a block."""
    n = 2 * K + 12
    goal = hops + 1
    view = line(n, r_rank={hops - 1: goal + 2})
    result = walk(view, [0], [goal])
    assert reasons(result) == ["crossed"] and result.hops.tolist() == [hops]


@pytest.mark.parametrize("cross", [1, 2, K // 2, K - 2])
def test_first_crossing_wins_over_later_positions_in_the_block(cross):
    """After crossing, the walk steps back below its goal inside the same
    block and keeps cycling there: the block's last position is short of
    the goal, but the first crossing is where the walk ended."""
    n = 2 * K + 8
    goal = cross + 2
    # rank cross - 1 jumps to goal + 3 (past it), which steps back to 1.
    view = line(n, r_rank={cross - 1: goal + 3, goal + 3: 1})
    result = walk(view, [0], [goal])
    assert reasons(result) == ["crossed"]
    assert result.hops.tolist() == [cross]
    # Leftwards, mirrored.
    m = n - 1
    view = line(n, l_rank={m - (cross - 1): m - (goal + 3), m - (goal + 3): m - 1})
    result = walk(view, [m], [m - goal])
    assert reasons(result) == ["crossed"]
    assert result.hops.tolist() == [cross]


@pytest.mark.parametrize("cap", [0, 1, K - 1, K, K + 1])
def test_caps_on_block_edges(cap):
    """Under a cap on or around a block edge, a walk one hop too long is
    lost to the cap with *cap* hops, one that fits arrives, and a walk
    stuck or crossing on the cap's last hop is lost for its own reason."""
    n = 2 * K + 8
    src = [0, 0, 0, n - 1, 7]
    dst = [cap + 1, cap, n - 1, n - 1 - cap, 7]
    result = walk(line(n), src, dst, max_hops=cap)
    assert reasons(result)[:3] == ["hop_cap", None, "hop_cap"]
    assert result.ok.tolist() == [False, True, False, True, True]
    assert result.hops.tolist() == [cap, cap, cap, cap, 0]
    if cap:
        stuck = line(n, r_rank={cap - 1: NO_LINK})
        result = walk(stuck, [0, 0], [n - 1, cap - 1], max_hops=cap)
        assert reasons(result) == ["no_link", None]
        assert result.hops.tolist() == [cap - 1, cap - 1]
        crossed = line(n, r_rank={cap - 1: cap + 2})
        result = walk(crossed, [0], [cap + 1], max_hops=cap)
        assert reasons(result) == ["crossed"] and result.hops.tolist() == [cap]


@pytest.mark.parametrize("cap", [None, 0, 1, K - 1, K, K + 1, 2 * K])
def test_paths_across_block_edges(cap):
    """``collect_paths`` runs the same block loop: every walk's path, cut
    at its end inside a block, equals the oracle's hop by hop."""
    n = 3 * K
    view = line(n, r_rank={2 * K + 1: NO_LINK, K + 3: K + 6}, l_rank={K: K})
    rng = np.random.default_rng(K)
    src = np.concatenate(([0, 0, 0, n - 1, -1], rng.integers(0, n, 60)))
    dst = np.concatenate(([K, K + 1, n - 1, 0, 4], rng.integers(0, n, 60)))
    result = walk(view, src, dst, max_hops=cap, collect_paths=True)
    assert result.paths is not None
    # Every walk that started holds its origin and one id per hop taken.
    for path, hops in zip(result.paths[:4], result.hops.tolist()):
        assert len(path) == hops + 1
    assert result.paths[4] == []


def broken_line(rng: np.random.Generator, n: int) -> RouteView:
    """The line with random long-range links, a few of them dead, and a
    few ring links replaced by random ones (missing, self, backwards)."""
    lrl = rng.integers(0, n, size=n)
    lrl[rng.random(n) < 0.05] = NO_LINK
    base = line(n)
    r_rank = base.r_rank.copy()
    l_rank = base.l_rank.copy()
    for column in (r_rank, l_rank):
        hit = np.flatnonzero(rng.random(n) < 0.03)
        column[hit] = rng.integers(-1, n, size=len(hit))
    return RouteView(base.ids, l_rank, r_rank, lrl, 0)


def test_long_range_links_across_block_edges():
    """Random long-range links on the line, walks of one to several
    blocks, mixed with broken and self links: the oracle hop for hop."""
    rng = np.random.default_rng(45)
    n = 400
    view = broken_line(rng, n)
    src = rng.integers(0, n, 2000)
    dst = rng.integers(0, n, 2000)
    for cap in (None, K - 1, K, K + 1, 2 * K):
        walk(view, src, dst, max_hops=cap)
    walk(view, src[:50], dst[:50], collect_paths=True)
    expected = route_batch_reference(view, src, dst)
    assert expected.hops.max() > 2 * K and (~expected.ok).sum() > 100

