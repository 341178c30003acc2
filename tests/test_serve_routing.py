"""Serving route kernel (ISSUE 10): conformance, Lemma 4.23, pinned traces.

Three layers of evidence that the serving layer's hop kernel is the
paper's probr/probl:

* exact hop-for-hop conformance of :func:`repro.serve.route_batch`
  against the per-hop probe rule as written
  (``tests.reference_flush.route_batch_reference``) on the converged
  overlay — for the reference states, the batched engine, and the
  sharded engine;
* a Hypothesis sweep of the Lemma 4.23 hypothesis: greedy hops on the
  Fact 4.21 stationary overlay stay within the rank distance
  (structural) and, on average, within ``c·ln^{2+ε} d``
  (:func:`repro.serve.hop_bound`) across all three view sources;
* a pinned fixed-seed trace: the fast and sharded engines route the
  same queries to the same hop counts *mid-convergence*, digest-pinned
  so a silent kernel change fails loudly.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.graphs.build import stable_ring_states
from repro.ids import generate_ids
from repro.obs.exporters import prometheus_text, validate_prometheus_text
from repro.obs.observer import Observer
from repro.serve.routing import LOST_REASONS, NO_LINK, RouteView, hop_dtype, route_batch
from repro.serve.service import OverlayService
from repro.serve.slo import hop_bound
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import route_batch_reference
from tests.test_flush_reference import routing_cases


def _converged_states(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return stable_ring_states(
        n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng)
    )


def _engine_view(states, mode: str, *, shards: int = 3) -> RouteView:
    sim = FastSimulator.from_states(
        [s.copy() for s in states],
        ProtocolConfig(),
        mode=mode,
        shards=shards,
        rng=np.random.default_rng(77),
    )
    return RouteView.from_engine(sim.engine, sim.round_index)


def _view_from(source: str, states) -> RouteView:
    if source == "reference":
        return RouteView.from_states(states)
    return _engine_view(states, "batched" if source == "fast" else "sharded")


# ----------------------------------------------------------------------
# RouteView construction
# ----------------------------------------------------------------------
class TestRouteView:
    def test_stable_ring_ranks(self):
        states = _converged_states(64, 1)
        view = RouteView.from_states(states)
        n = view.n
        assert n == 64 and len(view) == 64
        assert np.all(np.diff(view.ids) > 0)
        ranks = np.arange(n)
        # Line endpoints carry ±inf links → NO_LINK; interior is the ring.
        assert view.l_rank[0] == NO_LINK
        assert view.r_rank[-1] == NO_LINK
        np.testing.assert_array_equal(view.l_rank[1:], ranks[:-1])
        np.testing.assert_array_equal(view.r_rank[:-1], ranks[1:])
        assert np.all(view.lrl_rank != NO_LINK)  # harmonic links are live

    def test_resolve_live_and_alien_ids(self):
        view = RouteView.from_states(_converged_states(32, 2))
        got = view.resolve(view.ids[[5, 0, 31]])
        np.testing.assert_array_equal(got, [5, 0, 31])
        alien = np.asarray([-1.0, 2.0, (view.ids[3] + view.ids[4]) / 2])
        assert np.all(view.resolve(alien) == NO_LINK)

    def test_engine_views_match_reference(self):
        states = _converged_states(128, 3)
        reference = RouteView.from_states(states)
        for mode in ("batched", "sharded"):
            view = _engine_view(states, mode)
            np.testing.assert_array_equal(view.ids, reference.ids)
            np.testing.assert_array_equal(view.l_rank, reference.l_rank)
            np.testing.assert_array_equal(view.r_rank, reference.r_rank)
            np.testing.assert_array_equal(view.lrl_rank, reference.lrl_rank)

    def test_sharded_engine_publishes_its_snapshot(self):
        """One publish path on every engine: the sharded engine's view, with
        slots out of rank order and tombstones between them, is the view of
        its own ``state_snapshot()``."""
        sim = FastSimulator.from_states(
            _converged_states(64, 4), mode="sharded", shards=3, rng=5
        )
        engine, pick = sim.engine, np.random.default_rng(6)
        sim.run(3)
        engine.join_batch(pick.random(9), pick.choice(engine.ids, 9))
        engine.leave_batch(pick.choice(engine.ids, 12, replace=False))
        sim.run(2)
        view = RouteView.from_engine(engine, sim.round_index)
        reference = RouteView.from_states(
            [NodeState(*row) for row in engine.state_snapshot().values()]
        )
        for column in ("ids", "l_rank", "r_rank", "lrl_rank", "bound", "step", "buckets"):
            np.testing.assert_array_equal(
                getattr(view, column), getattr(reference, column)
            )


# ----------------------------------------------------------------------
# Ids to ranks through the bucket table, against a binary search
# ----------------------------------------------------------------------
#: The largest double below 1.
LAST = float(np.nextafter(1.0, 0.0))
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, LAST, 1.0, -0.5, 1.5, 2.0**60]


def searched_ranks(ids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The ``np.searchsorted`` ranks the bucket probe stands in for."""
    x = np.asarray(x, dtype=np.float64)
    if len(ids) == 0:
        return np.full(len(x), NO_LINK, dtype=np.int64)
    pos = np.searchsorted(ids, x)
    return np.where(ids[np.minimum(pos, len(ids) - 1)] == x, pos, NO_LINK)


@st.composite
def ids_and_queries(draw):
    """Sorted unique ids — in ``[0, 1)``, packed into one bucket, or
    outside the unit interval — and queries mixing live ids, their
    one-ulp neighbours, NaN, ±inf, -0.0, out-of-range and alien ids."""
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    kind = draw(st.sampled_from(["unit", "packed", "wide"]))
    if kind == "packed":
        base = draw(unit)
        raw = [base + k * 2.0**-40 for k in range(draw(st.integers(0, 40)))]
    elif kind == "wide":
        raw = draw(st.lists(st.floats(-1e6, 1e6), max_size=40))
    else:
        raw = draw(st.lists(unit, max_size=60))
    ids = np.unique(np.asarray([x for x in raw if x < 1.0 or kind == "wide"], dtype=np.float64))
    near = np.concatenate((ids, np.nextafter(ids, -np.inf), np.nextafter(ids, np.inf)))
    alien = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    x = np.concatenate((near, SPECIAL, np.asarray(alien, dtype=np.float64)))
    return ids, draw(st.permutations(x.tolist()))


class TestResolve:
    @settings(max_examples=300, deadline=None)
    @given(case=ids_and_queries())
    def test_resolve_is_searchsorted(self, case):
        ids, x = case
        missing = np.full(len(ids), NO_LINK)
        view = RouteView(ids, missing, missing, missing, 0)
        got = view.resolve(np.asarray(x))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, searched_ranks(ids, x))

    @settings(max_examples=150, deadline=None)
    @given(case=ids_and_queries(), data=st.data())
    def test_published_link_ranks_are_searchsorted(self, case, data):
        """``_from_links`` resolves the ``l``/``r``/``lrl`` columns through
        the same probe: dead, alien and ±inf links fall to ``NO_LINK``."""
        ids, x = case
        pick = st.lists(st.sampled_from(x), min_size=len(ids), max_size=len(ids))
        l, r, lrl = (np.asarray(data.draw(pick), dtype=np.float64) for _ in range(3))
        states = [
            (float(i), float(a), float(b), float(c), None, 0)
            for i, a, b, c in zip(ids, l, r, lrl)
        ]
        view = RouteView.from_states(states)
        np.testing.assert_array_equal(view.ids, ids)
        for got, links in ((view.l_rank, l), (view.r_rank, r), (view.lrl_rank, lrl)):
            np.testing.assert_array_equal(got, searched_ranks(ids, links))

    def test_engine_views_borrow_the_state_table(self):
        states = _converged_states(256, 12)
        for mode in ("batched", "sharded"):
            sim = FastSimulator.from_states(
                [s.copy() for s in states], mode=mode, shards=3, rng=5
            )
            soa = sim.engine.soa
            view = RouteView.from_engine(sim.engine, sim.round_index)
            assert view.buckets is soa.sorted_buckets()
            assert view.ids is soa.sorted_live()[0]
            x = np.concatenate((view.ids, view.ids + 1e-12, SPECIAL))
            np.testing.assert_array_equal(view.resolve(x), searched_ranks(view.ids, x))


# ----------------------------------------------------------------------
# The doubled reflected directed-index tables, against the rank columns
# ----------------------------------------------------------------------
def assert_table_invariants(view: RouteView) -> None:
    """``step`` and ``bound`` say what the rank columns say, row by row.

    Row d sits at ``2d`` in both tables: rank ``d - n`` going right and
    rank ``n - 1 - d`` going left, and row ``2n`` is the sentinel.  Every
    destination is tried on every row, the far side included.
    """
    n = view.n
    sentinel = 4 * n
    d = np.arange(2 * n)
    rgt = d >= n
    rank = np.where(rgt, d - n, n - 1 - d)

    def to_d(link):
        return np.where(rgt, n + link, n - 1 - link)

    ring = np.where(rgt, view.r_rank[rank], view.l_rank[rank])
    lrl = view.lrl_rank[rank]
    assert view.bound.shape == (4 * n + 2,) and view.step.shape == (4 * n + 2,)
    step = view.step.reshape(2 * n + 1, 2)
    bound = view.bound.reshape(2 * n + 1, 2)
    # The sentinel row leads only to itself and no goal passes its bound.
    np.testing.assert_array_equal(step[2 * n], [sentinel, sentinel])
    np.testing.assert_array_equal(bound[2 * n], [sentinel, sentinel])
    np.testing.assert_array_equal(bound[:, 0], bound[:, 1])
    step, bound = step[:-1], bound[:-1, 0]
    # Every successor is a doubled index in its row's half, or the
    # sentinel: a walk never turns round.
    assert np.all(step % 2 == 0)
    moves = step != sentinel
    assert np.all(((step >= 2 * n) == rgt[:, None])[moves])
    assert np.all((step >= 0) & (step <= sentinel))
    for column, link in ((0, ring), (1, lrl)):
        home = (link == NO_LINK) | (link == rank)
        np.testing.assert_array_equal(step[home, column], np.full(home.sum(), sentinel))
        np.testing.assert_array_equal(step[~home, column], 2 * to_d(link)[~home])
    # Algorithm 5: dest >= lrl > r; Algorithm 6: dest <= lrl < l.  A
    # missing ring link is passed, a dead lrl is never taken.
    free = ring == NO_LINK
    live = lrl != NO_LINK
    assert np.all(bound % 2 == 0) and np.all(bound <= sentinel)
    for dest in range(n):
        takes = live & np.where(
            rgt,
            (dest >= lrl) & (free | (lrl > ring)),
            (dest <= lrl) & (free | (lrl < ring)),
        )
        np.testing.assert_array_equal(2 * to_d(dest) >= bound, takes)


class TestDirectedTables:
    @settings(max_examples=300, deadline=None)
    @given(case=routing_cases())
    def test_arbitrary_rank_tables(self, case):
        assert_table_invariants(case[0])

    def test_mid_convergence_view(self):
        view = TestPinnedHopTrace()._mid_convergence_view("batched")
        stable = np.arange(view.n)
        # Still converging: some links dead, missing or out of line.
        assert np.any(view.lrl_rank == NO_LINK) or np.any(
            view.l_rank[1:] != stable[:-1]
        )
        assert_table_invariants(view)


# ----------------------------------------------------------------------
# Hop-for-hop conformance with the probe replay (Algorithms 5/6)
# ----------------------------------------------------------------------
class TestProbeConformance:
    def test_route_batch_matches_probe_replay(self):
        n = 256
        states = _converged_states(n, 11)
        rng = np.random.default_rng(5)
        sources = rng.integers(0, n, size=500)
        dests = rng.integers(0, n, size=500)
        # The oracle walks the stable line in rank space, so it reads
        # none of the ring columns the views under test compute.
        lrl_rank = RouteView.from_states(states).lrl_rank
        oracle = route_batch_reference(RouteView.from_ranks(lrl_rank), sources, dests)
        assert oracle.ok.all()
        expected = oracle.hops
        for source in ("reference", "fast", "sharded"):
            view = _view_from(source, states)
            got = route_batch(view, sources, dests)
            assert got.ok.all(), source
            np.testing.assert_array_equal(got.hops, expected, err_msg=source)

    def test_from_ranks_rejects_out_of_range_links(self):
        """A long-range rank outside ``[0, n)`` would index the hop tables
        past the view and walk a route that does not exist."""
        for bad in ([5, 0, 1], [-3, 0, 1]):
            with pytest.raises(ValueError, match=r"lrl ranks must lie in \[0, n\)"):
                RouteView.from_ranks(np.array(bad))
        view = RouteView.from_ranks(np.array([NO_LINK, 0, 1]))
        walk = route_batch(view, np.array([0]), np.array([2]))
        assert walk.ok.all() and walk.hops.tolist() == [2]

    def test_paths_walk_the_line(self):
        states = _converged_states(96, 7)
        view = RouteView.from_states(states)
        src = np.asarray([4, 90, 33])
        dst = np.asarray([77, 10, 33])
        result = route_batch(view, src, dst, collect_paths=True)
        assert result.ok.all()
        assert result.paths is not None
        for s, d, hops, path in zip(
            src, dst, result.hops.tolist(), result.paths
        ):
            assert path[0] == view.ids[s]
            assert path[-1] == view.ids[d]
            assert len(path) == hops + 1
            deltas = np.diff(np.asarray(path))
            if d > s:
                assert np.all(deltas > 0)  # rightward: monotone, no overshoot
            elif d < s:
                assert np.all(deltas < 0)

    def test_invalid_ranks_and_hop_cap_are_lost_not_hung(self):
        view = RouteView.from_states(_converged_states(32, 9))
        result = route_batch(
            view, np.asarray([-1, 0, 5]), np.asarray([3, 32, 20])
        )
        assert not result.ok[0] and not result.ok[1] and result.ok[2]
        capped = route_batch(
            view, np.asarray([0]), np.asarray([31]), max_hops=2
        )
        assert not capped.ok[0]
        assert capped.hops[0] == 2

    def test_negative_hop_cap_is_refused(self):
        view = RouteView.from_states(_converged_states(32, 9))
        with pytest.raises(ValueError, match="max_hops"):
            route_batch(view, np.asarray([0]), np.asarray([31]), max_hops=-1)
        # Zero is a cap, not an error: every walk that has to move is lost.
        zero = route_batch(view, np.asarray([0, 4]), np.asarray([31, 4]), max_hops=0)
        np.testing.assert_array_equal(zero.ok, [False, True])
        np.testing.assert_array_equal(zero.hops, [0, 0])


# ----------------------------------------------------------------------
# Hop counts at the width of their cap
# ----------------------------------------------------------------------
def _line(n: int) -> RouteView:
    """The stable line over ranks ``0..n-1`` with no long-range links."""
    return RouteView.from_ranks(np.full(n, NO_LINK))


class TestHopWidth:
    def test_dtype_follows_the_cap(self):
        walk = route_batch(_line(8192), np.array([0]), np.array([8191]))
        assert walk.ok.all() and walk.hops.dtype == np.int16
        assert walk.hops.tolist() == [8191]
        view = _line(64)
        for max_hops, dtype in ((3, np.int8), (32766, np.int16), (32767, np.int32)):
            walk = route_batch(view, np.array([0]), np.array([63]), max_hops=max_hops)
            assert walk.hops.dtype == dtype, max_hops
        assert hop_dtype(32750) == np.int16 and hop_dtype(32751) == np.int32
        assert hop_dtype(2**18) == np.int32

    @pytest.mark.parametrize("max_hops", [0, 1, 126, 127, 32766, 32767])
    def test_an_exhausted_cap_reports_the_cap_and_one_more_hop_fits(self, max_hops):
        n = max_hops + 2
        walk = route_batch(
            _line(n), np.array([0, n - 1]), np.array([n - 1, 0]), max_hops=max_hops
        )
        assert not walk.ok.any()
        assert walk.hops.tolist() == [max_hops] * 2
        # Algorithm 10's forced origin hop, as E3 adds it, does not wrap.
        assert (walk.hops + 1).tolist() == [max_hops + 1] * 2

    @pytest.mark.parametrize("seed", range(6))
    def test_values_equal_an_int64_walk_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        line = _line(n)
        columns = [line.l_rank.copy(), line.r_rank.copy(), rng.integers(-1, n, size=n)]
        # Break a few ring links and point a few links of each column at
        # their own node, so that every loss branch occurs.
        for column in columns[:2]:
            broken = rng.random(n) < 0.05
            column[broken] = rng.integers(-1, n, size=int(broken.sum()))
        for column in columns:
            own = np.flatnonzero(rng.random(n) < 0.02)
            column[own] = own
        view = RouteView(line.ids, *columns, 0)
        src = rng.integers(-1, n + 1, size=500)
        dst = rng.integers(-1, n + 1, size=500)
        for max_hops in (None, 5, 127):
            got = route_batch(view, src, dst, max_hops=max_hops)
            expected = route_batch_reference(view, src, dst, max_hops=max_hops)
            assert expected.hops.dtype == np.int64
            assert got.hops.dtype == hop_dtype(n, max_hops)
            np.testing.assert_array_equal(got.hops.astype(np.int64), expected.hops)
            np.testing.assert_array_equal(got.ok, expected.ok)
            np.testing.assert_array_equal(got.lost_reason, expected.lost_reason)


# ----------------------------------------------------------------------
# Why a lost walk ended
# ----------------------------------------------------------------------
def _edited_line(n: int, **edits: dict[int, int]) -> RouteView:
    """:func:`_line` with some rank-column entries replaced:
    ``r_rank={2: NO_LINK}`` cuts the ring link right of rank 2."""
    line = _line(n)
    columns = {
        "l_rank": line.l_rank.copy(),
        "r_rank": line.r_rank.copy(),
        "lrl_rank": line.lrl_rank.copy(),
    }
    for name, entries in edits.items():
        for rank, link in entries.items():
            columns[name][rank] = link
    return RouteView(line.ids, columns["l_rank"], columns["r_rank"], columns["lrl_rank"], 0)


def _reason(code: int) -> str | None:
    return LOST_REASONS[code - 1] if code else None


class TestLostReasons:
    CASES = [
        # (view edits, source, dest, max_hops, reason, hops)
        ({"r_rank": {2: NO_LINK}}, 0, 5, None, "no_link", 2),
        ({"l_rank": {4: NO_LINK}}, 7, 1, None, "no_link", 3),
        ({"r_rank": {2: 2}}, 0, 5, None, "no_progress", 2),
        # The long-range link is the one taken, so no missing ring link
        # is blamed for it.
        ({"r_rank": {2: NO_LINK}, "lrl_rank": {2: 2}}, 0, 5, None, "no_progress", 2),
        ({"r_rank": {1: 4}}, 0, 3, None, "crossed", 2),
        ({"l_rank": {6: 2}}, 7, 3, None, "crossed", 2),
        ({}, 0, 9, 3, "hop_cap", 3),
        ({}, 0, 9, None, None, 9),
    ]

    @pytest.mark.parametrize("edits, src, dst, max_hops, reason, hops", CASES)
    def test_one_walk_per_reason(self, edits, src, dst, max_hops, reason, hops):
        view = _edited_line(10, **edits)
        walk = route_batch(view, np.array([src]), np.array([dst]), max_hops=max_hops)
        assert walk.lost_reason.dtype == np.uint8
        assert _reason(int(walk.lost_reason[0])) == reason
        assert bool(walk.ok[0]) == (reason is None)
        assert walk.hops.tolist() == [hops]
        oracle = route_batch_reference(view, np.array([src]), np.array([dst]), max_hops=max_hops)
        assert oracle.lost_reason.tolist() == walk.lost_reason.tolist()

    def test_queries_that_never_start_have_no_reason(self):
        walk = route_batch(_line(10), np.array([-1, 3, 4]), np.array([3, 10, 4]))
        assert walk.ok.tolist() == [False, False, True]
        assert walk.lost_reason.tolist() == [0, 0, 0]

    def test_service_counts_and_reports_each_reason(self):
        view = _edited_line(10, r_rank={2: NO_LINK, 5: 5, 7: 9})
        service = OverlayService(
            SimpleNamespace(view=view), Observer(experiment="serve", params={})
        )
        # to 4: no link at 2; from 3 to 6: no progress at 5; from 6 to 8:
        # crossed at 7; from 0 to 1: arrives.
        sources = view.ids[[0, 3, 6, 0, 0]]
        targets = view.ids[[4, 6, 8, 1, 9]]
        outcome = service.lookup_batch(targets, sources, max_hops=4)
        assert [_reason(code) for code in outcome.lost_reason.tolist()] == [
            "no_link", "no_progress", "crossed", None, "no_link",
        ]
        lookups = service.observer.registry.counter("serve_lookups_total")
        assert lookups.value(outcome="lost", reason="no_link") == 2
        assert lookups.value(outcome="lost", reason="no_progress") == 1
        assert lookups.value(outcome="lost", reason="crossed") == 1
        assert lookups.value(outcome="lost", reason="hop_cap") == 0
        assert lookups.value(outcome="ok") == 1
        text = prometheus_text(service.observer.registry)
        assert 'repro_serve_lookups_total{outcome="lost",reason="crossed"} 1' in text
        assert validate_prometheus_text(text) == []
        code, doc = service._handle_lookup(
            {"target": repr(float(view.ids[8])), "source": repr(float(view.ids[6]))}
        )
        assert code == 200 and doc["lost_reason"] == "crossed" and doc["found"]
        code, doc = service._handle_lookup(
            {"target": repr(float(view.ids[1])), "source": repr(float(view.ids[0]))}
        )
        assert doc["ok"] and doc["lost_reason"] is None

    def test_empty_view_follows_the_width_rule(self):
        service = OverlayService(
            SimpleNamespace(view=None), Observer(experiment="serve", params={})
        )
        outcome = service.lookup_batch(np.array([0.5, 0.25]))
        assert outcome.hops.dtype == hop_dtype(0) == np.int8
        assert outcome.lost_reason.tolist() == [0, 0]
        assert service.lookup_batch(np.array([0.5]), max_hops=40000).hops.dtype == np.int32


# ----------------------------------------------------------------------
# Lemma 4.23 as a property over the converged overlay
# ----------------------------------------------------------------------
class TestLemma423Hypothesis:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=64, max_value=384),
        seed=st.integers(min_value=0, max_value=2**16),
        source=st.sampled_from(["reference", "fast", "sharded"]),
    )
    def test_hops_within_polylog_bound(self, n, seed, source):
        states = _converged_states(n, seed)
        view = _view_from(source, states)
        rng = np.random.default_rng(seed + 1)
        src = rng.integers(0, n, size=96)
        dst = rng.integers(0, n, size=96)
        result = route_batch(view, src, dst)
        assert result.ok.all()
        distance = np.abs(dst - src)
        # Structural: probr/probl never overshoot, so hops ≤ rank distance.
        assert np.all(result.hops <= distance)
        # Lemma 4.23 (expected hops O(ln^{2+ε} d)): the batch mean must sit
        # under the operational bound the SLO layer enforces.
        assert result.hops.mean() <= hop_bound(n)


# ----------------------------------------------------------------------
# Pinned mid-convergence trace: fast ≡ sharded, digest-locked
# ----------------------------------------------------------------------
class TestPinnedHopTrace:
    PINNED_DIGEST = (
        "118e610e1e22109efcb3a39b43950f4deda17810127a18e59678a6fb4d3d992f"
    )

    def _mid_convergence_view(self, mode: str) -> RouteView:
        states = sorted(
            TOPOLOGIES["random_tree"](96, np.random.default_rng(1234)),
            key=lambda s: s.id,
        )
        sim = FastSimulator.from_states(
            states,
            ProtocolConfig(),
            mode=mode,
            shards=3,
            rng=np.random.default_rng(55),
        )
        for _ in range(12):
            sim.step_round()
        return RouteView.from_engine(sim.engine, sim.round_index)

    def test_fast_and_sharded_agree_mid_convergence(self):
        fast = self._mid_convergence_view("batched")
        sharded = self._mid_convergence_view("sharded")
        np.testing.assert_array_equal(fast.ids, sharded.ids)
        rng = np.random.default_rng(99)
        src = rng.integers(0, fast.n, size=200)
        dst = rng.integers(0, fast.n, size=200)
        a = route_batch(fast, src, dst)
        b = route_batch(sharded, src, dst)
        np.testing.assert_array_equal(a.hops, b.hops)
        np.testing.assert_array_equal(a.ok, b.ok)
        digest = hashlib.sha256(
            a.hops.astype(np.int64).tobytes() + a.ok.astype(np.uint8).tobytes()
        ).hexdigest()
        # Mid-convergence some routes are legitimately lost; the pinned
        # digest locks the exact hop/ok trace across engine refactors.
        assert a.ok.sum() > 80
        assert digest == self.PINNED_DIGEST
