"""Serving route kernel (ISSUE 10): conformance, Lemma 4.23, pinned traces.

Three layers of evidence that the serving layer's hop kernel is the
paper's probr/probl:

* exact hop-for-hop conformance of :func:`repro.serve.route_batch`
  against the deterministic probe replay
  (:func:`repro.routing.paths.probe_path_hops`) on the converged
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

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.graphs.build import stable_ring_states
from repro.ids import generate_ids
from repro.routing.greedy import lrl_ranks_from_states
from repro.routing.paths import probe_path_hops
from repro.serve.routing import NO_LINK, RouteView, route_batch
from repro.serve.slo import hop_bound
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import TOPOLOGIES


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
        for column in ("ids", "l_rank", "r_rank", "lrl_rank", "sc_right", "sc_left"):
            np.testing.assert_array_equal(
                getattr(view, column), getattr(reference, column)
            )


# ----------------------------------------------------------------------
# Hop-for-hop conformance with the probe replay (Algorithms 5/6)
# ----------------------------------------------------------------------
class TestProbeConformance:
    def test_route_batch_matches_probe_replay(self):
        n = 256
        states = _converged_states(n, 11)
        lrl, _ = lrl_ranks_from_states(states)
        rng = np.random.default_rng(5)
        sources = rng.integers(0, n, size=500)
        dests = rng.integers(0, n, size=500)
        expected = probe_path_hops(
            n, lrl, sources, dests, first_hop_ring=False
        )
        for source in ("reference", "fast", "sharded"):
            view = _view_from(source, states)
            got = route_batch(view, sources, dests)
            assert got.ok.all(), source
            np.testing.assert_array_equal(got.hops, expected, err_msg=source)

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
