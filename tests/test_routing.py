"""Unit tests for greedy routing (repro.routing) and the probe walk of
experiment E3 (route_batch over RouteView.from_ranks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kleinberg import kleinberg_lrl_ranks
from repro.graphs.build import stable_ring_states
from repro.routing.greedy import greedy_route_hops, greedy_route_states
from repro.routing.stats import hops_by_distance, log_bins
from repro.serve.routing import NO_LINK, RouteView, route_batch


def probe_hops(lrl: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Algorithm 10's probe as E3 walks it: the origin's forced ring hop,
    then Algorithms 5/6 on route_batch over the stable line."""
    first = src + np.sign(dst - src)
    walk = route_batch(RouteView.from_ranks(lrl), first, dst)
    assert walk.ok.all()
    return walk.hops + (dst != src)


class TestGreedyKernel:
    def test_ring_only_hops_equal_ring_distance(self):
        n = 16
        src = np.array([0, 0, 0, 5])
        dst = np.array([1, 8, 15, 5])
        hops = greedy_route_hops(n, None, src, dst)
        assert hops.tolist() == [1, 8, 1, 0]

    def test_self_query_zero_hops(self):
        hops = greedy_route_hops(8, None, np.array([3]), np.array([3]))
        assert hops[0] == 0

    def test_shortcut_used_when_it_helps(self):
        n = 16
        lrl = np.arange(n)  # all at home...
        lrl[0] = 8  # ...except node 0 jumps to 8
        hops = greedy_route_hops(n, lrl, np.array([0]), np.array([8]))
        assert hops[0] == 1

    def test_shortcut_ignored_when_worse(self):
        n = 16
        lrl = np.arange(n)
        lrl[0] = 8
        hops = greedy_route_hops(n, lrl, np.array([0]), np.array([1]))
        assert hops[0] == 1  # direct ring step, not the shortcut

    def test_greedy_never_worse_than_ring(self, rng):
        n = 128
        lrl = kleinberg_lrl_ranks(n, rng)
        src = rng.integers(0, n, 200)
        dst = rng.integers(0, n, 200)
        with_links = greedy_route_hops(n, lrl, src, dst)
        ring_only = greedy_route_hops(n, None, src, dst)
        assert (with_links <= ring_only).all()

    def test_harmonic_beats_ring_on_average(self, rng):
        n = 1024
        lrl = kleinberg_lrl_ranks(n, rng)
        src = rng.integers(0, n, 500)
        dst = rng.integers(0, n, 500)
        assert greedy_route_hops(n, lrl, src, dst).mean() < 0.3 * (
            greedy_route_hops(n, None, src, dst).mean()
        )

    def test_input_validation(self):
        with pytest.raises(ValueError, match="shape"):
            greedy_route_hops(8, None, np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError, match="ranks"):
            greedy_route_hops(8, None, np.array([9]), np.array([0]))
        with pytest.raises(ValueError, match="lrl"):
            greedy_route_hops(8, np.zeros(4, dtype=int), np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="lrl"):
            greedy_route_hops(8, np.full(8, -2), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            greedy_route_hops(1, None, np.array([0]), np.array([0]))

    def test_max_hops_cap_raises_on_bug(self):
        with pytest.raises(RuntimeError):
            greedy_route_hops(16, None, np.array([0]), np.array([8]), max_hops=2)


class TestStatesAdapter:
    def test_view_from_states(self, rng):
        states = stable_ring_states(8, lrl="harmonic", rng=rng)
        view = RouteView.from_states(states)
        assert view.lrl_rank.shape == (8,)
        assert view.ids.tolist() == sorted(s.id for s in states)

    def test_dangling_lrl_treated_as_home(self):
        states = stable_ring_states(4)
        states[0].lrl = 0.987654321  # not a member
        assert RouteView.from_states(states).lrl_rank[0] == NO_LINK
        ordered = [s.id for s in states]
        # Greedy routing reads the dead link as no shortcut at all.
        hops = greedy_route_states(states, [ordered[0]], [ordered[2]])
        assert hops.tolist() == [2]

    def test_route_states_matches_kernel(self, rng):
        states = stable_ring_states(32, lrl="harmonic", rng=rng)
        ordered = [s.id for s in states]
        hops = greedy_route_states(states, [ordered[0]], [ordered[16]])
        lrl = RouteView.from_states(states).lrl_rank
        kernel = greedy_route_hops(32, lrl, np.array([0]), np.array([16]))
        assert hops.tolist() == kernel.tolist()

    def test_route_states_ring_only(self):
        states = stable_ring_states(8)
        ordered = [s.id for s in states]
        hops = greedy_route_states(states, [ordered[0]], [ordered[4]], use_lrl=False)
        assert hops[0] == 4


class TestProbeReplay:
    def test_plain_ring_probe_walks_distance(self):
        n = 16
        lrl = np.arange(n)  # no shortcuts anywhere
        hops = probe_hops(lrl, np.array([2]), np.array([9]))
        assert hops[0] == 7

    def test_leftward_probe(self):
        n = 16
        lrl = np.arange(n)
        hops = probe_hops(lrl, np.array([9]), np.array([2]))
        assert hops[0] == 7

    def test_first_hop_forced_to_ring_neighbor(self):
        n = 16
        lrl = np.arange(n)
        lrl[2] = 9  # source's own link points at the destination
        hops = probe_hops(lrl, np.array([2]), np.array([9]))
        assert hops[0] == 7  # not 1: Algorithm 10 emits via p.r

    def test_intermediate_shortcut_taken(self):
        n = 16
        lrl = np.arange(n)
        lrl[3] = 8  # the node after the source jumps
        hops = probe_hops(lrl, np.array([2]), np.array([9]))
        assert hops[0] == 1 + 1 + 1  # 2→3, 3→8 (lrl), 8→9

    def test_shortcut_never_overshoots(self):
        n = 16
        lrl = np.arange(n)
        lrl[3] = 12  # beyond the destination: must not be used
        hops = probe_hops(lrl, np.array([2]), np.array([9]))
        assert hops[0] == 7

    def test_zero_distance(self):
        n = 8
        lrl = np.arange(n)
        hops = probe_hops(lrl, np.array([3]), np.array([3]))
        assert hops[0] == 0

    def test_probe_walks_from_states(self, rng):
        states = stable_ring_states(64, lrl="harmonic", rng=rng)
        lrl = RouteView.from_states(states).lrl_rank
        src = np.arange(64)
        away = lrl != src
        hops = probe_hops(lrl, src[away], lrl[away])
        distances = np.abs(lrl[away] - src[away])
        assert hops.shape == distances.shape
        assert (hops >= 1).all()
        assert (hops <= distances).all()  # shortcuts only ever help


class TestHopStats:
    def test_log_bins_cover_range(self):
        edges = log_bins(1000)
        assert edges[0] == 1 and edges[-1] == 1000
        assert (np.diff(edges) > 0).all()

    def test_hops_by_distance_rows(self):
        hops = np.array([1, 2, 3, 10, 20])
        d = np.array([1, 2, 4, 100, 200])
        rows = hops_by_distance(hops, d)
        assert rows
        assert all(r["count"] >= 1 for r in rows)
        total = sum(r["count"] for r in rows)
        assert total == 5

    def test_empty_input(self):
        assert hops_by_distance(np.array([]), np.array([])) == []

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            hops_by_distance(np.array([1]), np.array([1, 2]))
