"""Integration tests: full self-stabilization runs (Theorems 4.1–4.22).

These exercise the complete protocol stack — topology generation, the
simulator, all seven message types, and the phase predicates — end to end,
across topologies, schedulers, channel semantics, and protocol variants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.linearization_only import linearization_only_config
from repro.core.protocol import ProtocolConfig, build_network
from repro.graphs.predicates import (
    PHASE_CONNECTED,
    PHASE_SORTED_LIST,
    PHASE_SORTED_RING,
    is_sorted_ring,
    phase_predicates,
)
from repro.sim.engine import Simulator
from repro.sim.schedulers import AsyncScheduler
from repro.topology.generators import TOPOLOGIES
from repro.topology.serialization import states_from_json, states_to_json

N = 32
MAX_ROUNDS = 100 * N


def stabilize(states, rng, config=None, scheduler=None, dedup=True):
    net = build_network(states, config or ProtocolConfig(), dedup=dedup)
    sim = Simulator(net, rng, scheduler=scheduler)
    rec = sim.run_phases(
        phase_predicates(include_phase4=False), max_rounds=MAX_ROUNDS
    )
    return net, sim, rec


class TestAllTopologiesStabilize:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_sync_scheduler(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        net, _, rec = stabilize(TOPOLOGIES[name](N, rng), rng)
        assert rec.converged(PHASE_SORTED_RING)
        assert is_sorted_ring(net.states())

    @pytest.mark.parametrize("name", ["random_tree", "star", "corrupted_ring"])
    def test_async_scheduler(self, name):
        rng = np.random.default_rng(hash(name) % 2**31)
        net, _, rec = stabilize(
            TOPOLOGIES[name](N, rng), rng, scheduler=AsyncScheduler()
        )
        assert is_sorted_ring(net.states())

    @pytest.mark.parametrize("name", ["line", "clique"])
    def test_multiset_channels(self, name):
        """Dedup off (the paper's literal channel model) must also converge."""
        rng = np.random.default_rng(7)
        net, _, rec = stabilize(TOPOLOGIES[name](24, rng), rng, dedup=False)
        assert is_sorted_ring(net.states())


class TestPhaseOrdering:
    @pytest.mark.parametrize("name", ["line", "star", "random_tree", "gnp"])
    def test_phases_in_proof_order(self, name):
        rng = np.random.default_rng(11)
        _, _, rec = stabilize(TOPOLOGIES[name](N, rng), rng)
        c = rec.round_of(PHASE_CONNECTED)
        l = rec.round_of(PHASE_SORTED_LIST)
        r = rec.round_of(PHASE_SORTED_RING)
        assert c <= l <= r


class TestClosure:
    def test_no_regressions_long_run(self):
        rng = np.random.default_rng(13)
        net = build_network(TOPOLOGIES["star"](24, rng), ProtocolConfig())
        sim = Simulator(net, rng)
        rec = sim.run_phases(
            phase_predicates(include_phase4=False),
            max_rounds=MAX_ROUNDS,
            extra_rounds=300,
        )
        assert rec.regressions == []

    def test_stability_under_continued_move_forget(self):
        """The ring stays sorted while long-range links keep churning."""
        rng = np.random.default_rng(17)
        net, sim, _ = stabilize(TOPOLOGIES["random_tree"](24, rng), rng)
        lrl_before = {i: s.lrl for i, s in net.states().items()}
        sim.run(100)
        assert is_sorted_ring(net.states())
        lrl_after = {i: s.lrl for i, s in net.states().items()}
        assert lrl_before != lrl_after  # the small-world layer is alive


class TestProtocolVariants:
    def test_linearization_only_still_stabilizes(self):
        rng = np.random.default_rng(19)
        net, _, _ = stabilize(
            TOPOLOGIES["random_tree"](24, rng),
            rng,
            config=linearization_only_config(),
        )
        assert is_sorted_ring(net.states())

    def test_ring_protocol_without_move_forget(self):
        rng = np.random.default_rng(23)
        states = TOPOLOGIES["random_tree"](24, rng)
        initial_lrl = {s.id: s.lrl for s in states}
        net, _, _ = stabilize(
            states, rng, config=ProtocolConfig(move_and_forget=False)
        )
        assert is_sorted_ring(net.states())
        # Long-range links never executed a move: frozen at their initial
        # values (the encoder may have used lrl slots for structure).
        assert {i: s.lrl for i, s in net.states().items()} == initial_lrl


class TestRegressionReplay:
    """Any configuration that ever exposed a bug gets pinned here."""

    # The leave-recovery bug of development history: in-flight lin messages
    # re-taught a departed identifier to its neighbors (fixed by
    # Network.purge_identifier; see DESIGN.md §4.11).
    def test_leave_with_full_channels(self):
        from repro.churn.leave import leave_node
        from repro.graphs.build import stable_ring_states
        from repro.ids import generate_ids

        rng = np.random.default_rng(65)
        states = stable_ring_states(
            64, lrl="harmonic", rng=rng, ids=generate_ids(64, rng)
        )
        net = build_network(states, ProtocolConfig())
        sim = Simulator(net, rng)
        sim.run(5)  # fill channels with in-flight traffic
        leave_node(net, net.ids[30])
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=600,
            what="leave with full channels",
        )

    def test_async_random_tree_reaches_sorted_ring_weakly_connected(self):
        """An asynchronous random-tree start at n = 48 reaches the sorted
        ring with the channel-connectivity graph CC weakly connected.

        This does not exhibit the split DESIGN.md §4.12 repairs: the
        schedule predates a seed-breaking change to ``AsyncScheduler``,
        and it reaches the sorted ring with weak connectivity held even
        with the re-injection removed.  The split is not reproduced by a
        current test; ROADMAP.md item 20 searches for one.
        """
        from repro.experiments.common import seed_rng
        from repro.graphs.views import cc_graph

        import networkx as nx

        rng = seed_rng(2, "random_tree", "async", 2)
        states = TOPOLOGIES["random_tree"](48, rng)
        net = build_network(states, ProtocolConfig())
        sim = Simulator(net, rng, scheduler=AsyncScheduler())
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=8000,
            what="async random-tree convergence",
        )
        assert nx.is_weakly_connected(cc_graph(net))

    def test_serialized_roundtrip_stabilizes(self):
        """A config surviving JSON roundtrip behaves identically."""
        rng = np.random.default_rng(29)
        states = TOPOLOGIES["corrupted_ring"](20, rng)
        restored = states_from_json(states_to_json(states))
        net, _, _ = stabilize(restored, np.random.default_rng(29))
        assert is_sorted_ring(net.states())


class TestTwoAndThreeNodes:
    def test_two_nodes(self):
        rng = np.random.default_rng(31)
        states = TOPOLOGIES["line"](2, rng)
        net, _, _ = stabilize(states, rng)
        ids = net.ids
        s = net.states()
        assert s[ids[0]].r == ids[1] and s[ids[1]].l == ids[0]
        assert s[ids[0]].ring == ids[1] and s[ids[1]].ring == ids[0]

    def test_three_nodes_from_star(self):
        rng = np.random.default_rng(37)
        net, _, _ = stabilize(TOPOLOGIES["star"](3, rng), rng)
        assert is_sorted_ring(net.states())
