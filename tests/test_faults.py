"""Failure-injection tests: transient faults are just new initial states."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, build_network
from repro.graphs.build import stable_ring_states
from repro.graphs.predicates import is_sorted_ring
from repro.ids import generate_ids
from repro.sim.chaos import MessageLoss
from repro.sim.engine import Simulator
from repro.sim.faults import corrupt_random_pointers, crash_restart
from repro.topology.generators import random_tree_topology


def build_stable(n=24, seed=0):
    rng = np.random.default_rng(seed)
    states = stable_ring_states(n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng))
    net = build_network(states, ProtocolConfig())
    sim = Simulator(net, rng)
    sim.run(5)
    return net, sim, rng


def build_lossy(states, loss_rate, rng):
    """A wired network whose every send is dropped i.i.d. with *loss_rate*.

    The injector is bound to the caller's generator — one uniform draw per
    send, in send order, interleaved with the simulator's own draws; the
    pinned seeds below rely on that stream staying put.
    """
    net = build_network(states, ProtocolConfig(), wire=True)
    loss = MessageLoss(rate=loss_rate)
    loss.bind(rng)
    net.wire.set_wire_faults([loss])
    return net, loss


class TestMessageLoss:
    @pytest.mark.parametrize("loss", [0.1, 0.2, 0.3])
    def test_converges_despite_moderate_loss(self, loss):
        rng = np.random.default_rng(int(loss * 100))
        states = random_tree_topology(24, rng)
        net, injector = build_lossy(states, loss, rng)
        sim = Simulator(net, rng)
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=20_000,
            what=f"convergence at loss={loss}",
        )
        assert injector.dropped > 0  # the fault actually fired

    def test_high_loss_can_partition_permanently(self):
        """The lossless channel is load-bearing: a displaced identifier's
        only copy can ride a lost message, splitting the network forever.
        Pinned seed where this demonstrably happens at 50% loss."""
        import networkx as nx

        from repro.graphs.views import cc_graph
        from repro.sim.engine import StabilizationTimeout

        rng = np.random.default_rng(7)
        states = random_tree_topology(24, rng)
        net, _ = build_lossy(states, 0.5, rng)
        sim = Simulator(net, rng)
        with pytest.raises(StabilizationTimeout):
            sim.run_until(
                lambda nw: is_sorted_ring(nw.states()),
                max_rounds=3000,
                what="high loss",
            )
        g = cc_graph(net, live_only=True)
        assert nx.number_weakly_connected_components(g) > 1

    def test_loss_slows_but_does_not_break_stability(self):
        rng = np.random.default_rng(3)
        states = stable_ring_states(16, lrl="harmonic", rng=rng)
        net, _ = build_lossy(states, 0.5, rng)
        sim = Simulator(net, rng)
        for _ in range(50):
            sim.step_round()
            assert is_sorted_ring(net.states())

    def test_loss_rate_validated(self):
        with pytest.raises(ValueError):
            MessageLoss(rate=1.0)
        with pytest.raises(ValueError):
            MessageLoss(rate=-0.1)

    def test_lost_messages_counted_as_sent(self):
        rng = np.random.default_rng(1)
        states = stable_ring_states(8)
        net, injector = build_lossy(states, 0.9, rng)
        sim = Simulator(net, rng)
        sim.run(3)
        assert net.stats.total >= injector.dropped > 0


class TestPointerCorruption:
    def test_recovers_from_half_corrupted(self):
        net, sim, rng = build_stable(seed=11)
        count = corrupt_random_pointers(net, 0.5, rng)
        assert count == 12
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=5000,
            what="corruption recovery",
        )

    def test_recovers_from_fully_corrupted(self):
        net, sim, rng = build_stable(seed=13)
        corrupt_random_pointers(net, 1.0, rng)
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=10_000,
            what="full corruption recovery",
        )

    def test_zero_fraction_noop(self):
        net, sim, rng = build_stable(seed=17)
        assert corrupt_random_pointers(net, 0.0, rng) == 0
        assert is_sorted_ring(net.states())

    def test_fraction_validated(self):
        net, sim, rng = build_stable(seed=19)
        with pytest.raises(ValueError):
            corrupt_random_pointers(net, 1.5, rng)


class TestCrashRestart:
    def test_restarted_node_reintegrates(self):
        net, sim, rng = build_stable(seed=23)
        victim = net.ids[10]
        left, right = net.ids[9], net.ids[11]
        crash_restart(net, victim)
        state = net.node(victim).state
        assert not state.has_left and not state.has_right
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=5000,
            what="crash-restart recovery",
        )
        assert net.node(victim).state.l == left
        assert net.node(victim).state.r == right

    def test_multiple_simultaneous_restarts(self):
        net, sim, rng = build_stable(n=32, seed=29)
        for idx in (3, 11, 19, 27):
            crash_restart(net, net.ids[idx])
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=8000,
            what="multi-restart recovery",
        )

    def test_extremal_restart(self):
        """Restarting the minimum forces the ring edges to re-form."""
        net, sim, rng = build_stable(seed=31)
        crash_restart(net, net.ids[0])
        sim.run_until(
            lambda nw: is_sorted_ring(nw.states()),
            max_rounds=8000,
            what="extremal restart recovery",
        )
