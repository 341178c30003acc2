"""Chaos subsystem: fault plans, injectors, the guard, monitors, campaigns.

The headline regression here is the permanent-split-under-loss scenario of
``e21``: with a fixed seed, a loss burst during cold convergence destroys
the baseline network's weak connectivity forever, while the guarded-handoff
transport turns the same campaign into delayed convergence (ISSUE 2).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.messages import MessageType, lin
from repro.core.protocol import ProtocolConfig, build_network
from repro.experiments.e21_chaos import run_campaign
from repro.graphs.build import stable_ring_states
from repro.graphs.predicates import is_sorted_ring
from repro.ids import generate_ids
from repro.sim.chaos import (
    ChaosCampaign,
    ConvergenceProbe,
    CrashRestart,
    FaultInjector,
    FaultPlan,
    GuardPolicy,
    MessageDelay,
    MessageDuplication,
    MessageLoss,
    PartitionDetector,
    PointerCorruption,
    SafetyProbe,
    WeakConnectivityWatchdog,
    Window,
)
from repro.sim.engine import Simulator
from repro.sim.faults import corrupt_random_pointers
from repro.sim.invariants import check_network_invariants
from repro.sim.schedulers import AsyncScheduler
from repro.topology.generators import random_tree_topology


def build_stable_chaos(n=16, seed=0, *, guard=None):
    rng = np.random.default_rng(seed)
    states = stable_ring_states(n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng))
    net = build_network(
        states, ProtocolConfig(), wire=True, guard=guard
    )
    sim = Simulator(net, rng)
    sim.run(5)
    assert is_sorted_ring(net.states())
    return net, sim, rng


def build_quiet_chaos(n=8, seed=0, *, guard=None):
    """A stable-ring wired network with no protocol traffic: the wire and
    the guard counters stay at zero until the test itself sends frames."""
    rng = np.random.default_rng(seed)
    states = stable_ring_states(n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng))
    net = build_network(
        states, ProtocolConfig(), wire=True, guard=guard
    )
    assert is_sorted_ring(net.states())
    return net


class DropAll(FaultInjector):
    """Test-only injector: destroy every frame on the wire."""

    def on_wire(self, dest, frame, network):
        return []


class ChannelWipe(FaultInjector):
    """Test-only injector: destroy all in-flight protocol traffic.

    Pointer corruption alone heals within its own round — the pre-fault
    advertisements still sitting in the channels re-teach the true
    neighbors immediately.  Wiping the channels makes the transient fault
    actually observable by the monitors."""

    def on_round(self, simulator):
        network = simulator.network
        network.flush()  # pull staged sends into channels first
        for nid in network.ids:
            network.channel(nid).clear()


# ----------------------------------------------------------------------
# FaultPlan DSL
# ----------------------------------------------------------------------
class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(start=-1)
        with pytest.raises(ValueError):
            Window(start=5, stop=5)
        with pytest.raises(ValueError):
            Window(start=0, period=0)

    def test_contains_half_open(self):
        w = Window(start=2, stop=5)
        assert [w.contains(r) for r in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_open_ended(self):
        w = Window(start=3)
        assert not w.contains(2)
        assert w.contains(10_000)

    def test_fires_respects_period(self):
        w = Window(start=4, stop=11, period=3)
        assert [r for r in range(12) if w.fires(r)] == [4, 7, 10]


class TestFaultPlan:
    def test_default_labels_and_len(self):
        plan = (
            FaultPlan(seed=1)
            .schedule(MessageLoss(rate=0.1))
            .schedule(PointerCorruption(fraction=0.5), at=3)
        )
        assert len(plan) == 2
        assert [sf.label for sf in plan] == [
            "messageloss#0",
            "pointercorruption#1",
        ]

    def test_duplicate_label_rejected(self):
        plan = FaultPlan(seed=1).schedule(MessageLoss(rate=0.1), label="x")
        with pytest.raises(ValueError, match="duplicate"):
            plan.schedule(MessageLoss(rate=0.2), label="x")

    def test_at_is_exclusive_with_start_stop(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=1).schedule(MessageLoss(rate=0.1), at=3, stop=9)

    def test_at_is_a_one_round_window(self):
        plan = FaultPlan(seed=1).schedule(
            PointerCorruption(fraction=1.0), at=4
        )
        sf = next(iter(plan))
        assert (sf.window.start, sf.window.stop) == (4, 5)

    def test_schedule_binds_a_private_generator(self):
        injector = MessageLoss(rate=0.5)
        with pytest.raises(RuntimeError, match="never bound"):
            injector.rng
        FaultPlan(seed=9).schedule(injector)
        assert injector.rng.random() is not None

    def test_derive_rng_is_deterministic(self):
        a = FaultPlan(seed=77).derive_rng(0, "loss")
        b = FaultPlan(seed=77).derive_rng(0, "loss")
        c = FaultPlan(seed=77).derive_rng(1, "loss")
        assert list(a.random(4)) == list(b.random(4))
        assert list(a.random(4)) != list(c.random(4))

    def test_compose_resuffixes_clashing_labels(self):
        a = FaultPlan(seed=1).schedule(MessageLoss(rate=0.1), label="loss")
        b = FaultPlan(seed=2).schedule(MessageLoss(rate=0.2), label="loss")
        combined = a.compose(b)
        assert [sf.label for sf in combined] == ["loss", "loss~1"]
        assert len(a) == len(b) == 1  # inputs untouched

    def test_driver_introspection(self):
        loss = MessageLoss(rate=0.1)
        scramble = PointerCorruption(fraction=0.5)
        plan = (
            FaultPlan(seed=1)
            .schedule(loss, start=2, stop=6, label="loss")
            .schedule(scramble, at=4, label="scramble")
        )
        assert [sf.label for sf in plan.starting(2)] == ["loss"]
        assert [sf.label for sf in plan.ending(6)] == ["loss"]
        assert plan.active_wire_faults(3) == [loss]
        assert plan.active_wire_faults(6) == []
        assert [sf.injector for sf in plan.firing(4)] == [scramble]
        assert plan.firing(3) == []  # wire faults have no round hook
        assert plan.horizon() == 6
        assert FaultPlan(seed=1).schedule(loss).horizon() is None


# ----------------------------------------------------------------------
# Injectors
# ----------------------------------------------------------------------
class TestInjectors:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MessageLoss(rate=1.0)
        with pytest.raises(ValueError):
            MessageDuplication(rate=1.5)
        with pytest.raises(ValueError):
            MessageDuplication(rate=0.5, copies=0)
        with pytest.raises(ValueError):
            MessageDelay(max_delay=-1)
        with pytest.raises(ValueError):
            MessageDelay(max_delay=2, mode="bogus")
        with pytest.raises(ValueError):
            PointerCorruption(fraction=2.0)
        with pytest.raises(ValueError):
            CrashRestart(count=0)

    def test_loss_drops_deterministically(self):
        drops = []
        for _ in range(2):
            injector = MessageLoss(rate=0.5)
            FaultPlan(seed=3).schedule(injector, label="loss")
            outcomes = [
                injector.on_wire(0.5, lin(0.25), None) for _ in range(64)
            ]
            drops.append([out == [] for out in outcomes])
        assert drops[0] == drops[1]
        assert injector.dropped == sum(drops[1])
        assert 0 < injector.dropped < 64

    def test_duplication_emits_extra_copies(self):
        injector = MessageDuplication(rate=1.0, copies=2)
        FaultPlan(seed=3).schedule(injector)
        out = injector.on_wire(0.5, lin(0.25), None)
        assert len(out) == 3
        assert injector.duplicated == 2

    def test_hash_delay_is_content_deterministic(self):
        injector = MessageDelay(max_delay=5, mode="hash")
        frame = lin(0.25)
        d = injector.delay_for(0.5, frame)
        assert d == injector.delay_for(0.5, frame)
        assert 0 <= d <= 5
        assert MessageDelay(max_delay=0, mode="hash").delay_for(0.5, frame) == 0

    def test_random_delay_bounded(self):
        injector = MessageDelay(max_delay=3)
        FaultPlan(seed=3).schedule(injector)
        for _ in range(32):
            out = injector.on_wire(0.5, lin(0.25), None)
            if out is not None:
                (extra, dest, frame), = out
                assert 1 <= extra <= 3


# ----------------------------------------------------------------------
# The wired network
# ----------------------------------------------------------------------
class TestChaosNetwork:
    def test_no_faults_matches_plain_network(self):
        """An idle wire must be observationally identical to Network."""
        results = []
        for wire in (False, True):
            rng = np.random.default_rng(5)
            states = random_tree_topology(20, rng)
            net = build_network(states, ProtocolConfig(), wire=wire)
            sim = Simulator(net, rng)
            rounds = sim.run_until(
                lambda nw: is_sorted_ring(nw.states()),
                max_rounds=20_000,
                what="equivalence",
            )
            results.append((rounds, net.stats.total))
        assert results[0] == results[1]

    def test_wire_preserves_next_round_delivery(self):
        net, sim, rng = build_stable_chaos(n=8, seed=1)
        a, b = net.ids[0], net.ids[1]
        net.send(b, lin(a))
        assert net.pending_total() > 0
        net.flush()
        assert lin(a) in net.channel(b).peek_all()

    def test_departed_destination_dropped_at_source(self):
        net, sim, rng = build_stable_chaos(n=8, seed=2)
        victim = net.ids[3]
        net.remove_node(victim)
        before = net.dropped
        net.send(victim, lin(net.ids[0]))
        assert net.dropped == before + 1


# ----------------------------------------------------------------------
# Guarded handoffs
# ----------------------------------------------------------------------
class TestGuardPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GuardPolicy(types=frozenset())
        with pytest.raises(ValueError):
            GuardPolicy(retry_interval=0)
        with pytest.raises(ValueError):
            GuardPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            GuardPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            GuardPolicy(receipt_memory=0)

    def test_critical_types_default(self):
        policy = GuardPolicy()
        assert policy.types == frozenset(
            {MessageType.LIN, MessageType.RESRING}
        )


class TestGuardedHandoff:
    def test_retransmits_through_total_loss_until_delivered(self):
        """At-least-once: the handoff survives a window that kills every
        frame, via retransmission once the wire clears."""
        net = build_quiet_chaos(
            seed=3, guard=GuardPolicy(retry_interval=1, backoff=1.0)
        )
        a, b = net.ids[0], net.ids[1]
        net.wire.set_wire_faults([DropAll()])
        net.send_from(a, b, lin(a))
        assert net.wire.guard.stats.guarded == 1
        for _ in range(3):
            net.flush()  # retransmissions die on the faulty wire too
        assert net.wire.guard.stats.delivered == 0
        assert len(net.wire.guard) == 1  # still buffered, payload still alive
        net.wire.set_wire_faults(())
        for _ in range(4):
            net.flush()
        stats = net.wire.guard.stats
        assert stats.delivered == 1
        assert stats.retransmits >= 3
        assert stats.acks_received == 1
        assert len(net.wire.guard) == 0  # acked and cleared
        assert lin(a) in net.channel(b).peek_all()

    def test_duplicate_envelopes_deliver_once_but_ack_twice(self):
        net = build_quiet_chaos(seed=4, guard=GuardPolicy())
        a, b = net.ids[0], net.ids[1]
        dup = MessageDuplication(rate=1.0, copies=1)
        FaultPlan(seed=1).schedule(dup)
        net.wire.set_wire_faults([dup])
        net.send_from(a, b, lin(a))
        net.wire.set_wire_faults(())
        for _ in range(3):
            net.flush()
        stats = net.wire.guard.stats
        assert stats.delivered == 1
        assert stats.duplicates == 1
        assert stats.acks_sent == 2
        assert net.channel(b).peek_all().count(lin(a)) == 1

    def test_bounded_redundancy_abandons_after_max_attempts(self):
        net = build_quiet_chaos(
            seed=5,
            guard=GuardPolicy(retry_interval=1, backoff=1.0, max_attempts=3),
        )
        a, b = net.ids[0], net.ids[1]
        net.wire.set_wire_faults([DropAll()])
        net.send_from(a, b, lin(a))
        for _ in range(6):
            net.flush()
        stats = net.wire.guard.stats
        assert stats.abandoned == 1
        assert stats.retransmits == 2  # attempts 2 and 3 of max_attempts=3
        assert len(net.wire.guard) == 0

    def test_unguarded_types_bypass_the_transport(self):
        net = build_quiet_chaos(seed=6, guard=GuardPolicy())
        from repro.core.messages import probr

        a, b = net.ids[0], net.ids[1]
        net.send_from(a, b, probr(b))
        assert net.wire.guard.stats.guarded == 0
        net.flush()
        assert probr(b) in net.channel(b).peek_all()

    def test_departed_destination_purges_buffer(self):
        net = build_quiet_chaos(seed=7, guard=GuardPolicy())
        a, b = net.ids[0], net.ids[4]
        net.wire.set_wire_faults([DropAll()])
        net.send_from(a, b, lin(a))
        net.wire.set_wire_faults(())
        assert len(net.wire.guard) == 1
        net.remove_node(b)
        assert len(net.wire.guard) == 0
        assert net.wire.guard.stats.abandoned == 1

    def test_in_flight_counts_retransmit_buffer(self):
        """The buffered payload keeps its identifiers alive for the
        connectivity views — the mechanism that prevents permanent splits."""
        net = build_quiet_chaos(seed=8, guard=GuardPolicy())
        a, b = net.ids[0], net.ids[1]
        net.wire.set_wire_faults([DropAll()])
        net.send_from(a, b, lin(a))
        net.flush()
        net.wire.set_wire_faults(())
        assert (b, lin(a)) in net.in_flight


# ----------------------------------------------------------------------
# Monitors
# ----------------------------------------------------------------------
class TestMonitors:
    def test_all_healthy_on_stable_ring(self):
        net, sim, rng = build_stable_chaos(n=12, seed=9)
        for monitor in (
            WeakConnectivityWatchdog(),
            PartitionDetector(),
            SafetyProbe(),
            ConvergenceProbe(),
            ConvergenceProbe(phase="list"),
            ConvergenceProbe(phase="lcc"),
        ):
            assert monitor.healthy(net), monitor.name

    def test_partition_detector_counts_components(self):
        # Two stable rings over disjoint identifier ranges, fused into one
        # network: nothing references across the gap.
        low = stable_ring_states(4, ids=[0.1, 0.15, 0.2, 0.25])
        high = stable_ring_states(4, ids=[0.6, 0.65, 0.7, 0.75])
        net = build_network(low + high, ProtocolConfig())
        detector = PartitionDetector()
        assert detector.components(net) == 2
        assert not detector.healthy(net)
        assert not WeakConnectivityWatchdog().healthy(net)
        assert "components=2" in detector.detail(net)

    def test_empty_network_is_unhealthy(self):
        net = build_network([], ProtocolConfig())
        assert not WeakConnectivityWatchdog().healthy(net)
        assert PartitionDetector().components(net) == 0
        assert not ConvergenceProbe().healthy(net)

    def test_safety_probe_reports_violation(self):
        net, sim, rng = build_stable_chaos(n=8, seed=10)
        probe = SafetyProbe()
        assert probe.healthy(net)
        net.node(net.ids[0]).state.age = -5
        assert not probe.healthy(net)
        assert "age" in probe.last_violation

    def test_convergence_probe_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            ConvergenceProbe(phase="phase9")


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
class TestChaosCampaign:
    def test_wire_faults_require_chaos_network(self):
        rng = np.random.default_rng(0)
        net = build_network(stable_ring_states(8), ProtocolConfig())
        plan = FaultPlan(seed=0).schedule(MessageLoss(rate=0.1))
        with pytest.raises(TypeError, match="has no wire"):
            ChaosCampaign(Simulator(net, rng), plan)

    def test_negative_rounds_rejected(self):
        net, sim, rng = build_stable_chaos(n=8, seed=11)
        campaign = ChaosCampaign(sim, FaultPlan(seed=0))
        with pytest.raises(ValueError):
            campaign.run(-1)

    def test_transient_fault_detected_and_reconverged(self):
        # Corruption alone heals within its round via pre-fault in-flight
        # traffic, so the fault also wipes the channels (cold recovery).
        net, sim, rng = build_stable_chaos(n=16, seed=12)
        plan = (
            FaultPlan(seed=12)
            .schedule(ChannelWipe(), at=1, label="wipe")
            .schedule(PointerCorruption(fraction=1.0), at=1, label="scramble")
        )
        campaign = ChaosCampaign(
            sim, plan, monitors=(ConvergenceProbe(), SafetyProbe())
        )
        result = campaign.run(2000, stop_when_healthy=True)
        assert result.healthy
        assert result.rounds < 2000  # stop_when_healthy fired
        burst = next(
            b for b in result.recovery.bursts if b.label == "scramble"
        )
        assert burst.detect_round is not None
        assert burst.reconverge_round is not None
        kinds = [e.kind for e in result.trace.events]
        assert "window-open" in kinds and "window-close" in kinds
        assert "detect" in kinds and "reconverge" in kinds

    def test_crash_restart_reintegrates_under_async_scheduler(self):
        rng = np.random.default_rng(13)
        states = stable_ring_states(
            24, lrl="harmonic", rng=rng, ids=generate_ids(24, rng)
        )
        net = build_network(states, ProtocolConfig(), wire=True)
        sim = Simulator(net, rng, scheduler=AsyncScheduler())
        sim.run(5)
        victims = (net.ids[3], net.ids[17])
        plan = FaultPlan(seed=13).schedule(
            CrashRestart(node_ids=victims), at=0, label="crash"
        )
        campaign = ChaosCampaign(sim, plan, monitors=(ConvergenceProbe(),))
        result = campaign.run(5000, stop_when_healthy=True)
        assert result.healthy
        assert is_sorted_ring(net.states())
        for victim in victims:
            assert net.node(victim).state.has_left

    def test_corruption_preserves_model_invariants(self):
        net, sim, rng = build_stable_chaos(n=16, seed=14)
        assert corrupt_random_pointers(net, 1.0, rng) == 16
        # The transient-fault model scrambles pointers but never leaves the
        # compare-store-send model: l < id < r and member-only ids hold.
        check_network_invariants(net, check_membership=True)


class TestCampaignDeterminism:
    def test_identical_plans_yield_byte_identical_traces(self):
        texts = []
        for _ in range(2):
            _net, result = run_campaign(
                n=48,
                campaign_seed=2,
                loss_rate=0.2,
                burst_stop=40,
                rounds=80,
                guard=True,
            )
            texts.append(result.trace.to_text())
        assert texts[0] == texts[1]
        assert len(texts[0]) > 0


class TestPermanentSplitRegression:
    """ISSUE 2 acceptance: loss_rate=0.2 on N=256, fixed seed."""

    def test_baseline_loss_burst_splits_permanently(self):
        net, result = run_campaign(
            n=256,
            campaign_seed=2,
            loss_rate=0.2,
            burst_stop=100,
            rounds=200,
            guard=False,
        )
        assert result.partition_round is not None
        assert result.rounds < 200  # stop_on_partition ended the run early
        assert PartitionDetector().components(net) > 1
        # No frames left in transit can ever rejoin the components: the
        # split is permanent (weak connectivity is assumed, not restored).
        assert not result.final_health["weak-connectivity"]

    def test_guard_turns_the_same_campaign_into_convergence(self):
        net, result = run_campaign(
            n=256,
            campaign_seed=2,
            loss_rate=0.2,
            burst_stop=100,
            rounds=130,
            guard=True,
        )
        assert result.partition_round is None
        assert result.healthy
        assert is_sorted_ring(net.states())
        burst = result.recovery.bursts[0]
        assert burst.time_to_detect is not None
        assert burst.time_to_reconverge is not None
        assert burst.time_to_reconverge >= 0
        stats = net.wire.guard.stats
        assert stats.abandoned == 0  # no handoff exhausted its retries
        assert stats.retransmits > 0  # the guard actually worked for it
