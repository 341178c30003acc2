"""The batched chaos engine: determinism, recovery regression, guard pins.

``mode="chaos"`` trades draw-for-draw equivalence for throughput (its RNG
is batched, so individual draws differ from the reference — the exact
oracle is ``mode="mirror-chaos"``, pinned in
``tests/test_fast_chaos_differential.py``).  What it must still deliver,
pinned here:

* **determinism** — same seed, same campaign, byte-identical trace (the
  canonical E21 quick campaign is pinned by digest);
* **the E21 claim** — a loss burst splits the bare overlay permanently
  while the guarded transport converges with zero abandoned handoffs;
* **fail-loudly contracts** — a guard on a non-chaos engine, a custom
  wire injector without a vectorized executor, wire faults on a plain
  transport, and scheduler faults on the batched engines all raise
  ``TypeError``/``ValueError`` instead of silently skipping faults.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig
from repro.experiments import e21_chaos
from repro.sim.chaos.campaign import ChaosCampaign
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.chaos.injectors import (
    FaultInjector,
    MessageLoss,
    SchedulerFault,
)
from repro.sim.chaos.plan import FaultPlan
from repro.sim.fast import ChaosFastEngine, FastSimulator
from repro.sim.schedulers import SynchronousScheduler
from repro.topology.generators import line_topology

#: SHA-256 of ``trace.to_text()`` for the canonical quick campaign
#: (n=48, campaign_seed=2, loss_rate=0.2, burst_stop=40, rounds=80,
#: guard=True, engine="fast").  PCG64 draw streams are stable across
#: platforms, so this digest is a hard regression pin.
CANONICAL_TRACE_SHA256 = (
    "421ad8d66bbe796b3cd653e15fc04bac7a2fc6306a352f7dc7225c1b5dad3cfe"
)


def quick_campaign():
    return e21_chaos.run_campaign(
        n=48,
        campaign_seed=2,
        loss_rate=0.2,
        burst_stop=40,
        rounds=80,
        guard=True,
        engine="fast",
    )


class TestFastCampaignDeterminism:
    def test_trace_byte_identical_across_runs(self):
        host1, res1 = quick_campaign()
        host2, res2 = quick_campaign()
        assert res1.trace.to_text() == res2.trace.to_text()
        assert host1.state_snapshot() == host2.state_snapshot()
        assert vars(host1.guard.stats) == vars(host2.guard.stats)
        assert host1.stats.totals_by_type == host2.stats.totals_by_type

    def test_canonical_trace_digest(self):
        _, res = quick_campaign()
        text = res.trace.to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_TRACE_SHA256


class TestFastPermanentSplitRegression:
    """The E21 scenario on ``engine="fast"``: the batched RNG draws its
    own fault pattern, so the split threshold was re-established
    empirically (loss 0.35 splits every probed baseline seed)."""

    N = 256
    SEED = 2
    LOSS = 0.35
    BURST_STOP = 100

    def test_baseline_splits_permanently(self):
        host, res = e21_chaos.run_campaign(
            n=self.N,
            campaign_seed=self.SEED,
            loss_rate=self.LOSS,
            burst_stop=self.BURST_STOP,
            rounds=200,
            guard=False,
            engine="fast",
        )
        assert res.partition_round is not None
        assert not res.healthy
        assert host.guard is None

    def test_guard_recovers_with_no_abandoned_handoffs(self):
        host, res = e21_chaos.run_campaign(
            n=self.N,
            campaign_seed=self.SEED,
            loss_rate=self.LOSS,
            burst_stop=self.BURST_STOP,
            rounds=130,
            guard=True,
            engine="fast",
        )
        assert res.partition_round is None
        assert res.healthy
        stats = host.guard.stats
        assert stats.abandoned == 0
        assert stats.retransmits > 0
        assert stats.overhead_frames() == stats.retransmits + stats.acks_sent


class NoExecutorInjector(FaultInjector):
    """A wire injector with no vectorized counterpart."""

    def on_wire(self, dest, frame, network):
        return []


class TestFailLoudlyContracts:
    def setup_method(self):
        self.states = line_topology(16, np.random.default_rng(0))

    def test_guard_requires_chaos_mode(self):
        with pytest.raises(ValueError, match="guard requires a chaos engine"):
            FastSimulator.from_states(
                self.states,
                ProtocolConfig(),
                mode="batched",
                guard=GuardPolicy(),
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mirror-chaos"):
            FastSimulator.from_states(
                self.states, ProtocolConfig(), mode="turbo"
            )

    def test_custom_injector_rejected_by_batched_engine(self):
        sim = FastSimulator.from_states(
            self.states, ProtocolConfig(), mode="chaos"
        )
        engine = sim.engine
        assert isinstance(engine, ChaosFastEngine)
        injector = NoExecutorInjector()
        injector.bind(np.random.default_rng(1))
        with pytest.raises(TypeError, match="vectorized wire executor"):
            engine.set_wire_faults([injector])

    def test_custom_injector_accepted_by_mirror_chaos(self):
        sim = FastSimulator.from_states(
            self.states, ProtocolConfig(), mode="mirror-chaos"
        )
        injector = NoExecutorInjector()
        injector.bind(np.random.default_rng(1))
        sim.engine.set_wire_faults([injector])  # must not raise

    def test_wire_faults_need_chaos_transport(self):
        sim = FastSimulator.from_states(
            self.states, ProtocolConfig(), mode="batched"
        )
        plan = FaultPlan(seed=0).schedule(
            MessageLoss(rate=0.5), start=0, stop=10, label="loss"
        )
        with pytest.raises(TypeError, match="ChaosNetwork"):
            ChaosCampaign(sim, plan, ())

    def test_scheduler_fault_installs_wave_fault_on_fast_simulator(self):
        sim = FastSimulator.from_states(
            self.states, ProtocolConfig(), mode="chaos"
        )
        fault = SchedulerFault(permute_waves=True, starvation=0.2)
        fault.bind(np.random.default_rng(7))
        fault.on_window_start(sim)
        wave = fault._wave_fault
        assert wave is not None
        sim.run(8)
        # Rounds with an empty inbox have no waves to permute, so the
        # counter can trail the round count by a little.
        assert 1 <= wave.permuted_rounds <= 8
        assert wave.starved_rows > 0
        fault.on_window_end(sim)
        assert sim.engine._wave_fault is None
        assert fault._wave_fault is None
        # Perturbed dispatch must not lose membership or break invariants
        # visible at the snapshot surface.
        assert len(sim.engine) == 16

    def test_scheduler_fault_without_scheduler_rejected_on_reference(self):
        from repro.core.node import Node
        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        net = Network(Node(s, ProtocolConfig()) for s in self.states)
        fault = SchedulerFault()
        with pytest.raises(TypeError, match="scheduler= argument"):
            fault.on_window_start(Simulator(net))

    def test_scheduler_fault_rejected_on_mirror_chaos(self):
        sim = FastSimulator.from_states(
            self.states, ProtocolConfig(), mode="mirror-chaos"
        )
        fault = SchedulerFault(SynchronousScheduler())
        with pytest.raises(TypeError, match="wave structure"):
            fault.on_window_start(sim)

    def test_unknown_e21_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            e21_chaos.run_campaign(
                n=16,
                campaign_seed=0,
                loss_rate=0.1,
                burst_stop=5,
                rounds=10,
                guard=False,
                engine="warp",
            )


class TestE21FastRows:
    def test_run_engine_fast_rows(self):
        result = e21_chaos.run(
            n=48,
            loss_rate=0.35,
            burst_stop=40,
            rounds=80,
            campaign_seeds=(0, 6),
            engine="fast",
        )
        assert result.params["engine"] == "fast"
        assert len(result.rows) == 4
        transports = {row["transport"] for row in result.rows}
        assert transports == {"baseline", "guarded"}
        guarded = [r for r in result.rows if r["transport"] == "guarded"]
        assert all(r["overhead_frames"] > 0 for r in guarded)
        assert all(r["abandoned"] == 0 for r in guarded)
