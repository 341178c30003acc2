"""Membership storms: DSL windows, cross-host equivalence, recovery trials.

The load-bearing pin is the **mid-storm differential**: the mirror engine
replays a storm campaign draw-for-draw against the reference stack EVERY
round, not just at the end.  The batched engine draws in wave order (a
statistical twin, not bit-identical), but storms draw from plan-derived
generators independent of the host — so its *membership* must stay in
lockstep with the mirror through every tombstone and compaction window,
which is pinned separately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.churn.scale import recovery_cap, storm_recovery_trial
from repro.churn.storms import (
    STORMS,
    ChurnPlan,
    CorrelatedDeparture,
    FlashCrowd,
    PartitionHeal,
)
from repro.core.protocol import ProtocolConfig, build_network
from repro.experiments import e17_sustained_churn
from repro.sim.chaos.campaign import ChaosCampaign
from repro.sim.engine import Simulator
from repro.sim.fast import FastSimulator
from repro.topology.generators import line_topology
from tests.reference_mirror import mirror_simulator

N = 24
ROUNDS = 26


def storm_plan() -> ChurnPlan:
    return (
        ChurnPlan(seed=11)
        .flash_crowd(at=3, fraction=0.25)
        .correlated_departure(at=10, fraction=0.2)
        .partition_heal(at=15, heal_after=5)
    )


def states(seed: int = 4) -> list:
    return line_topology(N, np.random.default_rng(seed))


class TestChurnPlanDsl:
    def test_partition_heal_two_shot_window(self):
        plan = ChurnPlan(seed=0).partition_heal(at=4, heal_after=6)
        (sf,) = list(plan)
        fires = [r for r in range(25) if sf.window.fires(r)]
        assert fires == [4, 10]

    def test_storm_labels(self):
        labels = [sf.label for sf in storm_plan()]
        assert labels == [
            "flash-crowd@3",
            "correlated-departure@10",
            "partition-heal@15",
        ]

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            FlashCrowd(fraction=0.0)
        with pytest.raises(ValueError, match="fraction"):
            CorrelatedDeparture(fraction=1.0)
        with pytest.raises(ValueError, match="min_size"):
            PartitionHeal(min_size=2)
        with pytest.raises(ValueError, match="heal_after"):
            ChurnPlan(seed=0).partition_heal(at=1, heal_after=0)

    def test_composes_as_a_fault_plan(self):
        combined = storm_plan().compose(ChurnPlan(seed=9).flash_crowd(at=3))
        assert len(combined) == 4
        labels = [sf.label for sf in combined]
        assert len(set(labels)) == 4  # clash re-suffixed


class TestStormHostEquivalence:
    def test_reference_vs_mirror_campaign(self):
        """Same seeds, same plan: the mirror finishes a storm campaign
        with the identical topology, census, and drop count."""
        net = build_network(states(), ProtocolConfig())
        ref = Simulator(net, rng=np.random.default_rng(99))
        mirror = mirror_simulator(
            states(), ProtocolConfig(), rng=np.random.default_rng(99)
        )
        for sim in (ref, mirror):
            ChaosCampaign(sim, storm_plan(), ()).run(ROUNDS)
        assert net.state_snapshot() == mirror.engine.state_snapshot()
        assert net.stats.totals_by_type == mirror.engine.stats.totals_by_type
        assert net.dropped == mirror.engine.dropped

    def test_reference_vs_mirror_lockstep_mid_storm(self):
        """The mirror replays the reference draw-for-draw through EVERY
        round of a storm campaign — mid-storm, not just at the end."""
        net = build_network(states(), ProtocolConfig())
        ref = Simulator(net, rng=np.random.default_rng(99))
        mirror = mirror_simulator(
            states(), ProtocolConfig(), rng=np.random.default_rng(99)
        )
        plans = (storm_plan(), storm_plan())
        sims = (ref, mirror)
        for r in range(ROUNDS):
            for sim, plan in zip(sims, plans):
                for sf in plan.firing(r):
                    sf.injector.on_round(sim)
                sim.step_round()
            assert (
                net.state_snapshot() == mirror.engine.state_snapshot()
            ), f"diverged at round {r}"
            assert net.stats.total == mirror.engine.stats.total
            assert net.dropped == mirror.engine.dropped

    def test_fast_vs_mirror_membership_lockstep_mid_storm(self):
        """Storms draw from plan-derived generators, so the batched
        engine's membership must match the mirror's EVERY round — through
        the tombstone windows its SoA representation opens — even though
        its protocol draws are wave-ordered (a statistical twin)."""
        fast = FastSimulator.from_states(
            states(), ProtocolConfig(), mode="batched",
            rng=np.random.default_rng(99),
        )
        mirror = mirror_simulator(
            states(), ProtocolConfig(), rng=np.random.default_rng(99)
        )
        plans = (storm_plan(), storm_plan())
        sims = (fast, mirror)
        max_dead = 0
        for r in range(ROUNDS):
            for sim, plan in zip(sims, plans):
                for sf in plan.firing(r):
                    sf.injector.on_round(sim)
                sim.step_round()
            max_dead = max(max_dead, fast.engine.soa.n_dead)
            assert fast.engine.ids == mirror.engine.ids, (
                f"membership diverged at round {r}"
            )
        # The departures actually opened a tombstone window on the SoA.
        assert max_dead > 0

    def test_batched_storm_campaign_runs_sanitized(self):
        """The new membership kernels run clean under the flow sanitizer
        through every storm (tombstones, bulk appends, compaction)."""
        sim = FastSimulator.from_states(
            states(), ProtocolConfig(), mode="batched",
            rng=np.random.default_rng(5), sanitize=True,
        )
        result = ChaosCampaign(sim, storm_plan(), ()).run(ROUNDS)
        assert result.rounds == ROUNDS
        assert len(sim.engine) >= 4

    def test_storm_counters_and_trace(self):
        plan = storm_plan()
        sim = FastSimulator.from_states(
            states(), ProtocolConfig(), mode="batched",
            rng=np.random.default_rng(2),
        )
        result = ChaosCampaign(sim, plan, ()).run(ROUNDS)
        crowd, departure, partition = (sf.injector for sf in plan)
        assert crowd.joined == crowd.events > 0
        assert departure.departed == departure.events > 0
        assert partition.departed > 0 and partition.rejoined > 0
        assert partition.events == partition.departed + partition.rejoined
        # One fault event per firing: 1 + 1 + 2 (partition fires twice).
        assert len(result.trace.of_kind("fault")) == 4


class TestStormRecovery:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("storm", sorted(STORMS))
    def test_recovers_at_small_n(self, engine: str, storm: str):
        res = storm_recovery_trial(32, storm=storm, seed=3, engine=engine)
        assert res.recovered
        assert 0 < res.rounds <= recovery_cap(32)
        assert res.events > 0
        assert res.per_event_messages >= 0.0

    def test_unknown_storm_rejected(self):
        with pytest.raises(ValueError, match="unknown storm"):
            storm_recovery_trial(32, storm="earthquake")


class TestE17StormLegs:
    def test_storm_rows_with_empty_rates(self):
        result = e17_sustained_churn.run(
            n=16,
            rates=(),
            rounds=10,
            trials=1,
            seed=5,
            engine="fast",
            storms=("flash_crowd",),
        )
        assert result.params["engine"] == "fast"
        assert result.params["rates"] == ()
        (row,) = result.rows
        assert row["storm"] == "flash_crowd"
        assert row["recovery_rounds"] > 0
        assert result.notes  # the storm note survives empty rates

    def test_cli_style_scalar_normalization(self):
        result = e17_sustained_churn.run(
            n=16,
            rates="",
            rounds=10,
            trials=1,
            seed=5,
            storms="correlated_departure",
        )
        assert result.params["rates"] == ()
        assert result.params["storms"] == ("correlated_departure",)
        (row,) = result.rows
        assert row["storm"] == "correlated_departure"

    def test_unknown_storm_and_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown storm"):
            e17_sustained_churn.run(n=16, storms=("tsunami",))
        with pytest.raises(ValueError, match="unknown engine"):
            e17_sustained_churn.run(n=16, engine="warp")
