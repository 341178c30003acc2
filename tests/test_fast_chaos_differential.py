"""Differential equivalence: the wired mirror engine vs the wired network.

The chaos port's bit-exactness contract (docs/CHAOS.md): fed the same
initial states, the same simulator seed, and a twin-built
:class:`~repro.sim.chaos.plan.FaultPlan` (same plan seed, same labels in
the same order, so every injector gets an identical derived generator),
``FastSimulator.from_states(mode="mirror", wire=True)`` replays the
reference chaos stack (``Network(wire=True)``) draw for draw.
Per-round state snapshots, message counters, drop counters, pending
totals, guard statistics, and campaign traces must all be **identical**
for every shipped injector — this is the oracle that pins the fault
semantics before the batched engine's wire is trusted at scale.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, build_network
from repro.sim.chaos.campaign import ChaosCampaign
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.chaos.injectors import (
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDuplication,
    MessageLoss,
    NodeChurn,
    PointerCorruption,
)
from repro.sim.chaos.monitors import (
    ConvergenceProbe,
    PartitionDetector,
    WeakConnectivityWatchdog,
)
from repro.sim.chaos.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.fast import FastSimulator
from repro.topology.generators import TOPOLOGIES

SEEDS = (7, 19)


class DropEverything(FaultInjector):
    """A custom wire injector (total blackout) — exercises the mirror's
    real-frame ``on_wire`` path, which arbitrary subclasses rely on."""

    def __init__(self) -> None:
        self.dropped = 0

    def on_wire(self, dest, frame, network):
        self.dropped += 1
        return []


#: Scenario name -> factory of [(injector, schedule kwargs), ...].  A
#: factory is called once per engine so each plan binds fresh injector
#: instances (twin plans => twin derived generators).
SCENARIOS: dict[str, object] = {
    "loss": lambda: [
        (MessageLoss(rate=0.3), dict(start=0, stop=12, label="loss"))
    ],
    "duplication": lambda: [
        (
            MessageDuplication(rate=0.4, copies=2),
            dict(start=1, stop=10, label="dup"),
        )
    ],
    "delay-random": lambda: [
        (MessageDelay(max_delay=3), dict(start=0, stop=14, label="delay"))
    ],
    "delay-hash": lambda: [
        (
            MessageDelay(max_delay=4, mode="hash"),
            dict(start=2, stop=15, label="hashdelay"),
        )
    ],
    "corruption": lambda: [
        (PointerCorruption(fraction=0.5), dict(at=3, label="corrupt"))
    ],
    "crash": lambda: [
        (
            CrashRestart(count=2),
            dict(start=4, stop=16, period=4, label="crash"),
        )
    ],
    "churn": lambda: [
        (
            NodeChurn(join_probability=0.5, leave_probability=0.5),
            dict(start=0, stop=18, period=2, label="churn"),
        )
    ],
    "custom-drop": lambda: [
        (DropEverything(), dict(start=5, stop=8, label="blackout"))
    ],
    "combo": lambda: [
        (MessageLoss(rate=0.2), dict(start=0, stop=15, label="loss")),
        (
            MessageDelay(max_delay=4, mode="hash"),
            dict(start=3, stop=18, label="hashdelay"),
        ),
        (
            MessageDuplication(rate=0.3, copies=1),
            dict(start=1, stop=9, label="dup"),
        ),
        (PointerCorruption(fraction=0.5), dict(at=3, label="corrupt")),
        (
            CrashRestart(count=2),
            dict(start=4, stop=12, period=4, label="crash"),
        ),
        (
            NodeChurn(join_probability=0.5, leave_probability=0.5),
            dict(start=0, stop=20, period=2, label="churn"),
        ),
    ],
}


def build_plan(scenario: str, seed: int) -> FaultPlan:
    plan = FaultPlan(seed=seed)
    for injector, kwargs in SCENARIOS[scenario]():  # type: ignore[operator]
        plan.schedule(injector, **kwargs)
    return plan


def make_chaos_pair(
    topo: str, n: int, seed: int, *, guard: bool
) -> tuple[Simulator, FastSimulator]:
    """Wired reference and wired mirror simulators over identical state."""
    states = TOPOLOGIES[topo](n, np.random.default_rng(seed))
    cfg = ProtocolConfig()
    policy = GuardPolicy() if guard else None
    network = build_network(copy.deepcopy(states), cfg, wire=True, guard=policy)
    reference = Simulator(network, rng=np.random.default_rng(seed + 10_000))
    mirror = FastSimulator.from_states(
        copy.deepcopy(states),
        cfg,
        mode="mirror",
        wire=True,
        guard=policy,
        rng=np.random.default_rng(seed + 10_000),
    )
    return reference, mirror


def assert_chaos_identical(
    reference: Simulator, mirror: FastSimulator
) -> None:
    """Every observable the chaos stack exposes agrees."""
    network = reference.network
    engine = mirror.engine
    assert network.state_snapshot() == engine.state_snapshot()
    assert network.ids == engine.ids
    assert network.stats.total == engine.stats.total
    assert network.stats.totals_by_type == engine.stats.totals_by_type
    assert network.dropped == engine.dropped
    assert network.pending_total() == engine.pending_total()
    assert network.wire.tick == engine.wire.tick
    if network.wire.guard is not None:
        assert engine.wire.guard is not None
        assert vars(network.wire.guard.stats) == vars(engine.wire.guard.stats)


def drive_round(sim, host, plan: FaultPlan, r: int) -> None:
    """One campaign round, steps 1-5 of the ChaosCampaign choreography
    (monitors omitted: the per-round differential compares raw state)."""
    for sf in plan.starting(r):
        sf.injector.on_window_start(sim)
    host.wire.set_wire_faults(plan.active_wire_faults(r))
    for sf in plan.firing(r):
        sf.injector.on_round(sim)
    sim.step_round()
    for sf in plan.ending(r + 1):
        sf.injector.on_window_end(sim)


@pytest.mark.parametrize("guard", [False, True], ids=["bare", "guarded"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mirror_chaos_bit_identical_per_round(
    scenario: str, guard: bool
) -> None:
    """Every injector, per round, with and without the guard."""
    seed = SEEDS[0]
    reference, mirror = make_chaos_pair("random_tree", 28, seed, guard=guard)
    ref_plan = build_plan(scenario, seed)
    mir_plan = build_plan(scenario, seed)
    for r in range(25):
        drive_round(reference, reference.network, ref_plan, r)
        drive_round(mirror, mirror.engine, mir_plan, r)
        assert_chaos_identical(reference, mirror)
        # Wire frames and the retransmit buffer included.
        assert sorted(mirror.engine.in_flight, key=repr) == sorted(
            reference.network.in_flight, key=repr
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("topo", ["line", "random_tree"])
def test_mirror_chaos_campaign_trace_identical(topo: str, seed: int) -> None:
    """Full campaigns (monitors included) produce byte-identical traces."""
    reference, mirror = make_chaos_pair(topo, 32, seed, guard=True)
    results = []
    for sim, plan in (
        (reference, build_plan("combo", seed)),
        (mirror, build_plan("combo", seed)),
    ):
        campaign = ChaosCampaign(
            sim,
            plan,
            (
                WeakConnectivityWatchdog(),
                PartitionDetector(),
                ConvergenceProbe(),
            ),
        )
        results.append(campaign.run(35))
    ref_result, mir_result = results
    assert ref_result.trace.to_text() == mir_result.trace.to_text()
    assert ref_result.rounds == mir_result.rounds
    assert ref_result.final_health == mir_result.final_health
    assert ref_result.partition_round == mir_result.partition_round
    assert_chaos_identical(reference, mirror)


def test_mirror_chaos_larger_n(slow: bool) -> None:
    """The differential holds beyond toy sizes (n=192 when ``--slow``)."""
    n = 192 if slow else 64
    seed = SEEDS[1]
    reference, mirror = make_chaos_pair("random_tree", n, seed, guard=True)
    ref_plan = build_plan("combo", seed)
    mir_plan = build_plan("combo", seed)
    for r in range(18):
        drive_round(reference, reference.network, ref_plan, r)
        drive_round(mirror, mirror.engine, mir_plan, r)
    assert_chaos_identical(reference, mirror)


def test_mirror_chaos_without_faults_matches_plain_mirror() -> None:
    """An empty fault chain and no guard degrades to the plain mirror —
    the chaos wire itself must not perturb the protocol."""
    seed = SEEDS[0]
    states = TOPOLOGIES["line"](24, np.random.default_rng(seed))
    plain = FastSimulator.from_states(
        copy.deepcopy(states),
        ProtocolConfig(),
        mode="mirror",
        rng=np.random.default_rng(seed + 10_000),
    )
    chaos = FastSimulator.from_states(
        copy.deepcopy(states),
        ProtocolConfig(),
        mode="mirror",
        wire=True,
        rng=np.random.default_rng(seed + 10_000),
    )
    for _ in range(20):
        plain.step_round()
        chaos.step_round()
        assert plain.state_snapshot() == chaos.state_snapshot()
        assert plain.engine.stats.total == chaos.engine.stats.total
        assert plain.engine.pending_total() == chaos.engine.pending_total()
