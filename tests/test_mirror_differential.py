"""Differential equivalence: the mirror oracle vs the reference engine.

The bit-exactness contract of ``repro.sim.fast`` (docs/PERF.md §3): fed
the same initial states and the same seed, the mirror engine
(``tests/reference_mirror.py``) consumes RNG draws in exactly the
reference order, so after every round the state snapshots, the
membership, the message, drop and pending counters and the in-flight set
must be **identical** — not just statistically close.  Any divergence is
a porting bug in the struct-of-arrays protocol logic, which the batched
engine shares.

Wired, the pair is ``Network(wire=True)`` against the mirror holding the
same :class:`~repro.sim.chaos.network.ScalarWire` (docs/CHAOS.md): with a
twin-built :class:`~repro.sim.chaos.plan.FaultPlan` (same plan seed, same
labels in the same order, so every injector gets an identical derived
generator) the wire clock, the guard statistics and whole campaign traces
agree as well, for every shipped injector and a custom ``on_wire`` one.

Covered: several topologies and seeds at n up to 256, both channel modes
(dedup and multiset), churn at round boundaries, churn *mid-round*
through matching per-position hooks on both engines (leave, join, and a
leave and rejoin under the same id), every injector bare and guarded,
and full campaigns.  These are whole trajectories compared round by
round, not one host call, so they are not rows of
``tests/test_host_surface.py``'s matrix.
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
from repro.sim.network import Network
from repro.sim.schedulers import SynchronousScheduler
from repro.topology.generators import TOPOLOGIES
from tests.reference_mirror import mirror_simulator

SEEDS = (11, 23, 47)
CHAOS_SEEDS = (7, 19)


class HookedSynchronousScheduler(SynchronousScheduler):
    """Reference scheduler that reports each scheduled position to a hook.

    Mirrors ``MirrorEngine.execute_round(after_node=...)``: the hook runs
    after *every* position of the round's permutation — including positions
    whose node was removed mid-round — so both engines can apply churn at
    the same point of the same round and stay draw-for-draw comparable.
    """

    def __init__(self) -> None:
        super().__init__()
        self.after_node = None

    def execute_round(self, network: Network, rng: np.random.Generator) -> None:
        network.flush()
        ids = network.ids
        if not ids:
            return
        order = rng.permutation(len(ids))
        for i in order:
            nid = ids[i]
            if nid in network:
                node = network.node(nid)
                send = network.sender(nid)
                for message in network.channel(nid).drain(rng):
                    node.on_message(message, send, rng)
                node.regular_action(send, rng)
            if self.after_node is not None:
                self.after_node(int(i), nid)


def make_pair(
    topo: str,
    n: int,
    seed: int,
    *,
    dedup: bool = True,
    wire: bool = False,
    guard: bool = False,
    hook: bool = False,
) -> tuple[Simulator, FastSimulator]:
    """Reference and mirror simulators over identical states and seeds.

    *wire* gives both the chaos wire, *guard* the guarded handoff on it
    (implies a wire), *hook* the reference a
    :class:`HookedSynchronousScheduler` for :func:`hooked_round`.
    """
    states = TOPOLOGIES[topo](n, np.random.default_rng(seed))
    cfg = ProtocolConfig()
    policy = GuardPolicy() if guard else None
    network = build_network(
        copy.deepcopy(states), cfg, dedup=dedup, wire=wire, guard=policy
    )
    reference = Simulator(
        network,
        rng=np.random.default_rng(seed + 10_000),
        scheduler=HookedSynchronousScheduler() if hook else None,
    )
    mirror = mirror_simulator(
        copy.deepcopy(states),
        cfg,
        dedup=dedup,
        wire=wire,
        guard=policy,
        rng=np.random.default_rng(seed + 10_000),
    )
    return reference, mirror


def assert_identical(reference: Simulator, mirror: FastSimulator) -> None:
    """Every observable agrees: state, membership, counters, what is in
    flight (wire frames and the retransmit buffer included) and, on a
    wire, its clock and the guard's statistics."""
    network = reference.network
    engine = mirror.engine
    assert network.state_snapshot() == engine.state_snapshot()
    assert network.ids == engine.ids
    assert network.stats.total == engine.stats.total
    assert network.stats.totals_by_type == engine.stats.totals_by_type
    assert network.dropped == engine.dropped
    assert network.pending_total() == engine.pending_total()
    assert sorted(engine.in_flight, key=repr) == sorted(network.in_flight, key=repr)
    assert (network.wire is None) == (engine.wire is None)
    if network.wire is not None:
        assert network.wire.tick == engine.wire.tick
        assert (network.wire.guard is None) == (engine.wire.guard is None)
        if network.wire.guard is not None:
            assert vars(network.wire.guard.stats) == vars(engine.wire.guard.stats)


def hooked_round(reference: Simulator, mirror: FastSimulator, hook_for) -> None:
    """One round on both engines; ``hook_for(host)`` is the per-position
    hook each runs after every scheduled node."""
    scheduler = reference.scheduler
    scheduler.after_node = hook_for(reference.host)
    reference.step_round()
    scheduler.after_node = None
    mirror.engine.execute_round(mirror.rng, after_node=hook_for(mirror.host))
    mirror.engine.stats.end_round()


def step_pair(reference: Simulator, mirror: FastSimulator) -> None:
    reference.step_round()
    mirror.step_round()


def fresh_id(network: Network, rng: np.random.Generator) -> float:
    new_id = float(rng.random())
    while new_id in network:
        new_id = float(rng.random())
    return new_id


# ----------------------------------------------------------------------
# Plain channels: topologies, seeds, dedup and multiset, churn
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "multiset"])
@pytest.mark.parametrize("topo", ["line", "star", "gnp"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_per_round(topo: str, seed: int, dedup: bool) -> None:
    reference, mirror = make_pair(topo, 48, seed, dedup=dedup)
    for _ in range(35):
        step_pair(reference, mirror)
        assert_identical(reference, mirror)


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_n256(seed: int) -> None:
    reference, mirror = make_pair("line", 256, seed)
    for _ in range(12):
        step_pair(reference, mirror)
    assert_identical(reference, mirror)


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "multiset"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_boundary_churn(seed: int, dedup: bool) -> None:
    """Joins and leaves between rounds keep the engines in lockstep."""
    reference, mirror = make_pair("line", 32, seed, dedup=dedup)
    network = reference.network
    churn_rng = np.random.default_rng(seed + 77)
    for rnd in range(50):
        step_pair(reference, mirror)
        if rnd % 7 == 3:
            contact = float(churn_rng.choice(network.ids))
            new_id = fresh_id(network, churn_rng)
            for host in (reference.host, mirror.host):
                host.join(new_id, contact)
        if rnd % 11 == 6 and len(network) > 4:
            victim = float(churn_rng.choice(network.ids))
            for host in (reference.host, mirror.host):
                host.leave(victim)
        assert_identical(reference, mirror)


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "multiset"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_midround_leave(seed: int, dedup: bool) -> None:
    """A node departing *inside* a round (via the per-position hooks).

    Exercises the hardest equivalence case: later positions of the same
    round must see the departure — staged messages to the victim dropped
    and counted, mentions purged, stored references scrubbed — identically
    in both engines, and the victim's own position must be skipped without
    consuming RNG draws.
    """
    reference, mirror = make_pair("gnp", 32, seed, dedup=dedup, hook=True)
    network = reference.network
    churn_rng = np.random.default_rng(seed + 177)
    for rnd in range(40):
        if rnd % 5 == 2 and len(network) > 6:
            # Same (position, victim) plan applied through both hooks.
            trigger = int(churn_rng.integers(len(network)))
            victim = float(churn_rng.choice(network.ids))

            def hook_for(host):
                def hook(pos: int, _nid: float) -> None:
                    if pos == trigger and victim in host and len(host) > 2:
                        host.leave(victim)

                return hook

            hooked_round(reference, mirror, hook_for)
        else:
            step_pair(reference, mirror)
        assert_identical(reference, mirror)


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_midround_join(seed: int) -> None:
    """A node joining inside a round: receivable only from the next round."""
    reference, mirror = make_pair("line", 24, seed, hook=True)
    network = reference.network
    churn_rng = np.random.default_rng(seed + 377)
    for rnd in range(30):
        if rnd % 6 == 1:
            trigger = int(churn_rng.integers(len(network)))
            contact = float(churn_rng.choice(network.ids))
            new_id = fresh_id(network, churn_rng)

            def hook_for(host):
                def hook(pos: int, _nid: float) -> None:
                    if pos == trigger and new_id not in host and contact in host:
                        host.join(new_id, contact)

                return hook

            hooked_round(reference, mirror, hook_for)
        else:
            step_pair(reference, mirror)
        assert_identical(reference, mirror)


def first_turn_hook(apply):
    """An ``after_node`` hook calling ``apply(first_id)`` once, after the
    round's first scheduled node: every other node still has its turn."""
    done: list[bool] = []

    def hook(_pos: int, nid: float) -> None:
        if not done:
            done.append(True)
            apply(nid)

    return hook


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_midround_rejoin(seed: int) -> None:
    """A node leaving and joining again under its own id before its turn
    acts from its fresh slot, as the reference's new node does."""
    reference, mirror = make_pair("line", 24, seed, hook=True)
    churn_rng = np.random.default_rng(seed + 577)
    for rnd in range(30):
        if rnd % 4 == 1:
            pick = float(churn_rng.random())

            def hook_for(host):
                def rejoin(first: float) -> None:
                    others = [x for x in host.ids if x != first]
                    victim = others[int(pick * len(others))]
                    host.leave(victim)
                    host.join(victim, next(x for x in others if x != victim))

                return first_turn_hook(rejoin)

            hooked_round(reference, mirror, hook_for)
        else:
            step_pair(reference, mirror)
        assert_identical(reference, mirror)


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_midround_crash(seed: int) -> None:
    """Nodes crashing after the round's first turn lose the messages their
    channels still hold, as the reference's ``crash_restart`` clears them."""
    reference, mirror = make_pair("gnp", 32, seed, hook=True)
    churn_rng = np.random.default_rng(seed + 777)
    for rnd in range(30):
        if rnd % 3 == 1:
            victims = churn_rng.choice(reference.network.ids, 4, replace=False).tolist()

            def hook_for(host):
                def crash(_first: float) -> None:
                    host.crash_restart(victims)

                return first_turn_hook(crash)

            hooked_round(reference, mirror, hook_for)
        else:
            step_pair(reference, mirror)
        assert_identical(reference, mirror)


def test_mirror_converges_with_reference_rounds() -> None:
    """Same seed ⇒ the two engines converge on the same round."""
    from repro.graphs.predicates import is_sorted_ring
    from repro.sim.fast.predicates import fast_is_sorted_ring

    reference, mirror = make_pair("line", 32, 5)
    ref_rounds = reference.run_until(
        lambda net: is_sorted_ring(net.states()), max_rounds=500
    )
    mirror_rounds = mirror.run_until(fast_is_sorted_ring, max_rounds=500)
    assert ref_rounds == mirror_rounds
    assert_identical(reference, mirror)


# ----------------------------------------------------------------------
# The chaos wire: every injector, bare and guarded, and whole campaigns
# ----------------------------------------------------------------------
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


def drive_round(sim, plan: FaultPlan, r: int) -> None:
    """One campaign round, steps 1-5 of the ChaosCampaign choreography
    (monitors omitted: the per-round differential compares raw state)."""
    for sf in plan.starting(r):
        sf.injector.on_window_start(sim)
    sim.host.wire.set_wire_faults(plan.active_wire_faults(r))
    for sf in plan.firing(r):
        sf.injector.on_round(sim)
    sim.step_round()
    for sf in plan.ending(r + 1):
        sf.injector.on_window_end(sim)


def drive_pair(
    reference: Simulator,
    mirror: FastSimulator,
    scenario: str,
    seed: int,
    rounds: int,
    *,
    each_round: bool,
) -> None:
    """Twin plans of *scenario* on both engines, compared after every
    round or only after the last."""
    ref_plan = build_plan(scenario, seed)
    mir_plan = build_plan(scenario, seed)
    for r in range(rounds):
        drive_round(reference, ref_plan, r)
        drive_round(mirror, mir_plan, r)
        if each_round or r == rounds - 1:
            assert_identical(reference, mirror)


@pytest.mark.parametrize("guard", [False, True], ids=["bare", "guarded"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_mirror_chaos_bit_identical_per_round(scenario: str, guard: bool) -> None:
    """Every injector, per round, with and without the guard."""
    seed = CHAOS_SEEDS[0]
    reference, mirror = make_pair("random_tree", 28, seed, wire=True, guard=guard)
    drive_pair(reference, mirror, scenario, seed, 25, each_round=True)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("topo", ["line", "random_tree"])
def test_mirror_chaos_campaign_trace_identical(topo: str, seed: int) -> None:
    """Full campaigns (monitors included) produce byte-identical traces."""
    reference, mirror = make_pair(topo, 32, seed, wire=True, guard=True)
    results = []
    for sim in (reference, mirror):
        campaign = ChaosCampaign(
            sim,
            build_plan("combo", seed),
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
    assert_identical(reference, mirror)


def test_mirror_chaos_larger_n(slow: bool) -> None:
    """The differential holds beyond toy sizes (n=192 when ``--slow``)."""
    n = 192 if slow else 64
    seed = CHAOS_SEEDS[1]
    reference, mirror = make_pair("random_tree", n, seed, wire=True, guard=True)
    drive_pair(reference, mirror, "combo", seed, 18, each_round=False)


def test_mirror_chaos_without_faults_matches_plain_mirror() -> None:
    """An empty fault chain and no guard degrades to the plain mirror —
    the chaos wire itself must not perturb the protocol."""
    seed = CHAOS_SEEDS[0]
    states = TOPOLOGIES["line"](24, np.random.default_rng(seed))
    plain, chaos = (
        mirror_simulator(
            copy.deepcopy(states),
            ProtocolConfig(),
            wire=wire,
            rng=np.random.default_rng(seed + 10_000),
        )
        for wire in (False, True)
    )
    for _ in range(20):
        plain.step_round()
        chaos.step_round()
        assert plain.state_snapshot() == chaos.state_snapshot()
        assert plain.engine.stats.total == chaos.engine.stats.total
        assert plain.engine.pending_total() == chaos.engine.pending_total()
