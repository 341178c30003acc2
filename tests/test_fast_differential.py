"""Differential equivalence: the mirror engine vs the reference engine.

The bit-exactness contract of ``repro.sim.fast`` (docs/PERF.md): fed the
same initial states and the same seed, :class:`MirrorEngine` consumes RNG
draws in exactly the reference order, so per-round state snapshots, message
counters, and drop counters must be **identical** — not just statistically
close.  Any divergence is a porting bug in the struct-of-arrays protocol
logic, which the batched engine shares.

Covered here: multiple topologies and seeds at N up to 256, both channel
modes (dedup and multiset), churn at round boundaries, and churn injected
*mid-round* through matching per-position hooks on both engines.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.churn.join import join_node
from repro.churn.leave import leave_node
from repro.core.protocol import ProtocolConfig, build_network
from repro.sim.engine import Simulator
from repro.sim.fast import FastSimulator
from repro.sim.network import Network
from repro.sim.schedulers import SynchronousScheduler
from repro.topology.generators import TOPOLOGIES

SEEDS = (11, 23, 47)


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
    dedup: bool,
    scheduler: SynchronousScheduler | None = None,
) -> tuple[Simulator, FastSimulator]:
    """Reference and mirror simulators over identical states and seeds."""
    states = TOPOLOGIES[topo](n, np.random.default_rng(seed))
    cfg = ProtocolConfig()
    network = build_network(copy.deepcopy(states), cfg, dedup=dedup)
    reference = Simulator(
        network, rng=np.random.default_rng(seed + 10_000), scheduler=scheduler
    )
    mirror = FastSimulator.from_states(
        copy.deepcopy(states),
        cfg,
        mode="mirror",
        dedup=dedup,
        rng=np.random.default_rng(seed + 10_000),
    )
    return reference, mirror


def assert_round_identical(reference: Simulator, mirror: FastSimulator) -> None:
    """Snapshot, message counters and drop counters all agree."""
    network = reference.network
    engine = mirror.engine
    assert network.state_snapshot() == mirror.state_snapshot()
    assert network.stats.total == engine.stats.total
    assert network.stats.totals_by_type == engine.stats.totals_by_type
    assert network.dropped == engine.dropped


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "multiset"])
@pytest.mark.parametrize("topo", ["line", "star", "gnp"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_per_round(topo: str, seed: int, dedup: bool) -> None:
    reference, mirror = make_pair(topo, 48, seed, dedup=dedup)
    for _ in range(35):
        reference.step_round()
        mirror.step_round()
        assert_round_identical(reference, mirror)
        # The derived in-flight set names the twin's messages exactly.
        assert sorted(mirror.engine.in_flight, key=repr) == sorted(
            reference.network.in_flight, key=repr
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_n256(seed: int) -> None:
    reference, mirror = make_pair("line", 256, seed, dedup=True)
    for _ in range(12):
        reference.step_round()
        mirror.step_round()
    assert_round_identical(reference, mirror)


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "multiset"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_boundary_churn(seed: int, dedup: bool) -> None:
    """Joins and leaves between rounds keep the engines in lockstep."""
    reference, mirror = make_pair("line", 32, seed, dedup=dedup)
    network = reference.network
    cfg = mirror.engine.config
    churn_rng = np.random.default_rng(seed + 77)
    for rnd in range(50):
        reference.step_round()
        mirror.step_round()
        if rnd % 7 == 3:
            contact = float(churn_rng.choice(network.ids))
            new_id = float(churn_rng.random())
            while new_id in network:
                new_id = float(churn_rng.random())
            join_node(network, new_id, contact, cfg)
            mirror.engine.join(new_id, contact)
        if rnd % 11 == 6 and len(network) > 4:
            victim = float(churn_rng.choice(network.ids))
            leave_node(network, victim)
            mirror.engine.leave(victim)
        assert_round_identical(reference, mirror)


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
    scheduler = HookedSynchronousScheduler()
    reference, mirror = make_pair("gnp", 32, seed, dedup=dedup, scheduler=scheduler)
    network = reference.network
    engine = mirror.engine
    churn_rng = np.random.default_rng(seed + 177)

    for rnd in range(40):
        if rnd % 5 == 2 and len(network) > 6:
            # Same (position, victim) plan applied through both hooks.
            trigger = int(churn_rng.integers(len(network)))
            victim = float(churn_rng.choice(network.ids))

            def ref_hook(pos: int, _nid: float) -> None:
                if pos == trigger and victim in network and len(network) > 2:
                    leave_node(network, victim)

            def mirror_hook(pos: int, _nid: float) -> None:
                if pos == trigger and victim in engine and len(engine) > 2:
                    engine.leave(victim)

            scheduler.after_node = ref_hook
            reference.step_round()
            scheduler.after_node = None
            engine.execute_round(mirror.rng, after_node=mirror_hook)
            engine.stats.end_round()
        else:
            reference.step_round()
            mirror.step_round()
        assert_round_identical(reference, mirror)


@pytest.mark.parametrize("seed", SEEDS)
def test_mirror_bit_identical_under_midround_join(seed: int) -> None:
    """A node joining inside a round: receivable only from the next round."""
    scheduler = HookedSynchronousScheduler()
    reference, mirror = make_pair("line", 24, seed, dedup=True, scheduler=scheduler)
    network = reference.network
    engine = mirror.engine
    cfg = engine.config
    churn_rng = np.random.default_rng(seed + 377)

    for rnd in range(30):
        if rnd % 6 == 1:
            trigger = int(churn_rng.integers(len(network)))
            contact = float(churn_rng.choice(network.ids))
            new_id = float(churn_rng.random())
            while new_id in network:
                new_id = float(churn_rng.random())

            def ref_hook(pos: int, _nid: float) -> None:
                if pos == trigger and new_id not in network and contact in network:
                    join_node(network, new_id, contact, cfg)

            def mirror_hook(pos: int, _nid: float) -> None:
                if pos == trigger and new_id not in engine and contact in engine:
                    engine.join(new_id, contact)

            scheduler.after_node = ref_hook
            reference.step_round()
            scheduler.after_node = None
            engine.execute_round(mirror.rng, after_node=mirror_hook)
            engine.stats.end_round()
        else:
            reference.step_round()
            mirror.step_round()
        assert_round_identical(reference, mirror)


def test_mirror_converges_with_reference_rounds() -> None:
    """Same seed ⇒ the two engines converge on the same round."""
    from repro.graphs.predicates import is_sorted_ring
    from repro.sim.fast.predicates import fast_is_sorted_ring

    reference, mirror = make_pair("line", 32, 5, dedup=True)
    ref_rounds = reference.run_until(
        lambda net: is_sorted_ring(net.states()), max_rounds=500
    )
    mirror_rounds = mirror.run_until(fast_is_sorted_ring, max_rounds=500)
    assert ref_rounds == mirror_rounds
    assert_round_identical(reference, mirror)
