"""The batched struct-of-arrays engine: convergence, churn, and export.

The batched mode's equivalence to the reference is *distributional*
(docs/PERF.md), so these tests check behavior, not draw-for-draw state:
convergence to the unique sorted ring from every seed topology, identical
converged structure under dedup and multiset channels, churn contract
parity, the network-export path, and the vectorized phase predicates.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.graphs.predicates import is_sorted_ring
from repro.ids import NEG_INF, POS_INF
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.chaos.injectors import MessageDelay
from repro.sim.engine import Simulator
from repro.sim.fast import (
    FastEngine,
    FastSimulator,
    MirrorEngine,
    fast_is_sorted_list,
    fast_is_sorted_ring,
    fast_lcc_weakly_connected,
    fast_lrl_links_live,
    fast_phase_predicates,
)
from repro.sim.trace import Trace
from repro.topology.generators import TOPOLOGIES


def converge(
    topo: str,
    n: int,
    seed: int,
    *,
    dedup: bool = True,
    max_rounds: int = 2000,
) -> FastSimulator:
    states = TOPOLOGIES[topo](n, np.random.default_rng(seed))
    sim = FastSimulator.from_states(
        states, ProtocolConfig(), dedup=dedup, rng=np.random.default_rng(seed)
    )
    sim.run_until(fast_is_sorted_ring, max_rounds=max_rounds, check_every=4)
    return sim


@pytest.mark.parametrize("topo", ["line", "star", "gnp", "random_tree"])
@pytest.mark.parametrize("seed", [3, 17])
def test_batched_converges_to_sorted_ring(topo: str, seed: int) -> None:
    sim = converge(topo, 64, seed)
    engine = sim.engine
    assert fast_is_sorted_list(engine)
    assert fast_is_sorted_ring(engine)
    assert fast_lcc_weakly_connected(engine)
    ids, idx = engine.soa.sorted_live()
    assert engine.soa.l[idx][0] == NEG_INF
    assert engine.soa.r[idx][-1] == POS_INF
    assert np.all(engine.soa.r[idx][:-1] == ids[1:])
    assert np.all(engine.soa.l[idx][1:] == ids[:-1])


@pytest.mark.parametrize("seed", [5, 29])
def test_dedup_and_multiset_reach_same_converged_topology(seed: int) -> None:
    """Channel mode changes trajectories, never the converged structure.

    The sorted ring over a fixed identifier set is unique, so after
    convergence the ``l``/``r``/``ring`` columns must be equal entry for
    entry regardless of whether channels coalesce duplicates.
    """
    sims = [converge("gnp", 48, seed, dedup=dedup) for dedup in (True, False)]
    for sim in sims:
        # Let transient ring values on interior nodes fold away: interior
        # nodes clear (never adopt) ring once both neighbors are present.
        sim.run(3)
    with_dedup, multiset = (sim.engine for sim in sims)
    ids_a, idx_a = with_dedup.soa.sorted_live()
    ids_b, idx_b = multiset.soa.sorted_live()
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(with_dedup.soa.l[idx_a], multiset.soa.l[idx_b])
    assert np.array_equal(with_dedup.soa.r[idx_a], multiset.soa.r[idx_b])
    ring_a = with_dedup.soa.ring[idx_a]
    ring_b = multiset.soa.ring[idx_b]
    assert ring_a[0] == ring_b[0] == ids_a[-1]
    assert ring_a[-1] == ring_b[-1] == ids_a[0]
    assert np.isnan(ring_a[1:-1]).all() and np.isnan(ring_b[1:-1]).all()


def test_batched_run_phases_records_all_phases() -> None:
    states = TOPOLOGIES["line"](32, np.random.default_rng(9))
    sim = FastSimulator.from_states(states, rng=np.random.default_rng(9))
    recorder = sim.run_phases(fast_phase_predicates(), max_rounds=1000)
    rounds = [recorder.round_of(name) for name in fast_phase_predicates()]
    assert all(r is not None for r in rounds)


def test_batched_converges_under_churn() -> None:
    states = TOPOLOGIES["line"](32, np.random.default_rng(13))
    sim = FastSimulator.from_states(states, rng=np.random.default_rng(13))
    engine = sim.engine
    churn_rng = np.random.default_rng(99)
    for rnd in range(60):
        sim.step_round()
        if rnd % 6 == 2:
            contact = float(churn_rng.choice(engine.ids))
            new_id = float(churn_rng.random())
            while new_id in engine:
                new_id = float(churn_rng.random())
            engine.join(new_id, contact)
        if rnd % 9 == 5 and len(engine) > 8:
            engine.leave(float(churn_rng.choice(engine.ids)))
    sim.run_until(fast_is_sorted_ring, max_rounds=2000, check_every=4)
    assert fast_lrl_links_live(engine)


def test_join_and_leave_error_paths() -> None:
    states = TOPOLOGIES["line"](8, np.random.default_rng(1))
    engine = FastEngine(states)
    ids = engine.ids
    with pytest.raises(ValueError, match="already in the network"):
        engine.join(ids[0], ids[1])
    with pytest.raises(ValueError, match="not in the network"):
        engine.join(0.123456, 42.0)
    with pytest.raises(ValueError, match="not in the network"):
        # Self-join: the contact-membership check fires first, exactly as
        # in ``repro.churn.join.join_node``.
        engine.join(0.123456, 0.123456)
    with pytest.raises(KeyError):
        engine.leave(42.0)
    assert ids[0] in engine
    assert 42.0 not in engine
    assert len(engine) == 8
    assert "FastEngine" in repr(engine)


def test_leave_drops_and_purges_staged_messages() -> None:
    states = TOPOLOGIES["line"](16, np.random.default_rng(2))
    sim = FastSimulator.from_states(states, rng=np.random.default_rng(2))
    engine = sim.engine
    sim.run(3)
    assert engine.pending_total() > 0
    victim = engine.ids[3]
    before_dropped = engine.dropped
    engine.leave(victim)
    assert engine.dropped >= before_dropped
    for _, message in engine.in_flight:
        assert victim not in message.ids
    snapshot = engine.state_snapshot()
    assert victim not in snapshot
    for nid, (_id, l, r, lrl, ring, _age) in snapshot.items():
        assert victim not in (l, r, ring)
        assert lrl != victim or lrl == nid


def test_trace_config_rejected() -> None:
    states = TOPOLOGIES["line"](4, np.random.default_rng(1))
    cfg = ProtocolConfig(trace=Trace())
    with pytest.raises(ValueError, match="tracing"):
        FastEngine(states, cfg)
    with pytest.raises(ValueError, match="tracing"):
        MirrorEngine(states, cfg)


def test_from_states_rejects_unknown_mode() -> None:
    states = TOPOLOGIES["line"](4, np.random.default_rng(1))
    with pytest.raises(ValueError, match="unknown engine mode"):
        FastSimulator.from_states(states, mode="warp")


def test_to_network_round_trips_state_and_pending() -> None:
    """Exporting mid-run yields a reference network that holds the same
    in-flight set and picks up the run, from every SoA host — a chaos one
    with frames held on its wire and envelopes awaiting their acks."""
    for mode in ("batched", "sharded", "mirror", "chaos", "mirror-chaos"):
        states = TOPOLOGIES["gnp"](32, np.random.default_rng(21))
        wire = mode.endswith("chaos")
        sim = FastSimulator.from_states(
            states,
            mode=mode,
            rng=np.random.default_rng(21),
            **({"guard": GuardPolicy()} if wire else {}),
        )
        engine = sim.engine
        if wire:
            delay = MessageDelay(max_delay=3)
            delay.bind(np.random.default_rng(4))
            engine.set_wire_faults([delay])
        sim.run(5)
        in_flight = engine.in_flight
        # Every undelivered message; on a wire host also the retransmit
        # buffer's copies, which pending_total() does not count.
        assert len(in_flight) >= engine.pending_total() > 0, mode
        if wire:
            assert len(in_flight) > engine.pending_total(), mode
        network = sim.to_network()
        assert network.state_snapshot() == engine.state_snapshot()
        assert Counter(network.in_flight) == Counter(in_flight), mode
        # Pending messages were re-staged, not re-counted.
        assert network.stats.total == 0
        network.flush()
        pending = sum(len(network.channel(nid)) for nid in network.ids)
        # The outbox stages duplicates (dedup happens at delivery); the
        # reference channel deduplicates on put, so compare the deduped set.
        assert pending == len(set(in_flight)), mode
        # The exported network converges under the reference engine.
        reference = Simulator(network, rng=np.random.default_rng(22))
        reference.run_until(
            lambda net: is_sorted_ring(net.states()), max_rounds=2000
        )


def test_predicates_on_degenerate_engines() -> None:
    lone = FastEngine([NodeState(id=0.5)])
    assert fast_is_sorted_list(lone)
    assert fast_is_sorted_ring(lone)
    assert fast_lcc_weakly_connected(lone)
    assert fast_lrl_links_live(lone)
    assert all(len(column) == 0 for column in lone.in_flight_rows())
    assert lone.in_flight == []

    # A dangling identifier (0.9) shared by two nodes keeps them weakly
    # connected even though no live-to-live link exists.
    a = NodeState(id=0.2)
    a.corrupt(r=0.9)
    b = NodeState(id=0.4)
    b.corrupt(r=0.9)
    engine = FastEngine([a, b])
    assert fast_lcc_weakly_connected(engine)
    assert not fast_is_sorted_list(engine)

    # Two mutually unaware nodes are disconnected.
    engine = FastEngine([NodeState(id=0.2), NodeState(id=0.4)])
    assert not fast_lcc_weakly_connected(engine)


def test_state_snapshot_matches_to_states() -> None:
    states = TOPOLOGIES["line"](12, np.random.default_rng(4))
    sim = FastSimulator.from_states(states, rng=np.random.default_rng(4))
    sim.run(4)
    snapshot = sim.state_snapshot()
    rebuilt = {s.id: s.as_tuple() for s in sim.engine.soa.to_states()}
    assert snapshot == rebuilt
