"""Unit tests for the sharded SoA engine (docs/PERF.md "Sharding").

The bit-identity trajectory tests live in the conformance matrix
(tests/test_engine_conformance.py) and the hypothesis sweep
(tests/test_property_sharded.py); this module pins the facade itself —
construction validation, the membership contract, the one shared state,
and the churn trajectories where sharded ≠ batched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.shard import ShardedEngine, owner_of, partition_edges
from repro.sim.fast.soa import SoAState
from repro.sim.trace import Trace
from repro.topology.generators import TOPOLOGIES


def _states(n: int, seed: int = 5, topo: str = "line"):
    return sorted(
        TOPOLOGIES[topo](n, np.random.default_rng(seed)), key=lambda s: s.id
    )


def _pair(n: int, *, shards: int, seed: int = 5):
    states = _states(n, seed)
    fast = FastEngine(states, ProtocolConfig(), dedup=True)
    sharded = ShardedEngine(states, ProtocolConfig(), shards=shards)
    return fast, sharded


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_requires_dedup():
    with pytest.raises(ValueError, match="dedup=True"):
        ShardedEngine(_states(8), dedup=False)


def test_rejects_trace():
    cfg = ProtocolConfig(trace=Trace())
    with pytest.raises(ValueError, match="tracing"):
        ShardedEngine(_states(8), cfg)


def test_rejects_empty():
    with pytest.raises(ValueError, match="at least one node"):
        ShardedEngine([])


def test_shards_clamped_to_population():
    engine = ShardedEngine(_states(3), shards=8)
    assert engine.shards == 3
    assert len(engine) == 3


@pytest.mark.parametrize("shards", [0, -3])
def test_rejects_fewer_than_one_shard(shards):
    """These used to run one shard and leave ``shards=0`` in the record."""
    with pytest.raises(ValueError, match=r"accepted: 1\.\.8"):
        ShardedEngine(_states(8), shards=shards)


def test_partition_covers_every_id():
    states = _states(64, seed=9)
    ids = np.array([s.id for s in states])
    edges = partition_edges(ids, 4)
    owner = owner_of(ids, edges)
    assert owner.min() == 0 and owner.max() == 3
    # Contiguity: owners are non-decreasing over the sorted id axis.
    assert bool((np.diff(owner) >= 0).all())
    counts = np.bincount(owner, minlength=4)
    assert counts.sum() == 64 and counts.min() >= 64 // 4 - 1


# ----------------------------------------------------------------------
# Membership contract (FastEngine parity)
# ----------------------------------------------------------------------
def test_join_validation():
    engine = ShardedEngine(_states(8), shards=2)
    contact = engine.ids[0]
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        engine.join(1.5, contact)
    with pytest.raises(ValueError, match="already in the network"):
        engine.join(contact, engine.ids[1])
    with pytest.raises(ValueError, match="not in the network"):
        engine.join(0.123456, 0.654321)
    with pytest.raises(ValueError, match="duplicate joining id"):
        engine.join_batch(
            np.array([0.25, 0.25]), np.array([contact, contact])
        )
    with pytest.raises(ValueError, match="must align"):
        engine.join_batch(np.array([0.25]), np.array([contact, contact]))
    assert len(engine) == 8  # every rejected batch left the network alone


def test_leave_validation():
    engine = ShardedEngine(_states(8), shards=2)
    with pytest.raises(KeyError, match="no node with id"):
        engine.leave(0.987654)
    victim = engine.ids[3]
    with pytest.raises(KeyError, match="duplicate departing id"):
        engine.leave_batch(np.array([victim, victim]))
    assert len(engine) == 8
    assert engine.leave_batch(np.array([victim])) == 1
    assert len(engine) == 7
    assert victim not in engine


def test_leave_preserves_fast_alignment():
    """Departures keep slot order aligned, so the trajectories stay
    bit-identical straight through the churn op."""
    fast, sharded = _pair(96, shards=3, seed=31)
    r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(6):
        fast.execute_round(r1)
        sharded.execute_round(r2)
    victims = np.array(sorted(fast.soa.sorted_live()[0][10:40:7]))
    fast.leave_batch(victims.copy())
    sharded.leave_batch(victims.copy())
    for _ in range(6):
        fast.execute_round(r1)
        sharded.execute_round(r2)
    assert fast.state_snapshot() == sharded.state_snapshot()
    assert fast.stats.totals_by_type == sharded.stats.totals_by_type


def test_join_matches_fast_at_op_boundary():
    """Joins break slot alignment (append order differs), so equality is
    asserted at the operation boundary, not over later rounds."""
    fast, sharded = _pair(64, shards=2, seed=13)
    contact = fast.soa.sorted_live()[0][0]
    new_ids = np.array([0.111111, 0.555555, 0.999999])
    contacts = np.full(3, contact)
    assert fast.join_batch(new_ids.copy(), contacts.copy()) == 3
    assert sharded.join_batch(new_ids.copy(), contacts.copy()) == 3
    assert fast.state_snapshot() == sharded.state_snapshot()
    assert len(sharded) == 67


# ----------------------------------------------------------------------
# The ``soa`` facade (named for the merged per-shard view it once was)
# ----------------------------------------------------------------------
def test_merged_view_columns():
    engine = ShardedEngine(_states(32, seed=3), shards=4)
    view = engine.soa
    ids, idx = view.sorted_live()
    assert bool((np.diff(ids) > 0).all())
    assert list(idx) == list(range(32))
    pos, found = view.lookup(np.array([ids[5], 0.5 * (ids[5] + ids[6])]))
    assert bool(found[0]) and not bool(found[1])
    assert pos[0] == 5
    assert ids[8] in view and 2.0 not in view
    assert len(view) == 32 == view.n_live


def test_merged_view_exports_match_snapshot():
    engine = ShardedEngine(_states(24, seed=4), shards=3)
    engine.execute_round(np.random.default_rng(1))
    view = engine.soa
    assert view.snapshot() == engine.state_snapshot()
    states = view.to_states()
    assert [s.id for s in states] == engine.ids
    rebuilt = ShardedEngine(states, ProtocolConfig(), shards=3)
    assert rebuilt.state_snapshot() == engine.state_snapshot()


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_cores_borrow_the_engine_state(shards):
    engine = ShardedEngine(_states(16, seed=6), shards=shards)
    soa = engine.soa
    assert isinstance(soa, SoAState)
    engine.execute_round(np.random.default_rng(2))
    engine.leave(engine.ids[0])
    assert engine.soa is soa and len(soa) == 15
    assert all(
        core.soa is soa and core.stats is engine.stats for core in engine.cores
    )


#: Recorded at 8299ab2, where every shard still owned a private state
#: (``shards=1`` is the batched engine's digest there, too).
CHURN_DIGESTS = {
    1: "31230deefe3729cd0e65f2428ed15a37f217cd86fa7b656d01f8db68467aff6b",
    2: "c21cf634648310a93df05b1ffec079a367c5cae54600bf7a4fec547e1cb84c7a",
    3: "47b38aa5d2095121ef9a6c9224782ff64e72a670697f71d4b0c7b0c5943c5790",
    4: "062e0d6cfa4db6b3cb5af2729f1d582ceb203695d4d063cc25afcc998e3fa6e5",
}


def _churn_digest(**engine) -> str:
    sim = FastSimulator.from_states(
        _states(96, topo="random_tree"), rng=77, **engine
    )
    host, pick = sim.engine, np.random.default_rng(78)
    sim.run(12)
    host.join_batch(pick.random(40), pick.choice(host.ids, 40))
    sim.run(10)
    host.leave_batch(pick.choice(host.ids, 60, replace=False))
    sim.run(10)  # 60 tombstones of 136 slots: rounds over a holed state
    host.leave_batch(pick.choice(host.ids, 20, replace=False))
    assert host.soa.size == len(host) == 56  # 80 of 136: compacted
    sim.run(6)
    host.join(float(pick.random()), host.ids[3])
    host.leave(host.ids[-2])
    sim.run(8)
    record = (
        sorted(host.state_snapshot().items()),
        sorted((t.name, c) for t, c in host.stats.totals_by_type.items()),
        host.dropped,
        host.pending_total(),
        len(host),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


@pytest.mark.parametrize("shards", sorted(CHURN_DIGESTS))
def test_churn_trajectory_digest(shards):
    """Joins append slots out of id order, after which a sharded run is no
    replay of the batched one and has no oracle but its own past: appends,
    tombstones, compaction and the scalar ops must leave each shard count's
    trajectory where it was."""
    assert _churn_digest(mode="sharded", shards=shards) == CHURN_DIGESTS[shards]


def test_churn_trajectory_one_shard_is_the_batched_engine():
    assert _churn_digest(mode="batched") == CHURN_DIGESTS[1]


# ----------------------------------------------------------------------
# Unsupported surface, the removed worker backend, repr
# ----------------------------------------------------------------------
def test_set_wave_fault_unsupported():
    engine = ShardedEngine(_states(8), shards=2)
    with pytest.raises(NotImplementedError, match="wave-dispatch"):
        engine.set_wave_fault(object())


def test_workers_argument_rejected_unless_zero():
    """The worker-process backend is gone (docs/PERF.md §8): the one door
    that still takes ``workers`` accepts 0 and nothing else."""
    states = _states(8)
    with pytest.raises(ValueError, match=r"removed.*docs/PERF\.md §8"):
        FastSimulator.from_states(states, mode="sharded", workers=2)
    sim = FastSimulator.from_states(states, mode="sharded", workers=0)
    assert isinstance(sim.engine, ShardedEngine)
    assert not hasattr(sim.engine, "workers")


def test_repr_mentions_backend():
    engine = ShardedEngine(_states(8), shards=2)
    assert "shards=2" in repr(engine)
