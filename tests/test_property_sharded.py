"""Property-based bit-identity: sharded engine vs single-process fast.

Hypothesis sweeps topology, size, seed and shard count and asserts the
sharded coordinator replays the single-process ``FastEngine`` trajectory
**exactly** — state snapshot, per-type message census, pending count —
both on the plain round loop and straight through a departure storm.
This is the sharding contract of docs/PERF.md hammered over the
configuration space at sizes where a counterexample would minimize well.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.shard import ShardedEngine
from repro.topology.generators import TOPOLOGIES


def _pair(topo: str, n: int, seed: int, shards: int):
    states = sorted(
        TOPOLOGIES[topo](n, np.random.default_rng(seed)), key=lambda s: s.id
    )
    fast = FastEngine(states, ProtocolConfig())
    sharded = ShardedEngine(states, ProtocolConfig(), shards=shards)
    return fast, sharded


def _assert_identical(fast: FastEngine, sharded: ShardedEngine) -> None:
    assert fast.state_snapshot() == sharded.state_snapshot()
    assert fast.stats.total == sharded.stats.total
    assert fast.stats.totals_by_type == sharded.stats.totals_by_type
    assert fast.pending_total() == sharded.pending_total()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    topo=st.sampled_from(["line", "random_tree", "star"]),
    n=st.integers(4, 96),
    seed=st.integers(0, 2**31 - 1),
    shards=st.integers(1, 4),
    rounds=st.integers(1, 24),
)
def test_sharded_rounds_bit_identical(topo, n, seed, shards, rounds):
    fast, sharded = _pair(topo, n, seed, shards)
    r1 = np.random.default_rng(seed ^ 0xA5A5)
    r2 = np.random.default_rng(seed ^ 0xA5A5)
    for _ in range(rounds):
        fast.execute_round(r1)
        sharded.execute_round(r2)
        _assert_identical(fast, sharded)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(12, 96),
    seed=st.integers(0, 2**31 - 1),
    shards=st.integers(2, 4),
    data=st.data(),
)
def test_sharded_departures_bit_identical(n, seed, shards, data):
    """Leaves preserve slot alignment, so bit-identity must survive a
    departure batch mid-run (joins break alignment by construction and
    are compared at the op boundary in tests/test_sharded_engine.py)."""
    fast, sharded = _pair("random_tree", n, seed, shards)
    r1 = np.random.default_rng(seed ^ 0x3C3C)
    r2 = np.random.default_rng(seed ^ 0x3C3C)
    for _ in range(4):
        fast.execute_round(r1)
        sharded.execute_round(r2)
    live = [float(v) for v in fast.soa.sorted_live()[0]]
    k = data.draw(st.integers(1, max(1, min(8, n // 4))), label="departures")
    victims = np.array(
        sorted(data.draw(
            st.lists(
                st.sampled_from(live), min_size=k, max_size=k, unique=True
            ),
            label="victims",
        ))
    )
    assert fast.leave_batch(victims.copy()) == k
    assert sharded.leave_batch(victims.copy()) == k
    for _ in range(4):
        fast.execute_round(r1)
        sharded.execute_round(r2)
    _assert_identical(fast, sharded)
