"""Array-native starts and the column door.

The shuffled line and the sorted/stable rings are built as id-sorted
``SoAState`` columns by numpy code; ``tests/reference_starts.py`` keeps the
per-node builders they replaced.  Here the builders must equal those
oracles column for column *and* leave the generator exactly where the
oracle left it (the same draws, not merely the same values), the
column exports must equal the per-slot exports they replaced, and the
fast doors must take a start without aliasing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import NodeState
from repro.graphs.build import (
    stable_ring_soa,
    stable_ring_states,
    wire_sorted_ring,
    wire_sorted_ring_soa,
)
from repro.ids import generate_ids
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.soa import SoAState, state_columns
from repro.sim.host import make_simulator
from repro.topology.generators import TOPOLOGIES, line_soa, line_topology
from tests.reference_starts import (
    generate_ids_reference,
    line_states_reference,
    stable_ring_states_reference,
    wire_sorted_ring_reference,
)

SIZES = (2, 3, 4, 5, 16, 33, 1000, 8192)
SEEDS = range(12)
COLUMNS = ("ids", "l", "r", "lrl", "ring", "age")


def columns(soa: SoAState) -> tuple[np.ndarray, ...]:
    return tuple(getattr(soa, name)[: soa.size] for name in COLUMNS)


def assert_same_columns(expected, got) -> None:
    for name, a, b in zip(COLUMNS, expected, got):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=True), name


def assert_same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state


# ----------------------------------------------------------------------
# Builders against the per-node oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shuffle_ids", [True, False])
@pytest.mark.parametrize("n", SIZES)
def test_line_equals_the_networkx_encoding(n: int, shuffle_ids: bool) -> None:
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = state_columns(line_states_reference(n, a, shuffle_ids=shuffle_ids))
        soa = line_soa(n, b, shuffle_ids=shuffle_ids)
        assert_same_columns(expected, columns(soa))
        assert_same_stream(a, b)
        assert soa.n_dead == 0


def test_line_list_api_is_the_columns() -> None:
    rng = np.random.default_rng(3)
    states = line_topology(64, rng)
    assert TOPOLOGIES["line"] is line_topology
    assert all(isinstance(s, NodeState) for s in states)
    assert states == line_states_reference(64, np.random.default_rng(3))
    assert [s.id for s in states] == sorted(s.id for s in states)


def test_line_rejects_a_single_node() -> None:
    with pytest.raises(ValueError, match="at least 2"):
        line_soa(1, np.random.default_rng(0))


@pytest.mark.parametrize("mode", ["self", "harmonic", "uniform"])
@pytest.mark.parametrize("n", SIZES)
def test_stable_ring_equals_the_per_node_build(n: int, mode: str) -> None:
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = stable_ring_states_reference(
            n, lrl=mode, rng=a, ids=generate_ids_reference(n, a)
        )
        soa = stable_ring_soa(n, lrl=mode, rng=b, ids=generate_ids(n, b))
        assert_same_columns(state_columns(expected), columns(soa))
        assert_same_stream(a, b)
        # The evenly spaced default ids, and the list API.
        expected = stable_ring_states_reference(n, lrl=mode, rng=a)
        assert stable_ring_states(n, lrl=mode, rng=b) == expected
        assert_same_stream(a, b)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_sorted_ring_equals_the_per_node_build(n: int) -> None:
    ids = list(np.random.default_rng(n).permutation(n) / max(n, 1))
    expected = wire_sorted_ring_reference(ids)
    assert_same_columns(state_columns(expected), columns(wire_sorted_ring_soa(ids)))
    assert wire_sorted_ring(ids) == expected


def test_ring_builders_reject_bad_ids() -> None:
    with pytest.raises(ValueError, match="duplicate identifier 0.5"):
        wire_sorted_ring_soa([0.25, 0.5, 0.5])
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        wire_sorted_ring_soa([0.25, 1.0])
    with pytest.raises(ValueError, match="requires an rng"):
        stable_ring_soa(4, lrl="harmonic")
    with pytest.raises(ValueError, match="unknown lrl mode"):
        stable_ring_soa(4, lrl="bogus", rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="positive"):
        stable_ring_soa(0)


# ----------------------------------------------------------------------
# generate_ids: vectorized keep-mask, the same draws
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 5, 100, 4096])
def test_generate_ids_equals_the_per_value_loop(n: int) -> None:
    for seed in SEEDS:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generate_ids(n, b) == generate_ids_reference(n, a)
        assert_same_stream(a, b)


class _ScriptedRandom:
    """A generator stub whose ``random(k)`` replays scripted rounds."""

    def __init__(self, rounds: list[list[float]]) -> None:
        self.rounds = list(rounds)
        self.sizes: list[int] = []

    def random(self, k: int) -> np.ndarray:
        self.sizes.append(k)
        values = self.rounds.pop(0)
        assert len(values) == k
        return np.array(values)


def test_generate_ids_redraw_rule() -> None:
    """A repeat within a round, a value an earlier round kept and a
    ``1.0`` are each redrawn; the keepers append in draw order."""
    script = [[0.5, 0.5, 1.0, 0.125], [0.5, 0.75], [0.25]]
    stub = _ScriptedRandom(script)
    assert generate_ids(4, stub) == [0.5, 0.125, 0.75, 0.25]  # type: ignore[arg-type]
    assert stub.sizes == [4, 2, 1]
    oracle = _ScriptedRandom(script)
    assert generate_ids_reference(4, oracle) == [0.5, 0.125, 0.75, 0.25]  # type: ignore[arg-type]
    assert oracle.sizes == stub.sizes


# ----------------------------------------------------------------------
# Column exports against the per-slot exports they replaced
# ----------------------------------------------------------------------
def _per_slot_states(soa: SoAState) -> list[NodeState]:
    states = []
    for i in soa.sorted_live()[1]:
        ring = soa.ring[i]
        states.append(
            NodeState(
                id=float(soa.ids[i]),
                l=float(soa.l[i]),
                r=float(soa.r[i]),
                lrl=float(soa.lrl[i]),
                ring=None if np.isnan(ring) else float(ring),
                age=int(soa.age[i]),
            )
        )
    return states


def _per_slot_snapshot(soa: SoAState) -> dict:
    return {s.id: s.as_tuple() for s in _per_slot_states(soa)}


def test_exports_equal_the_per_slot_export_on_a_churned_state() -> None:
    sim = FastSimulator.from_states(line_soa(96, np.random.default_rng(4)), rng=5)
    sim.run(12)
    host = sim.engine
    ids = np.asarray(host.ids)
    host.leave_batch(ids[::5])
    sim.run(3)
    soa = host.soa
    assert soa.n_dead > 0, "the state must hold tombstoned slots"
    ring = soa.ring[soa.sorted_live()[1]]
    assert np.isnan(ring).any() and not np.isnan(ring).all()
    assert np.isinf(soa.l[soa.sorted_live()[1]]).any()
    states = soa.to_states()
    assert states == _per_slot_states(soa)
    assert [type(v) for v in states[0].as_tuple()[:4]] == [float] * 4
    snapshot = soa.snapshot()
    assert snapshot == _per_slot_snapshot(soa)
    assert list(snapshot) == list(_per_slot_snapshot(soa))
    assert all(type(row[5]) is int for row in snapshot.values())


# ----------------------------------------------------------------------
# The doors take a start and never alias it
# ----------------------------------------------------------------------
def test_two_simulators_from_one_start_evolve_independently() -> None:
    start = line_soa(256, np.random.default_rng(8))
    before = start.snapshot()
    a = make_simulator(start, engine="fast", rng=1)
    b = FastSimulator.from_states(start, rng=2)
    assert a.host.soa is not start and b.host.soa is not start
    a.run(20)
    assert start.snapshot() == before
    assert b.state_snapshot() == before
    b.run(20)
    assert a.state_snapshot() != b.state_snapshot()
    again = make_simulator(start, engine="fast", rng=1)
    again.run(20)
    assert again.state_snapshot() == a.state_snapshot()
    assert start.snapshot() == before


def test_the_column_door_takes_only_an_id_sorted_start() -> None:
    sim = FastSimulator.from_states(line_soa(64, np.random.default_rng(2)), rng=1)
    sim.run(5)
    sim.engine.leave_batch(np.asarray(sim.engine.ids[:4]))
    churned = sim.engine.soa
    assert churned.n_dead
    shuffled = SoAState.from_states(line_topology(8, np.random.default_rng(2))[::-1])
    for start in (churned, shuffled):
        with pytest.raises(ValueError, match="id-sorted"):
            FastSimulator.from_states(start)
        with pytest.raises(ValueError, match="id-sorted"):
            FastSimulator.from_states(start, mode="sharded")


def test_the_column_door_equals_the_list_door() -> None:
    start = line_soa(512, np.random.default_rng(9))
    columns_sim = FastSimulator.from_states(start, rng=3)
    list_sim = FastSimulator.from_states(start.to_states(), rng=3)
    columns_sim.run(40)
    list_sim.run(40)
    assert columns_sim.state_snapshot() == list_sim.state_snapshot()
    assert columns_sim.engine.stats.total == list_sim.engine.stats.total


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_from_a_start_replays_batched(shards: int) -> None:
    start = line_soa(384, np.random.default_rng(10))
    batched = FastSimulator.from_states(start, rng=6)
    sharded = FastSimulator.from_states(start, mode="sharded", shards=shards, rng=6)
    assert sharded.host.soa is not start
    rounds = batched.run_until(lambda h: h.is_sorted_list(), max_rounds=2000)
    assert sharded.run_until(lambda h: h.is_sorted_list(), max_rounds=2000) == rounds
    assert sharded.host.stats.total == batched.engine.stats.total
    assert sharded.state_snapshot() == batched.state_snapshot()
    assert start.snapshot() == line_soa(384, np.random.default_rng(10)).snapshot()


def test_the_reference_door_takes_a_start() -> None:
    start = stable_ring_soa(
        48, lrl="harmonic", rng=np.random.default_rng(1), ids=None
    )
    reference = make_simulator(start, engine="reference", rng=4)
    listed = make_simulator(start.to_states(), engine="reference", rng=4)
    fast = make_simulator(start, engine="fast", rng=4)
    assert reference.host.state_snapshot() == start.snapshot() == fast.host.state_snapshot()
    reference.run(10)
    listed.run(10)
    assert reference.host.state_snapshot() == listed.host.state_snapshot()
    assert start.snapshot() == fast.host.state_snapshot()
