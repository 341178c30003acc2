"""The writer schedule equals the wave-by-wave dispatch it replaced.

The batched round dispatches its inbox by *writers*: rows that may store
into their node run one at a time per node, everything between two writers
of a node shares one kernel call (``repro/sim/fast/batched.py``,
docs/PERF.md §2 "Writer schedule").  With every row marked a writer the
same code groups by ``(wave, type)`` — the schedule it replaced, and the
one a chaos wire or a ``WaveFault`` still gets.  These tests hold the two
against each other over arbitrary (model-violating) states and traffic,
execute the superset argument instead of trusting it, pin the degenerate
case to the old group list, and ratchet the dispatch count the change is
about.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.sim.fast import batched
from repro.sim.fast.batched import FastEngine, writer_rows
from repro.sim.fast.buffers import N_TYPES, RESLRL, draw_delivery_keys, prepare_inbox
from repro.sim.fast.chaos.scheduler import WaveDispatchFault
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.kernels import Kernels
from repro.sim.fast.predicates import fast_is_sorted_list
from repro.sim.fast.sanitize import FlowSanitizer
from repro.sim.fast.shard import ShardedEngine
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import finalize_inbox_reference, wave_groups_reference
from tests.test_wave_uniqueness import ID_POOL, make_chunks, wire_row_strategy

class IdentityWaveFault:
    """The ``WaveFault`` that rewrites nothing: installed, it makes staging
    order observable, so the engine plans every row as a writer and
    dispatches the ``(wave, type)`` groups."""

    def rewrite(self, groups):
        return groups, []


#: Ten nodes, and three identifiers nobody holds (between, below, above).
IDS = tuple(round(0.04 + 0.09 * i, 2) for i in range(10))
DANGLING = (0.015, 0.5, 0.985)
POINTERS = IDS + DANGLING

#: One node's variables, as slots of the SoA columns: ``l``/``r`` may sit
#: on the wrong side of the id, anything may dangle, ``ring`` may be unset.
#: Missing neighbours are frequent, so gaps are wide and rows get adopted.
node_strategy = st.tuples(
    st.sampled_from(POINTERS + (-np.inf,) * 6),
    st.sampled_from(POINTERS + (np.inf,) * 6),
    st.sampled_from(POINTERS),
    st.sampled_from(POINTERS + (np.nan,) * 4),
    st.integers(min_value=0, max_value=40),
)
#: One staged row ``(type, dest, a, b, c)``.  ``a is None`` on a ``reslrl``
#: row stands for "the destination's current lrl" — a valid response.  The
#: small pools make exact duplicates frequent, and three nodes in the
#: middle of the id space are hubs with candidates on both sides.
row_strategy = st.tuples(
    st.integers(min_value=0, max_value=N_TYPES - 1),
    st.sampled_from(POINTERS + IDS[3:6] * 5),
    st.one_of(st.none(), st.sampled_from(POINTERS)),
    st.sampled_from(POINTERS + (-np.inf,)),
    st.sampled_from(POINTERS + (np.inf,)),
)
config_strategy = st.builds(
    ProtocolConfig,
    lrl_shortcuts=st.booleans(),
    move_and_forget=st.sampled_from([True, True, False]),
)


def corrupt(engine, nodes) -> None:
    """Write *nodes* straight into the columns (slot order is id order)."""
    soa = engine.soa
    for slot, (l, r, lrl, ring, age) in enumerate(nodes):
        soa.l[slot], soa.r[slot], soa.lrl[slot] = l, r, lrl
        soa.ring[slot], soa.age[slot] = ring, age


def stage(outbox, engine, rows) -> None:
    """Stage *rows*, two sends per type so chunk boundaries exist."""
    lrl_of = dict(zip(IDS, engine.soa.lrl[: len(IDS)].tolist()))
    for code in range(N_TYPES):
        typed = [
            (dest, lrl_of.get(dest, dest) if a is None else a, b, c)
            for tcode, dest, a, b, c in rows
            if tcode == code
        ]
        half = len(typed) // 2
        for part in (typed[:half], typed[half:]):
            if not part:
                continue
            cols = [np.array(col, dtype=np.float64) for col in zip(*part)]
            outbox.send(code, *(cols if code == RESLRL else cols[:2]))


def build(kind: str, config: ProtocolConfig, nodes, rows, *, sanitize=None):
    """An engine of *kind* over the corrupted nodes with *rows* staged.

    ``writer`` is the shipped batched engine; ``all-true`` is the same
    engine with the writer gate shut by the identity ``WaveFault``, which
    makes every row a writer; ``sharded-k``
    is k inline shards.
    """
    states = [NodeState(id=v) for v in IDS]
    if kind.startswith("sharded"):
        engine = ShardedEngine(
            states, config, shards=int(kind[-1]), sanitize=sanitize
        )
        outbox = engine.cores[0].outbox
    else:
        engine = FastEngine(states, config, sanitize=sanitize)
        outbox = engine.outbox
        if kind != "writer":
            engine.set_wave_fault(IdentityWaveFault())
    corrupt(engine, nodes)
    stage(outbox, engine, rows)
    return engine


def staged_multiset(engine) -> list[Counter]:
    """Per type, the multiset of staged rows (columns as bit patterns)."""
    dest, tcode, a, b, c = engine.in_flight_rows()
    out = [Counter() for _ in range(N_TYPES)]
    for code in range(N_TYPES):
        rows = tcode == code
        columns = (dest, a, b, c) if code == RESLRL else (dest, a)
        bits = [np.ascontiguousarray(col[rows]).view(np.uint64).tolist() for col in columns]
        out[code].update(zip(*bits))
    return out


def observe(engine, rng) -> tuple:
    return (
        engine.state_snapshot(),
        staged_multiset(engine),
        engine.stats.total,
        dict(engine.stats.totals_by_type),
        engine.dropped,
        rng.bit_generator.state,
    )


# ----------------------------------------------------------------------
# (i) writer schedule == all-true schedule, batched and sharded
# ----------------------------------------------------------------------
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    config=config_strategy,
    nodes=st.lists(node_strategy, min_size=len(IDS), max_size=len(IDS)),
    rows=st.lists(row_strategy, min_size=1, max_size=150),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_writer_schedule_equals_wave_schedule(config, nodes, rows, seed) -> None:
    """Two rounds — the staged traffic, then what it caused — leave state,
    staged multiset, send counts, drops and the RNG where the wave-by-wave
    dispatch leaves them, on the batched engine and on 1–3 shards."""
    observed = {}
    for kind in ("all-true", "writer", "sharded-1", "sharded-2", "sharded-3"):
        engine = build(kind, config, nodes, rows)
        rng = np.random.default_rng(seed)
        trail = []
        for _ in range(2):
            engine.execute_round(rng)
            trail.append(observe(engine, rng))
        observed[kind] = trail
    expected = observed.pop("all-true")
    for kind, trail in observed.items():
        for round_index, (got, want) in enumerate(zip(trail, expected)):
            for part, (g, w) in enumerate(zip(got, want)):
                assert g == w, (kind, round_index, part)


# ----------------------------------------------------------------------
# (ii) the writer mask is a superset of the rows that store
# ----------------------------------------------------------------------
class StoreLog(FlowSanitizer):
    """A sanitizer that also keeps ``(window number, slots stored)``."""

    def __init__(self, expected) -> None:
        super().__init__(expected)
        self.windows = 0
        self.stores: list[tuple[int, np.ndarray]] = []

    def begin(self, kernel, idx=None, *, read_only=False) -> None:
        super().begin(kernel, idx, read_only=read_only)
        self.windows += 1

    def write(self, column, key) -> None:
        super().write(column, key)
        if self._current is not None and np.size(key):
            self.stores.append((self.windows - 1, np.array(key)))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    config=config_strategy,
    nodes=st.lists(node_strategy, min_size=len(IDS), max_size=len(IDS)),
    rows=st.lists(row_strategy, min_size=1, max_size=150),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_writer_mask_covers_every_row_that_stores(config, nodes, rows, seed) -> None:
    """Dispatched wave by wave under the sanitizer, every row whose kernel
    call stored anything is a row ``writer_rows`` marked up front."""
    with mock.patch.object(batched, "FlowSanitizer", StoreLog):
        engine = build("all-true", config, nodes, rows, sanitize=True)
    log = engine.sanitizer
    assert isinstance(log, StoreLog)
    planned = []
    plan_round = engine._plan_round

    def spy(pre, keys):
        plan = plan_round(pre, keys)
        assert plan.writer is None
        # The mask over the inbox in delivery order, back at canonical rows.
        inbox = finalize_inbox_reference(pre, keys)
        mask = np.empty(len(inbox), dtype=bool)
        mask[inbox.position] = writer_rows(inbox, engine.soa)
        planned.append((plan, mask))
        return plan

    engine._plan_round = spy
    engine.execute_round(np.random.default_rng(seed))
    if not planned:
        return
    (plan, mask), = planned
    # One window per segment of the token walk, then one per group, then
    # the regular action.
    segments = [plan.walk_rows(lo, hi)[0] for lo, hi in plan.segments()]
    windows = [*segments, *(group_rows for _, group_rows in plan.groups)]
    assert log.windows == len(windows) + 1
    for window, slots in log.stores:
        if window == len(windows):
            continue  # the regular action is not a message
        window_rows = windows[window]
        dest = plan.inbox.dest_idx[window_rows]
        assert len(np.unique(dest)) == len(dest)
        hit = window_rows[np.isin(dest, slots)]
        assert len(hit) == len(np.unique(slots))
        assert mask[hit].all(), (window, plan.inbox.tcode[hit], hit)


# ----------------------------------------------------------------------
# (iv) the all-true schedule is the (wave, type) group list of the parent
# ----------------------------------------------------------------------
def canonical_groups(pre, keys) -> list:
    """The parent's ``(wave, type)`` groups of *pre* under *keys*: the
    stable sort of the whole inbox in delivery order, its rows mapped back
    to canonical positions (int32, as the plan holds them)."""
    inbox = finalize_inbox_reference(pre, keys)
    return [
        (code, inbox.position[rows].astype(np.int32))
        for code, rows in wave_groups_reference(inbox)
    ]


def assert_same_groups(got, expected) -> None:
    assert [code for code, _ in got] == [code for code, _ in expected]
    for (_, got_rows), (_, expected_rows) in zip(got, expected):
        np.testing.assert_array_equal(got_rows, expected_rows)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(wire_row_strategy, min_size=1, max_size=80),
    dedup=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    starvation=st.sampled_from([0.0, 0.3]),
)
def test_observable_staging_keeps_the_wave_groups(rows, dedup, seed, starvation) -> None:
    """A wire engine, a multiset engine (``dedup`` off) and an engine under
    a ``WaveDispatchFault`` schedule the groups the parent scheduled for
    the same inbox: the stable sort by ``(wave, type)`` — rewritten by the
    fault, from the same fault stream — and walk their tokens over the
    ``reslrl`` groups of that list, one wave per group.  Only the plain
    engine with ``dedup`` on plans writers."""
    states = [NodeState(id=v) for v in ID_POOL]
    wire = FastEngine(states, dedup=dedup, wire=True)
    pre, _ = prepare_inbox(make_chunks(rows), wire.soa.lookup, dedup=dedup)
    if pre is None:
        return
    keys = draw_delivery_keys(
        np.random.default_rng(seed), len(pre), packed_ok=pre.packed_ok
    )
    parent = canonical_groups(pre, keys)
    plan = wire._plan_round(pre, keys)
    assert plan.writer is None
    assert_same_groups(plan.groups, parent)

    plain = FastEngine(states, dedup=dedup)
    plan = plain._plan_round(pre, keys)
    assert (plan.writer is None) == (not dedup)
    if not dedup:
        assert_same_groups(plan.groups, parent)

    faulted = FastEngine(states, dedup=dedup)
    faulted.set_wave_fault(
        WaveDispatchFault(np.random.default_rng(seed), starvation=starvation)
    )
    twin = WaveDispatchFault(np.random.default_rng(seed), starvation=starvation)
    expected, starved = twin.rewrite(parent)
    plan = faulted._plan_round(pre, keys)
    assert plan.writer is None
    assert_same_groups(plan.groups, expected)
    assert faulted.pending_total() == sum(len(r) for _, r in starved)
    batches = [r for code, r in expected if code == RESLRL]
    np.testing.assert_array_equal(
        plan.walk, np.concatenate(batches) if batches else []
    )
    np.testing.assert_array_equal(
        plan.walk_wave, np.repeat(np.arange(len(batches)), list(map(len, batches)))
    )


# ----------------------------------------------------------------------
# (v) the point of the schedule: dispatches per round
# ----------------------------------------------------------------------
def test_dispatches_per_round_ratchet() -> None:
    """The shuffled line at n = 512, seed 7 (the suite's ``--smoke`` cold
    workload: 72 rounds to the sorted list checked every 8, 71 inboxes of
    29 waves on average) ran 119 ``(wave, type)`` groups a round; the
    writer schedule runs 28.  40 leaves room for a mask that flags a few
    more rows, not for a schedule that falls back to waves.  Every node
    receives at most one ``reslrl`` a round there, so the token walk is
    one segment and ``move_forget`` runs once an inbox (70 of the 71 hold
    a ``reslrl`` row; the first holds the first ``inclrl``), not once a
    wave."""
    sim = FastSimulator.from_states(
        TOPOLOGIES["line"](512, np.random.default_rng(7)),
        rng=np.random.default_rng(7),
    )
    engine = sim.engine
    scheduled, by_wave, waves, tokens, walked = [], [], [], [], []
    plan_round = engine._plan_round
    move_forget = Kernels.move_forget

    def spy(pre, keys):
        plan = plan_round(pre, keys)
        scheduled.append(len(plan.groups))
        inbox = finalize_inbox_reference(pre, keys)
        by_wave.append(len(np.unique(inbox.rank * 8 + inbox.tcode)))
        waves.append(inbox.n_waves)
        tokens.append(pre.n_res > 0)
        return plan

    def count(kernels, idx, *args, **kwargs):
        walked.append(len(idx))
        return move_forget(kernels, idx, *args, **kwargs)

    engine._plan_round = spy
    with mock.patch.object(Kernels, "move_forget", count):
        rounds = sim.run_until(fast_is_sorted_list, max_rounds=200, check_every=8)
    assert (rounds, len(scheduled)) == (72, 71)
    assert 25 <= np.mean(waves) <= 33
    assert np.mean(by_wave) >= 100
    assert np.mean(scheduled) <= 40, np.mean(scheduled)
    assert len(walked) == sum(tokens) == 70
