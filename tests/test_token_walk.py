"""The token walk by segments equals the walk one wave at a time.

The batched round walks the move-and-forget tokens of Algorithm 4 ahead of
its dispatch, one ``Kernels.move_forget`` call and one draw per *segment*:
a run of waves that holds each node at most once, cut where a node's
second ``reslrl`` row of the round sits (``batched.walk_cuts``), its coins
and forgets cut from one ``rng.random`` call in the order a wave-by-wave
walk draws them (``batched.token_draws``).  ``tests/reference_flush.py``
keeps that wave-by-wave walk.  Here the two run on twin engines over
arbitrary states and traffic that gives nodes several ``reslrl`` rows a
round — staged directly, delayed on a chaos wire, restaged by a starving
``WaveDispatchFault`` — with responders that are all invalid and with
move-and-forget off; after every walk the ``lrl``/``age`` columns, the
``lrl`` and forgotten link each row recorded, and the RNG state must be
equal, and so must each round's end.  The sharded engine, which draws for
every shard at once, must walk as the batched engine does at 1–3 shards.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.sim.chaos.injectors import MessageDelay
from repro.sim.fast.batched import FastEngine, token_draws, walk_cuts
from repro.sim.fast.buffers import N_TYPES, RESLRL
from repro.sim.fast.chaos.scheduler import WaveDispatchFault
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import walk_tokens_reference
from tests.test_writer_schedule import (
    IDS,
    POINTERS,
    build,
    config_strategy,
    node_strategy,
    observe,
)

#: A responder no node's ``lrl`` can hold: the row is invalid.
NOBODY = 0.999

#: Traffic that is mostly ``reslrl``, to three hubs and a few others, so a
#: node often holds several token rows a round.  ``a is None`` is "the
#: destination's current ``lrl``" (a valid responder); otherwise ``a`` is
#: valid only where it happens to equal the walked ``lrl``.
token_row_strategy = st.tuples(
    st.sampled_from((RESLRL,) * 4 + tuple(range(N_TYPES))),
    st.sampled_from(IDS[3:6] * 4 + IDS),
    st.one_of(st.none(), st.none(), st.sampled_from(POINTERS)),
    st.sampled_from(POINTERS + (-np.inf,)),
    st.sampled_from(POINTERS + (np.inf,)),
)


def walk_log(engine, rng) -> list:
    """Record, after every round's walk, what the walk left behind."""
    log: list = []
    maf = engine.config.move_and_forget

    def record(plans) -> None:
        soa = engine.soa
        tokens = None
        if maf:
            # Rows in inbox order; shard inboxes concatenate to the global one.
            rows = [plan.ordinals(np.sort(plan.walk)) for plan in plans]
            tokens = (
                np.concatenate([p.token_lrl[r] for p, r in zip(plans, rows)]),
                np.concatenate([p.token_forgot[r] for p, r in zip(plans, rows)]),
            )
        log.append(
            (
                soa.lrl[: soa.size].copy(),
                soa.age[: soa.size].copy(),
                tokens,
                rng.bit_generator.state,
            )
        )

    cores = getattr(engine, "cores", None)
    if cores is None:
        run_groups = engine._run_groups

        def spy_groups(plan):
            record([plan])
            run_groups(plan)

        engine._run_groups = spy_groups
    else:
        # Every shard has walked when the first one finishes its round.
        finish = cores[0].finish_round

        def spy_finish():
            record([core._plan for core in cores if core._plan is not None])
            return finish()

        cores[0].finish_round = spy_finish
    return log


def by_reference(engine):
    """*engine*, walking its tokens one wave at a time."""
    engine._walk = lambda plan, rng: walk_tokens_reference(engine, plan, rng)
    return engine


def assert_same_walks(got: list, want: list) -> None:
    assert len(got) == len(want)
    for round_index, (g, w) in enumerate(zip(got, want)):
        lrl, age, tokens, state = g
        np.testing.assert_array_equal(lrl, w[0], err_msg=f"lrl, round {round_index}")
        np.testing.assert_array_equal(age, w[1], err_msg=f"age, round {round_index}")
        assert (tokens is None) == (w[2] is None)
        if tokens is not None:
            for part, expected in zip(tokens, w[2]):
                np.testing.assert_array_equal(part, expected)
        assert state == w[3], f"rng, round {round_index}"


def run(engine, seed: int, rounds: int) -> tuple[list, list]:
    rng = np.random.default_rng(seed)
    log = walk_log(engine, rng)
    ends = []
    for _ in range(rounds):
        engine.execute_round(rng)
        ends.append(observe(engine, rng))
    return log, ends


# ----------------------------------------------------------------------
# Staged traffic: the batched engine (both schedules) and 1-3 shards
# ----------------------------------------------------------------------
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    config=config_strategy,
    nodes=st.lists(node_strategy, min_size=len(IDS), max_size=len(IDS)),
    rows=st.lists(token_row_strategy, min_size=1, max_size=120),
    invalid=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_segment_walk_equals_wave_walk(config, nodes, rows, invalid, seed) -> None:
    if invalid:
        rows = [
            (code, dest, NOBODY if code == RESLRL else a, b, c)
            for code, dest, a, b, c in rows
        ]
    expected = {
        kind: run(by_reference(build(kind, config, nodes, rows)), seed, 2)
        for kind in ("writer", "all-true")
    }
    for kind in ("writer", "all-true", "sharded-1", "sharded-2", "sharded-3"):
        walks, ends = run(build(kind, config, nodes, rows), seed, 2)
        want_walks, want_ends = expected.get(kind, expected["writer"])
        assert_same_walks(walks, want_walks)
        assert ends == want_ends, kind


# ----------------------------------------------------------------------
# Several token rows a node from the protocol itself: a delaying wire and
# a starving wave fault
# ----------------------------------------------------------------------
def delayed(states, config, seed: int) -> FastEngine:
    engine = FastEngine(states, config, wire=True)
    delay = MessageDelay(max_delay=3)
    delay.bind(np.random.default_rng(seed))
    engine.wire.set_wire_faults([delay])
    return engine


def starved(states, config, seed: int) -> FastEngine:
    engine = FastEngine(states, config)
    engine.set_wave_fault(
        WaveDispatchFault(np.random.default_rng(seed), starvation=0.4)
    )
    return engine


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    n=st.integers(min_value=4, max_value=40),
    maf=st.sampled_from([True, True, False]),
    make=st.sampled_from([delayed, starved]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_walk_under_delay_and_starvation(topology, n, maf, make, seed) -> None:
    config = ProtocolConfig(move_and_forget=maf)
    states = TOPOLOGIES[topology](n, np.random.default_rng(seed))
    walks, ends = run(make(states, config, seed), seed, 8)
    want_walks, want_ends = run(by_reference(make(states, config, seed)), seed, 8)
    assert_same_walks(walks, want_walks)
    assert ends == want_ends


def test_delay_and_starvation_give_several_segments() -> None:
    """The two scenarios above do reach rounds the walk cuts."""
    for make in (delayed, starved):
        engine = make(TOPOLOGIES["line"](32, np.random.default_rng(3)), None, 3)
        plan_round = engine._plan_round
        segments = []

        def spy(pre, keys):
            plan = plan_round(pre, keys)
            segments.append(len(plan.segments()))
            return plan

        engine._plan_round = spy
        rng = np.random.default_rng(3)
        for _ in range(12):
            engine.execute_round(rng)
        assert max(segments) >= 2, (make.__name__, segments)


# ----------------------------------------------------------------------
# The two helpers on their own
# ----------------------------------------------------------------------
def test_walk_cuts_at_a_nodes_later_rows() -> None:
    slots = np.array([4, 1, 4, 2, 1, 4, 7])
    waves = np.array([0, 0, 1, 2, 2, 5, 5])
    np.testing.assert_array_equal(walk_cuts(slots, waves), [1, 2, 5])
    assert len(walk_cuts(np.array([3, 1, 2]), np.array([0, 1, 1]))) == 0
    assert len(walk_cuts(np.empty(0, dtype=np.int64), np.empty(0))) == 0


@given(
    counts=st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_token_draws_is_the_wave_by_wave_stream(counts, seed) -> None:
    """Per wave, every part's coins (parts ascending), then every part's
    forgets: one draw cut up, against one pair of draws per wave."""
    counts = np.array(counts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    draws = token_draws(rng, counts)
    twin = np.random.default_rng(seed)
    want = [([], []) for _ in counts]
    for wave in counts.T:
        coins, forgets = twin.random(wave.sum()), twin.random(wave.sum())
        for part, (lo, hi) in enumerate(zip(np.cumsum(wave) - wave, np.cumsum(wave))):
            want[part][0].extend(coins[lo:hi])
            want[part][1].extend(forgets[lo:hi])
    assert rng.bit_generator.state == twin.bit_generator.state
    for (coins, forgets), (want_coins, want_forgets) in zip(draws, want):
        np.testing.assert_array_equal(coins, want_coins)
        np.testing.assert_array_equal(forgets, want_forgets)
