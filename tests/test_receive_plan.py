"""The round's planner equals the whole-inbox delivery order it stands in for.

The batched round plans its receive phase straight from the canonical rows
and their delivery keys (``repro.sim.fast.batched.receive_steps``): a node
with at most one row that may store places every other row against that
writer with one compare, and only the rows of nodes where two writers may
meet are sorted into delivery order.  Here the plans of ``FastEngine`` —
with the writer mask and with every row a writer — and of a ``ShardCore``
slice are held against the oracles of
``tests/reference_flush.py`` composed over the *whole* inbox in delivery
order (``finalize_inbox_reference`` → ``writer_rows_reference`` →
``wave_groups_reference``): the same ``(step, type)`` groups as row sets in
canonical positions (as row sequences where every row is a writer, since
then a group's order is the next round's staging order), the same writer
mask, and the same walk rows, waves and reslrl ordinals.  Arbitrary
(model-violating) node states make gap candidates frequent, and small key
spaces make key ties frequent (the delivery sort's ``lexsort`` fallback).
A last test pins the point of the planner: on a stationary round
the delivery-order sort sees a sliver of the inbox.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.churn.experiments import stable_simulator
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.sim.fast import buffers
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.buffers import LIN, PROBL, PROBR, RESLRL, RESRING, RING, prepare_inbox
from repro.sim.fast.shard import ShardedEngine
from tests.reference_flush import (
    finalize_inbox_reference,
    wave_groups_reference,
    writer_rows_reference,
)
from tests.test_writer_schedule import (
    IDS,
    IdentityWaveFault,
    corrupt,
    node_strategy,
    row_strategy,
    stage,
)

#: Delivery-key spaces: two and five values make most nodes hold equal
#: keys (the canonical-position tiebreak), 2**42 is the real draw.
KEY_SPACES = (2, 5, 1 << 42)


def prepared(kind: str, nodes, rows):
    """``(planner, prepared inbox, soa)`` for one engine *kind* over the
    corrupted *nodes* with *rows* staged: ``writer`` plans with the mask,
    ``all-true`` is shut to every row a writer by the identity
    ``WaveFault``, ``shard`` is the second of two shard cores after its
    exchange."""
    states = [NodeState(id=v) for v in IDS]
    config = ProtocolConfig()
    if kind == "shard":
        engine = ShardedEngine(states, config, shards=2)
        corrupt(engine, nodes)
        stage(engine.cores[0].outbox, engine, rows)
        routed = [core.route_take(2) for core in engine.cores]
        core = engine.cores[1]
        core.prepare_round([routed[src][1] for src in range(2)])
        return core, core._pre, engine.soa
    engine = FastEngine(states, config)
    if kind == "all-true":
        engine.set_wave_fault(IdentityWaveFault())
    corrupt(engine, nodes)
    stage(engine.outbox, engine, rows)
    pre, _ = prepare_inbox(engine.outbox.take_all(), engine.soa.lookup)
    return engine, pre, engine.soa


def draw_keys(pre, seed: int, key_space: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, key_space, size=len(pre), dtype=np.int64)


def assert_plan_is_the_delivery_order(part, pre, keys, soa, planned: bool) -> None:
    inbox = finalize_inbox_reference(pre, keys)
    at = inbox.position  # delivery row -> canonical position
    writer = writer_rows_reference(inbox, soa) if planned else None
    expected = [(code, at[rows]) for code, rows in wave_groups_reference(inbox, writer)]
    plan = part._plan_round(pre, keys)

    if planned:
        assert plan.writer is not None
        mask = np.empty(len(pre), dtype=bool)
        mask[at] = writer
        np.testing.assert_array_equal(plan.writer, mask)
    else:
        assert plan.writer is None
    assert [code for code, _ in plan.groups] == [code for code, _ in expected]
    for (code, got), (_, want) in zip(plan.groups, expected):
        assert got.dtype == np.int32
        if planned:
            np.testing.assert_array_equal(np.sort(got), np.sort(want), err_msg=str(code))
        else:
            np.testing.assert_array_equal(got, want, err_msg=str(code))

    if planned:
        tokens = np.flatnonzero(inbox.tcode == RESLRL)
        order = np.argsort(inbox.rank[tokens], kind="stable")
        walk = at[tokens[order]]
        walk_wave = inbox.rank[tokens[order]]
    else:
        batches = [rows for code, rows in expected if code == RESLRL]
        walk = np.concatenate([np.empty(0, dtype=np.intp), *batches])
        walk_wave = np.repeat(np.arange(len(batches)), [len(b) for b in batches])
    np.testing.assert_array_equal(plan.walk, walk)
    np.testing.assert_array_equal(plan.walk_wave, walk_wave)
    np.testing.assert_array_equal(plan.walk_token, walk - pre.res_lo)
    np.testing.assert_array_equal(plan.ordinals(walk), walk - pre.res_lo)
    res = np.flatnonzero(pre.tcode == RESLRL)
    np.testing.assert_array_equal(plan.ordinals(res), np.arange(pre.n_res))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    kind=st.sampled_from(["writer", "writer", "all-true", "shard"]),
    nodes=st.lists(node_strategy, min_size=len(IDS), max_size=len(IDS)),
    rows=st.lists(row_strategy, min_size=1, max_size=150),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    key_space=st.sampled_from(KEY_SPACES),
)
def test_plan_equals_the_whole_inbox_oracles(kind, nodes, rows, seed, key_space) -> None:
    part, pre, soa = prepared(kind, nodes, rows)
    if pre is None:
        return
    keys = draw_keys(pre, seed, key_space)
    assert_plan_is_the_delivery_order(part, pre, keys, soa, kind != "all-true")


#: Nodes 0-3 with wide gaps (no left, no right neighbour), then settled ones.
OPEN = (-np.inf, np.inf, IDS[0], np.nan, 0)
SETTLED = [(IDS[i - 1], IDS[i + 1], IDS[i], np.nan, 0) for i in range(4, 9)]


@pytest.mark.parametrize("kind", ["writer", "all-true", "shard"])
@pytest.mark.parametrize("tied", [False, True])
def test_plan_covers_every_kind_of_node(monkeypatch, kind, tied) -> None:
    """One inbox with a node of no writer, of one writer (a token, a ring
    reply, a lone candidate), of two (two tokens, a token and a candidate,
    two candidates on one side of which only one is promoted), every row
    under 42-bit draws (the delivery sort's one-word path) or under *tied*
    keys (its ``lexsort`` fallback): the same plan as the oracles give,
    and the path each key set is for runs."""
    fallbacks = []
    one_word = buffers._truncated_order

    def spy(slots, keys):
        order = one_word(slots, keys)
        fallbacks.append(order is None)
        return order

    monkeypatch.setattr(buffers, "_truncated_order", spy)
    nodes = [OPEN] * 4 + SETTLED + [OPEN]
    rows = [
        (LIN, IDS[5], IDS[4], 0.0, 0.0),  # node 5, settled: no writer
        (PROBR, IDS[5], IDS[6], 0.0, 0.0),
        (RESLRL, IDS[6], None, -np.inf, np.inf),  # node 6: one token
        (LIN, IDS[6], IDS[5], 0.0, 0.0),
        (PROBL, IDS[6], IDS[5], 0.0, 0.0),
        (RESRING, IDS[7], IDS[2], 0.0, 0.0),  # node 7: one ring reply
        (RING, IDS[7], IDS[1], 0.0, 0.0),
        (LIN, IDS[0], IDS[3], 0.0, 0.0),  # node 0: a lone candidate
        (PROBL, IDS[0], IDS[2], 0.0, 0.0),  # (a probe on the wrong side)
        (RESLRL, IDS[1], None, -np.inf, np.inf),  # node 1: two tokens
        (RESLRL, IDS[1], IDS[8], -np.inf, np.inf),
        (LIN, IDS[1], IDS[3], 0.0, 0.0),
        (RESLRL, IDS[2], None, -np.inf, np.inf),  # node 2: token + candidate
        (LIN, IDS[2], IDS[5], 0.0, 0.0),
        (PROBR, IDS[2], IDS[9], 0.0, 0.0),
        (LIN, IDS[3], IDS[6], 0.0, 0.0),  # node 3: two on the right
        (LIN, IDS[3], IDS[8], 0.0, 0.0),
        (PROBR, IDS[3], IDS[7], 0.0, 0.0),
    ]
    part, pre, soa = prepared(kind, nodes, rows)
    for seed in range(6):
        keys = draw_keys(pre, seed, 2 if tied else 1 << 42)
        assert_plan_is_the_delivery_order(part, pre, keys, soa, kind != "all-true")
    # The second shard holds nodes 5-9, none of them with two writers.
    assert fallbacks == [tied] * (0 if kind == "shard" else 6)


def test_delivery_sort_sees_a_sliver_of_a_stationary_round() -> None:
    """A warmed stable overlay at n = 1 024, seed 7: over five rounds the
    delivery-order sort receives at most 1 % of the inbox rows (it reads
    0.06 %: ~10 rows of ~16 500).  A planner that sorted the whole inbox
    again reads 100 %."""
    sim = stable_simulator(1024, np.random.default_rng(7), engine="fast")
    rows = {"inbox": 0, "sorted": 0}
    prepare, finalize = buffers.prepare_inbox, buffers.finalize_inbox

    def counted_prepare(*args, **kwargs):
        pre, dropped = prepare(*args, **kwargs)
        rows["inbox"] += 0 if pre is None else len(pre)
        return pre, dropped

    def counted_finalize(pre, keys):
        rows["sorted"] += len(pre)
        return finalize(pre, keys)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(buffers, "prepare_inbox", counted_prepare)
        patch.setattr(buffers, "finalize_inbox", counted_finalize)
        sim.run(5)
    assert rows["inbox"] > 5 * 10_000, rows
    assert rows["sorted"] <= 0.01 * rows["inbox"], rows
