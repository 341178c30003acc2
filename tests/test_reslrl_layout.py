"""``b``/``c`` ride on the ``reslrl`` rows only, through every path that
moves them.

The flush carries a ``reslrl`` row's neighbour ids in columns as long as
the ``reslrl`` rows, aligned with them in row order
(:mod:`repro.sim.fast.buffers`).  Each case follows such rows through a
path where the short columns could fall out of line with their rows, with
distinct ids on every row so a shifted column shows: rows addressed to a
departed node (the flush drops them), the flush of a wired engine whose
delayed frames send a node several ``reslrl`` rows at once, rows a
starving ``WaveFault`` defers to the next round, and rows that cross a
shard boundary.  Where an oracle of ``tests/reference_flush.py`` exists
the comparison is array for array, ``b``/``c`` also at full length with
the ``0.0`` filler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.sim.chaos.injectors import MessageDelay
from repro.sim.fast import buffers
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.buffers import (
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RING,
    finalize_inbox,
    prepare_inbox,
)
from repro.sim.fast.shard import ShardedEngine
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import (
    finalize_inbox_reference,
    prepare_inbox_reference,
)
from tests.test_flush_reference import (
    ROW_FIELDS,
    assert_same_array,
    assert_same_fields,
    count_calls,
)
from tests.test_wave_uniqueness import DEAD_IDS, ID_POOL, make_chunks, make_soa
from tests.test_writer_schedule import IDS, stage


def triples(inbox, ids: np.ndarray) -> list[tuple[float, float, float, float]]:
    """``(dest id, a, b, c)`` of every ``reslrl`` row of a prepared or
    round inbox, in row order."""
    res = np.flatnonzero(inbox.tcode == RESLRL)
    assert len(inbox.b) == len(inbox.c) == len(res)
    dest = ids[inbox.dest_idx[res]]
    return list(zip(dest.tolist(), inbox.a[res].tolist(), inbox.b.tolist(), inbox.c.tolist()))


def reslrl_row(k: int, dest: float) -> tuple:
    """A ``reslrl`` row whose ids no other row repeats."""
    return (RESLRL, dest, ID_POOL[k % 12], 0.001 * (k + 1), 0.5 + 0.001 * (k + 1))


# ----------------------------------------------------------------------
# Rows addressed to a departed node
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk_rows", [1, 3, 100])
def test_reslrl_rows_to_departed_nodes(chunk_rows) -> None:
    """``reslrl`` rows to ids no node holds, between rows to live ones and
    beside other types: the flush drops exactly them, and every kept row
    keeps its own ``b``/``c`` through prepare and finalize."""
    dests = [ID_POOL[0], DEAD_IDS[0], ID_POOL[3], DEAD_IDS[1], DEAD_IDS[1],
             ID_POOL[5], ID_POOL[5], DEAD_IDS[2], ID_POOL[11]]
    rows = [reslrl_row(k, dest) for k, dest in enumerate(dests)]
    rows += [
        (LIN, ID_POOL[2], ID_POOL[4], 0.0, 0.0),
        (RING, DEAD_IDS[0], ID_POOL[1], 0.0, 0.0),
        (PROBL, ID_POOL[5], ID_POOL[1], 0.0, 0.0),
        (PROBR, DEAD_IDS[2], ID_POOL[9], 0.0, 0.0),
    ]
    soa = make_soa()
    chunks = make_chunks(rows, chunk_rows)
    expected, expected_dropped = prepare_inbox_reference(chunks, soa.lookup)
    pre, dropped = prepare_inbox(chunks, soa.lookup)
    assert dropped == expected_dropped == 6
    assert pre is not None and expected is not None
    assert_same_fields(pre, expected, ROW_FIELDS)
    assert pre.n_res == expected.n_res == 5
    live = sorted(row[1:] for row in rows if row[0] == RESLRL and row[1] in ID_POOL)
    assert sorted(triples(pre, soa.ids)) == live

    keys = np.random.default_rng(5).integers(0, 1 << 42, size=len(pre), dtype=np.int64)
    expected_inbox = finalize_inbox_reference(pre, keys)
    inbox = finalize_inbox(pre, keys)
    assert_same_fields(inbox, expected_inbox, ROW_FIELDS + ("rank",))
    assert sorted(triples(inbox, soa.ids)) == live


# ----------------------------------------------------------------------
# The flush of a wired engine whose frames are delayed
# ----------------------------------------------------------------------
def test_delayed_wired_flush_matches_reference(monkeypatch) -> None:
    """A wired engine, its frames delayed: a delay lands several rounds'
    ``reslrl`` rows on one node at once, so the ``reslrl`` block repeats
    heads and the dedup re-sorts their clashes, and prepare and finalize
    equal their oracles round after round."""
    re_sorts = count_calls(monkeypatch, "_sort_clashes")
    prepare, finalize = buffers.prepare_inbox, buffers.finalize_inbox
    repeated = []

    def checked_prepare(chunks, lookup):
        got, dropped = prepare(chunks, lookup)
        expected, expected_dropped = prepare_inbox_reference(chunks, lookup)
        assert dropped == expected_dropped
        assert (got is None) == (expected is None)
        if got is not None:
            assert_same_fields(got, expected, ROW_FIELDS)
            assert got.n_res == expected.n_res
            heads = got.dest_idx[got.res_lo :]
            repeated.append(len(np.unique(heads)) < len(heads))
        return got, dropped

    def checked_finalize(pre, keys):
        expected = finalize_inbox_reference(pre, keys)
        got = finalize(pre, keys)
        assert_same_fields(got, expected, ROW_FIELDS + ("rank",))
        return got

    monkeypatch.setattr(buffers, "prepare_inbox", checked_prepare)
    monkeypatch.setattr(buffers, "finalize_inbox", checked_finalize)
    engine = FastEngine(
        TOPOLOGIES["line"](32, np.random.default_rng(4)), wire=True
    )
    delay = MessageDelay(max_delay=3)
    delay.bind(np.random.default_rng(4))
    engine.wire.set_wire_faults([delay])
    rng = np.random.default_rng(4)
    for _ in range(12):
        engine.execute_round(rng)
    assert sum(repeated) >= 3, repeated
    assert re_sorts[0] >= 3


# ----------------------------------------------------------------------
# Rows a starving WaveFault defers
# ----------------------------------------------------------------------
class StarveTokens:
    """A ``WaveFault`` that dispatches every group but the ``reslrl`` ones,
    which it defers to the next round."""

    def rewrite(self, groups):
        return (
            [group for group in groups if group[0] != RESLRL],
            [group for group in groups if group[0] == RESLRL],
        )


def test_deferred_reslrl_rows_keep_their_ids() -> None:
    """Deferred ``reslrl`` rows, several to one node and beside other
    types, come back staged with their own ``(dest, a, b, c)``: the next
    round's flush sees the rows the first one starved."""
    dests = [ID_POOL[k] for k in (0, 4, 4, 7, 2, 4, 11, 7)]
    rows = [reslrl_row(k, dest) for k, dest in enumerate(dests)]
    others = [(LIN, ID_POOL[3], ID_POOL[6]), (PROBR, ID_POOL[4], ID_POOL[9])]
    engine = FastEngine([NodeState(id=v) for v in ID_POOL])
    engine.set_wave_fault(StarveTokens())
    for code, dest, a, *bc in rows + others:
        cols = [np.array([x]) for x in (dest, a, *bc)]
        engine.outbox.send(code, *cols)
    engine.execute_round(np.random.default_rng(6))
    dest, tcode, a, b, c = engine.outbox.rows(RESLRL)
    assert (tcode == RESLRL).all()
    deferred = sorted(zip(dest.tolist(), a.tolist(), b.tolist(), c.tolist()))
    assert deferred == sorted(row[1:] for row in rows)


# ----------------------------------------------------------------------
# Rows that cross a shard boundary
# ----------------------------------------------------------------------
def spy_inboxes(engine) -> list:
    """Record every plan the engine (or each of its shard cores) makes."""
    plans: list = []
    for part in getattr(engine, "cores", [engine]):
        plan_round = part._plan_round

        def spy(pre, keys, plan_round=plan_round):
            plan = plan_round(pre, keys)
            plans.append(plan)
            return plan

        part._plan_round = spy
    return plans


def token_column(plan, name: str) -> np.ndarray:
    """A per-token column of *plan* in reslrl ordinal order; ``waves`` is
    the wave each token is walked in."""
    if name != "waves":
        return getattr(plan, name)
    waves = np.empty(len(plan.walk_wave), dtype=np.int64)
    waves[plan.walk_token] = plan.walk_wave
    return waves


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_reslrl_rows_cross_a_block_boundary(shards) -> None:
    """``reslrl`` rows staged on the first and the last shard, to nodes of
    every block: the shard inboxes, block by block in shard order, are
    the batched engine's inbox — ``b``/``c``, the walk's token columns
    and the wave each token walks in included — and the round ends in the
    same state and RNG."""
    rows = [
        (RESLRL, dest, None, 0.001 * (k + 1), 0.5 + 0.001 * (k + 1))
        for k, dest in enumerate(IDS + IDS[::3])
    ]
    rows += [(LIN, IDS[1], IDS[7], 0.0, 0.0), (PROBL, IDS[8], IDS[2], 0.0, 0.0)]
    first, last = rows[::2], rows[1::2]
    config = ProtocolConfig()
    states = [NodeState(id=v) for v in IDS]
    batched = FastEngine(states, config)
    stage(batched.outbox, batched, rows)
    sharded = ShardedEngine(states, config, shards=shards)
    stage(sharded.cores[0].outbox, sharded, first)
    stage(sharded.cores[-1].outbox, sharded, last)
    want, got = spy_inboxes(batched), spy_inboxes(sharded)
    rng_b, rng_s = np.random.default_rng(8), np.random.default_rng(8)
    batched.execute_round(rng_b)
    sharded.execute_round(rng_s)

    (plan,) = want
    # Every block holds tokens, the middle one only ones from other blocks.
    assert [p.inbox.n_res > 0 for p in got] == [True] * shards
    # Canonical order is the blocks' single-id rows, shard by shard, then
    # their reslrl rows, shard by shard.
    for name in ROW_FIELDS[:3]:
        joined = np.concatenate(
            [getattr(p.inbox, name)[: p.res_lo] for p in got]
            + [getattr(p.inbox, name)[p.res_lo :] for p in got]
        )
        assert_same_array(joined, getattr(plan.inbox, name), name)
    for name in ("b", "c"):
        joined = np.concatenate([getattr(p.inbox, name) for p in got])
        assert_same_array(joined, getattr(plan.inbox, name), name)
    for name in ("token_lrl", "token_forgot", "waves"):
        joined = np.concatenate([token_column(p, name) for p in got])
        assert_same_array(joined, token_column(plan, name), name)
    assert sharded.state_snapshot() == batched.state_snapshot()
    assert rng_s.bit_generator.state == rng_b.bit_generator.state
