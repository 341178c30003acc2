"""One departure batch equals its victims departing one at a time.

Every in-flight store of the SoA engines — the outbox, the chaos wire, the
guard's pending rows — is purged by one rule,
:func:`repro.sim.fast.buffers.departure_sweep`: a row dies when a victim is
its destination or is named in its payload, and dies *counted* iff the
first victim (ascending) that touches it is its destination (``d <= m``).
``tests/reference_flush.py`` keeps the per-victim purges the engines ran
before a ``leave`` became a batch of one; here the batch sweep must leave
the same rows and the same counts as those purges applied victim by
victim, over arbitrary rows.  A small id pool makes the ``d == m`` tie —
a row addressed to a victim that its payload also names — frequent.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.chaos.guard import GuardPolicy
from repro.sim.fast.buffers import N_TYPES, RESLRL, Outbox
from repro.sim.fast.chaos.batched import BatchedGuard, BatchedWire
from repro.sim.fast.chaos.wire import KIND_ACK, KIND_ENVELOPE, KIND_MESSAGE, WireRows
from repro.sim.metrics import MessageStats
from tests.reference_flush import (
    leave_guard_reference,
    leave_outbox_reference,
    leave_wire_reference,
)

#: Payload ids: five real ids, and the sentinels ``reslrl`` may carry.
POOL = (0.1, 0.3, 0.5, 0.7, 0.9)
pool_id = st.sampled_from(POOL)
payload_id = st.sampled_from(POOL + (-np.inf, np.inf))
victim_sets = st.lists(pool_id, min_size=1, max_size=len(POOL), unique=True)


def column(draw, values, count: int, dtype: type = np.float64) -> np.ndarray:
    return np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=dtype)


kinds = st.sampled_from([KIND_MESSAGE, KIND_ENVELOPE, KIND_ACK])
codes = st.integers(min_value=0, max_value=N_TYPES - 1)


@st.composite
def staged_chunks(draw) -> list[list[tuple]]:
    """Per-type chunk lists as the outbox stages them; ``reslrl`` chunks
    carry ``b``/``c`` or leave them ``None``, ``origin`` may be set."""
    chunks: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        code = draw(st.sampled_from([RESLRL, RESLRL, 0, 5]))
        count = draw(st.integers(min_value=1, max_value=8))
        dest, a = column(draw, pool_id, count), column(draw, pool_id, count)
        b = c = None
        if code == RESLRL and draw(st.booleans()):
            b, c = column(draw, payload_id, count), column(draw, payload_id, count)
        origin = column(draw, pool_id, count) if draw(st.booleans()) else None
        chunks[code].append((dest, a, b, c, origin))
    return chunks


def rows_of(chunks: list[tuple]) -> list[tuple]:
    return [
        tuple(None if col is None else float(col[k]) for col in ch)
        for ch in chunks
        for k in range(len(ch[0]))
    ]


@settings(max_examples=300, deadline=None)
@given(chunks=staged_chunks(), victims=victim_sets)
def test_outbox_sweep_equals_per_victim_purges(chunks, victims) -> None:
    outbox = Outbox(MessageStats())
    outbox._chunks = copy.deepcopy(chunks)
    outbox._staged = [sum(len(ch[0]) for ch in per_type) for per_type in chunks]
    expected_chunks = copy.deepcopy(chunks)
    expected = leave_outbox_reference(expected_chunks, np.array(victims))
    assert outbox.drop_and_purge_batch(np.array(victims)) == expected
    for code in range(N_TYPES):
        assert rows_of(outbox._chunks[code]) == rows_of(expected_chunks[code])
    assert outbox._staged == [
        sum(len(ch[0]) for ch in per_type) for per_type in outbox._chunks
    ]


@st.composite
def wire_and_guard(draw) -> tuple[WireRows, BatchedGuard]:
    """Wire frames of every kind and pending guard rows of every type, with
    real ids in ``b``/``c`` of non-``reslrl`` rows too — only ``reslrl``'s
    are payload, so a sweep that read them elsewhere would differ."""
    count = draw(st.integers(min_value=0, max_value=24))
    wire = WireRows(
        dest=column(draw, pool_id, count),
        kind=column(draw, kinds, count, np.int8),
        tcode=column(draw, codes, count, np.int8),
        a=column(draw, pool_id, count),
        b=column(draw, payload_id, count),
        c=column(draw, payload_id, count),
        origin=column(draw, pool_id, count),
        seq=np.arange(count, dtype=np.int64),
        due=np.zeros(count, dtype=np.int64),
    )
    pending = draw(st.integers(min_value=0, max_value=24))
    guard = BatchedGuard(GuardPolicy())
    guard.seq = np.arange(pending, dtype=np.int64)
    guard.origin = column(draw, pool_id, pending)
    guard.dest = column(draw, pool_id, pending)
    guard.tcode = column(draw, codes, pending, np.int8)
    guard.a = column(draw, pool_id, pending)
    guard.b = column(draw, payload_id, pending)
    guard.c = column(draw, payload_id, pending)
    guard.attempts = np.ones(pending, dtype=np.int64)
    guard.due = np.zeros(pending, dtype=np.int64)
    guard.alive = column(draw, st.booleans(), pending, bool)
    return wire, guard


WIRE_FIELDS = ("dest", "kind", "tcode", "a", "b", "c", "origin", "seq")


@settings(max_examples=300, deadline=None)
@given(case=wire_and_guard(), victims=victim_sets)
def test_wire_and_guard_sweep_equals_per_victim_purges(case, victims) -> None:
    """``BatchedWire.depart``, the batched wire's one purge entry point,
    against the per-victim wire and guard purges of a scalar ``leave``:
    acks survive, frames and pending rows die, and the count it returns is
    the reference's dropped count."""
    wire, guard = case
    stage = BatchedWire(GuardPolicy())
    stage._wire, stage._guard = copy.deepcopy(wire), copy.deepcopy(guard)
    counted_by_stage = stage.depart(np.sort(np.array(victims)))

    dropped = 0
    for nid in sorted(victims):
        wire, counted = leave_wire_reference(wire, nid)
        dropped += counted
        leave_guard_reference(guard, nid)
    assert counted_by_stage == dropped
    for name in WIRE_FIELDS:
        np.testing.assert_array_equal(getattr(stage._wire, name), getattr(wire, name), name)
    assert stage.guard is not None
    np.testing.assert_array_equal(stage.guard.alive, guard.alive)
    assert stage.guard.stats.abandoned == guard.stats.abandoned
