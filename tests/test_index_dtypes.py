"""Slot arrays index as intp and are held as int32.

numpy gathers through an int32 index array about half as fast as through
intp (docs/PERF.md "Gather index dtype"), so the batched round widens a
slot array to intp wherever it indexes, and keeps the columns it holds
for the round — the prepared and the round inbox's ``dest_idx``, the wave
``rank`` — in int32 for their bytes.  These tests pin both halves on the
batched and the sharded engine, and hold the 32-bit sort words of
:func:`~repro.sim.fast.buffers.stable_order`, the writer mask's payload
prefilter and the dedup's tied-word payload test against the rules they
stand in for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.fast import buffers
from repro.sim.fast.batched import FastEngine, writer_rows
from repro.sim.fast.buffers import (
    LIN,
    N_TYPES,
    PROBL,
    PROBR,
    RESLRL,
    RoundInbox,
    stable_order,
)
from repro.sim.fast.kernels import Kernels
from repro.sim.fast.shard import core as shard_core
from repro.sim.fast.soa import SoAState
from repro.sim.host import make_simulator
from repro.topology.generators import line_soa
from tests.reference_flush import writer_rows_reference

#: Every kernel entry point the engines dispatch to; each takes the
#: receiving slots first.
KERNELS = (
    "linearize",
    "respond_lrl",
    "move_forget",
    "place_token",
    "respond_ring",
    "update_ring",
    "probing_r",
    "probing_l",
    "regular_action",
)


# ----------------------------------------------------------------------
# The engines: intp where slots index, int32 where the round holds them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["fast", "sharded"])
def test_slots_index_as_intp_and_are_held_as_int32(monkeypatch, engine) -> None:
    """Twelve cold rounds at n = 512: every kernel's ``idx``, the walk and
    its slots are intp; every prepared inbox and every delivery-ordered
    subset keeps ``dest_idx`` and ``rank`` in int32, and the plan holds its
    dispatch groups' rows in int32 (widened group by group as they
    dispatch)."""
    seen: dict[str, set[np.dtype]] = {}

    def record(what: str, array: np.ndarray) -> None:
        seen.setdefault(what, set()).add(array.dtype)

    for name in KERNELS:
        method = getattr(Kernels, name)

        def wrapped(self, idx, *args, _method=method, _name=name, **kwargs):
            record(f"kernel {_name}", idx)
            return _method(self, idx, *args, **kwargs)

        monkeypatch.setattr(Kernels, name, wrapped)

    prepare = buffers.prepare_inbox

    def checked_prepare(chunks, lookup, *, dedup):
        pre, dropped = prepare(chunks, lookup, dedup=dedup)
        if pre is not None:
            record("prepared dest_idx", pre.dest_idx)
        return pre, dropped

    monkeypatch.setattr(buffers, "prepare_inbox", checked_prepare)
    monkeypatch.setattr(shard_core, "prepare_inbox", checked_prepare)

    finalize = buffers.finalize_inbox

    def checked_finalize(pre, keys):
        inbox = finalize(pre, keys)
        record("round dest_idx", inbox.dest_idx)
        record("round rank", inbox.rank)
        return inbox

    monkeypatch.setattr(buffers, "finalize_inbox", checked_finalize)
    plan_round = FastEngine._plan_round

    def checked_plan(self, pre, keys):
        plan = plan_round(self, pre, keys)
        for _, rows in plan.groups:
            record("held group rows", rows)
        record("walk rows", plan.walk)
        record("walk slots", plan.token_slots)
        return plan

    monkeypatch.setattr(FastEngine, "_plan_round", checked_plan)

    sim = make_simulator(line_soa(512, np.random.default_rng(3)), engine=engine, rng=3)
    sim.run(12)

    intp = {np.dtype(np.intp)}
    int32 = {np.dtype(np.int32)}
    for name in KERNELS:
        assert seen.get(f"kernel {name}") == intp, name
    for what in ("walk rows", "walk slots"):
        assert seen[what] == intp, what
    for what in ("prepared dest_idx", "round dest_idx", "round rank", "held group rows"):
        assert seen[what] == int32, what


def test_lookup_and_sorted_view_hand_back_intp() -> None:
    soa = line_soa(64, np.random.default_rng(1))
    ids, idx = soa.sorted_live()
    assert idx.dtype == np.intp
    slots, found = soa.lookup(np.concatenate([ids, [0.5, np.nan, np.inf]]))
    assert slots.dtype == np.intp
    assert found[:64].all()
    assert (soa.ids[slots[:64]] == ids).all()


# ----------------------------------------------------------------------
# stable_order: int32 words up to 31 bits, int64 up to 63
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=300),
    over=st.sampled_from([-1, 0, 1]),
    limit=st.sampled_from([31, 63]),
    key_dtype=st.sampled_from([np.int32, np.int64]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_stable_order_across_the_word_limits(rows, over, limit, key_dtype, seed) -> None:
    """Key bits chosen so key and position bits sum to one less than, just
    at and one past 31 and 63; keys at the top of their range are frequent,
    so a word one bit too narrow overflows and misorders."""
    key_bits = limit + over - rows.bit_length()
    if key_dtype is np.int32:
        key_bits = min(key_bits, 31)
    rng = np.random.default_rng(seed)
    top = (1 << key_bits) - 1
    key = rng.integers(0, top, size=rows, endpoint=True, dtype=np.int64)
    key[rng.random(rows) < 0.4] = top
    key[rng.random(rows) < 0.2] = 0
    key = key.astype(key_dtype)
    expected = np.argsort(key, kind="stable")
    for dtype in (np.intp, np.int32):
        order, ranked = stable_order(key, key_bits, dtype)
        assert order.dtype == dtype
        assert ranked.dtype == key.dtype
        np.testing.assert_array_equal(order, expected)
        np.testing.assert_array_equal(ranked, key[expected])


def test_stable_order_word_limit_boundary() -> None:
    """Seven rows take three position bits: 28 key bits pack into int32
    words, 29 and 60 into int64 ones, 61 fall back to the stable sort; all
    answer alike at the top of the range."""
    for key_bits in (28, 29, 60, 61):
        top = (1 << key_bits) - 1
        key = np.array([top, 5, top, 0, top, 5, 1], dtype=np.int64)
        order, ranked = stable_order(key, key_bits)
        np.testing.assert_array_equal(order, [3, 6, 1, 5, 0, 2, 4])
        np.testing.assert_array_equal(ranked, key[order])


# ----------------------------------------------------------------------
# writer_rows: the payload prefilter drops no row the rule keeps
# ----------------------------------------------------------------------
#: Ids, the sentinels and a value no node holds; every field of a node
#: draws from it, so ``l``/``r`` land on either side of the id (or on it).
LINKS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.3, -np.inf, np.inf)
NODE_IDS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)

node_links = st.tuples(st.sampled_from(LINKS), st.sampled_from(LINKS))
inbox_row = st.tuples(
    st.integers(min_value=0, max_value=len(NODE_IDS) - 1),
    st.sampled_from([LIN, PROBR, PROBL, LIN, RESLRL, *range(N_TYPES)]),
    st.sampled_from(LINKS),
)


def writer_inbox(links, rows) -> tuple[RoundInbox, SoAState]:
    """Nodes with the given ``(l, r)`` and a round inbox of *rows*
    ``(node, type, payload)``, grouped by node as a flush leaves it."""
    n = len(NODE_IDS)
    ids = np.array(NODE_IDS)
    soa = SoAState.from_columns(
        ids,
        np.array([l for l, _ in links]),
        np.array([r for _, r in links]),
        ids.copy(),
        np.full(n, np.nan),
        np.zeros(n, dtype=np.int64),
    )
    rows = sorted(rows, key=lambda row: row[0])
    dest = np.array([row[0] for row in rows], dtype=np.int32)
    tcode = np.array([row[1] for row in rows], dtype=np.int8)
    n_res = int((tcode == RESLRL).sum())
    inbox = RoundInbox(
        dest_idx=dest,
        tcode=tcode,
        a=np.array([row[2] for row in rows], dtype=np.float64),
        b=np.zeros(n_res),
        c=np.zeros(n_res),
        rank=np.zeros(len(rows), dtype=np.int32),
        n_waves=1,
        position=np.arange(len(rows)),
    )
    return inbox, soa


@settings(max_examples=300, deadline=None)
@given(
    links=st.lists(node_links, min_size=len(NODE_IDS), max_size=len(NODE_IDS)),
    rows=st.lists(inbox_row, min_size=1, max_size=40),
)
# l above the id: a right-hand payload below l adopts all the same.
@example(links=[(0.7, np.inf)] + [(-np.inf, np.inf)] * 5, rows=[(0, LIN, 0.4)])
# r below the id: a left-hand payload above r adopts all the same.
@example(links=[(-np.inf, np.inf)] * 5 + [(-np.inf, 0.4)], rows=[(5, LIN, 0.7)])
# Equal payloads, and payloads on the id and on its links.
@example(
    links=[(0.1, 0.4)] + [(-np.inf, np.inf)] * 5,
    rows=[(0, LIN, 0.1), (0, LIN, 0.25), (0, PROBR, 0.3), (0, LIN, 0.3), (0, LIN, 0.4)],
)
def test_writer_prefilter_equals_the_unfiltered_rule(links, rows) -> None:
    inbox, soa = writer_inbox(links, rows)
    got = writer_rows(inbox, soa)
    expected = writer_rows_reference(inbox, soa)
    assert got.dtype == expected.dtype == bool
    np.testing.assert_array_equal(got, expected)


# ----------------------------------------------------------------------
# _dedup_order: payloads compared at tied words only
# ----------------------------------------------------------------------
#: Payloads that share a sort code with a different one (closer than
#: 2**-53, the sign-bit patterns), beside distinct ids.
CLASH_PAYLOADS = (0.0, 5e-324, 1e-17, 3e-17, -0.0, -0.25, -np.inf, 0.25, 0.5, 0.75)


def dedup_oracle(head, payload):
    """The comparison-sort dedup: ``lexsort`` by ``(head, *payload)``, the
    first row of each run of equal keys kept."""
    order = np.lexsort((*payload[::-1], head))
    keys = [head[order], *(column[order] for column in payload)]
    fresh = np.ones(len(head), dtype=bool)
    same = np.ones(len(head) - 1, dtype=bool)
    for column in keys:
        same &= column[1:] == column[:-1]
    fresh[1:] = ~same
    return keys[0][fresh], [column[fresh] for column in keys[1:]]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.sampled_from(CLASH_PAYLOADS),
            st.sampled_from(CLASH_PAYLOADS),
            st.sampled_from(CLASH_PAYLOADS),
        ),
        min_size=1,
        max_size=60,
    ),
    columns=st.sampled_from([1, 3]),
)
def test_dedup_order_with_clashes_at_tied_words(rows, columns) -> None:
    head = np.array([row[0] for row in rows], dtype=np.int64)
    payload = tuple(
        np.array([row[1 + k] for row in rows], dtype=np.float64).view(np.uint64)
        for k in range(columns)
    )
    order, sorted_head, fresh = buffers._dedup_order(head, 2, payload)
    expected_head, expected_payload = dedup_oracle(head, payload)
    np.testing.assert_array_equal(sorted_head[fresh], expected_head)
    for column, expected in zip(payload, expected_payload):
        np.testing.assert_array_equal(column[order[fresh]], expected)


def test_dedup_order_resorts_only_when_a_tied_payload_differs(monkeypatch) -> None:
    """Copies of one row tie without a clash and take the fast path; two
    ids that share a code tie with one and are re-sorted."""
    resorted = []
    sort_clashes = buffers._sort_clashes

    def counted(*args):
        resorted.append(True)
        return sort_clashes(*args)

    monkeypatch.setattr(buffers, "_sort_clashes", counted)
    head = np.array([1, 1, 1, 0], dtype=np.int64)
    copies = (np.array([0.5, 0.5, 0.5, 0.5]).view(np.uint64),)
    order, sorted_head, fresh = buffers._dedup_order(head, 2, copies)
    assert fresh.tolist() == [True, True, False, False]
    assert resorted == []
    clash = (np.array([3e-17, 1e-17, 3e-17, 0.5]).view(np.uint64),)
    order, sorted_head, fresh = buffers._dedup_order(head, 2, clash)
    assert resorted == [True]
    assert clash[0][order[fresh]].view(np.float64).tolist() == [0.5, 1e-17, 3e-17]

