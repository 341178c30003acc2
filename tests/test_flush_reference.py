"""The packed-key flush and the table-driven hop kernel equal their oracles.

``tests/reference_flush.py`` keeps the comparison-sort bodies (stable
``argsort``/``lexsort``) and the rule-per-hop ``route_batch`` loop the
shipped code replaced.  Every test here requires the shipped function to
return the *same arrays* — values, order and dtype; float columns compared
as bit patterns so ``-0.0`` and ``0.0`` stay apart — over arbitrary staged
traffic and arbitrary (even model-violating) routing tables, including the
corners the value sorts treat specially: key ties, the int64 bit budget,
the float-key branch, and mid-round outbox compaction.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.serve.routing import RouteView, route_batch
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.buffers import (
    PROBR,
    RESLRL,
    Outbox,
    PreparedInbox,
    build_inbox,
    finalize_inbox,
    prepare_inbox,
    stable_order,
)
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.pool import ArrayPool
from repro.sim.metrics import MessageStats
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import (
    compact_chunks_reference,
    finalize_inbox_reference,
    prepare_inbox_reference,
    route_batch_reference,
    wave_groups_reference,
)
from tests.test_wave_uniqueness import make_chunks, make_soa, wire_row_strategy

wire_rows = st.lists(wire_row_strategy, min_size=1, max_size=80)
chunk_sizes = st.sampled_from([1, 2, 7, 100])


def assert_same_array(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert got.dtype == expected.dtype, what
    assert got.shape == expected.shape, what
    if got.dtype == np.float64:
        got, expected = got.view(np.uint64), expected.view(np.uint64)
    np.testing.assert_array_equal(got, expected, err_msg=what)


def assert_same_fields(got: object, expected: object, fields: tuple[str, ...]) -> None:
    for name in fields:
        assert_same_array(getattr(got, name), getattr(expected, name), name)


ROW_FIELDS = ("dest_idx", "tcode", "a", "b", "c")


def prepared(rows: list[tuple], chunk_rows: int = 1) -> PreparedInbox | None:
    pre, _ = prepare_inbox(make_chunks(rows, chunk_rows), make_soa().lookup, dedup=True)
    return pre


# ----------------------------------------------------------------------
# prepare_inbox
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(rows=wire_rows, chunk_rows=chunk_sizes, dedup=st.booleans(), pooled=st.booleans())
def test_prepare_inbox_matches_reference(rows, chunk_rows, dedup, pooled) -> None:
    chunks = make_chunks(rows, chunk_rows)
    lookup = make_soa().lookup
    expected, expected_dropped = prepare_inbox_reference(chunks, lookup, dedup=dedup)
    got, dropped = prepare_inbox(
        chunks, lookup, dedup=dedup, pool=ArrayPool() if pooled else None
    )
    assert dropped == expected_dropped
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert_same_fields(got, expected, ROW_FIELDS)
    assert got.n_res == expected.n_res
    assert got.packed_ok == expected.packed_ok


def test_prepare_inbox_dedup_compares_bits_not_values() -> None:
    """``0.0`` and ``-0.0`` payloads are two rows; twice ``0.0`` is one."""
    dest = 0.05
    rows = [(PROBR, dest, 0.0, 0.0, 0.0), (PROBR, dest, -0.0, 0.0, 0.0)] * 2
    pre = prepared(rows)
    assert pre is not None and len(pre) == 2
    assert sorted(np.signbit(pre.a).tolist()) == [False, True]


# ----------------------------------------------------------------------
# finalize_inbox
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    rows=wire_rows,
    chunk_rows=chunk_sizes,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    key_space=st.sampled_from([2, 5, 1 << 42]),
    as_float=st.booleans(),
)
def test_finalize_inbox_matches_reference(rows, chunk_rows, seed, key_space, as_float) -> None:
    """Drawn keys and explicitly colliding ones (``key_space`` 2 and 5 make
    most destinations hold equal keys: the stable tie fallback), on the
    packed branch and on the float-key branch."""
    pre = prepared(rows, chunk_rows)
    if pre is None:
        return
    keys = np.random.default_rng(seed).integers(0, key_space, size=len(pre), dtype=np.int64)
    if as_float:
        keys = keys / float(key_space)
    expected = finalize_inbox_reference(pre, keys)
    got = finalize_inbox(pre, keys)
    assert_same_fields(got, expected, ROW_FIELDS + ("rank",))
    assert got.n_waves == expected.n_waves


@settings(max_examples=100, deadline=None)
@given(
    rows=wire_rows,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    key_space=st.sampled_from([3, 1 << 42]),
)
def test_float_key_branch_orders_like_packed_branch(rows, seed, key_space) -> None:
    """Beyond 2M slots the keys are floats; the same draw *ranks* (ties
    included) must give the same inbox as the packed one-word encoding."""
    pre = prepared(rows)
    if pre is None:
        return
    keys = np.random.default_rng(seed).integers(0, key_space, size=len(pre), dtype=np.int64)
    as_float = keys / float(1 << 42)  # exact: 42-bit integers over a power of two
    packed = finalize_inbox(pre, keys)
    floated = finalize_inbox(pre, as_float)
    assert_same_fields(floated, packed, ROW_FIELDS + ("rank",))
    assert floated.n_waves == packed.n_waves


# ----------------------------------------------------------------------
# Wave grouping and the sort helper
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    rows=wire_rows,
    dedup=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_wave_groups_match_reference(rows, dedup, seed) -> None:
    inbox, _ = build_inbox(
        make_chunks(rows), make_soa().lookup, np.random.default_rng(seed), dedup=dedup
    )
    if inbox is None:
        return
    expected = wave_groups_reference(inbox)
    got = FastEngine._wave_groups(inbox)
    assert [code for code, _ in got] == [code for code, _ in expected]
    for (_, got_rows), (code, expected_rows) in zip(got, expected):
        assert_same_array(got_rows, expected_rows, f"rows of type {code}")


@settings(max_examples=200, deadline=None)
@given(
    key_bits=st.integers(min_value=1, max_value=62),
    draws=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=40),
    top=st.booleans(),
)
def test_stable_order_is_the_stable_argsort(key_bits, draws, top) -> None:
    """On both sides of the bit budget: packed while key and position fit
    one int64 (keys at the very top of their range catch an overflow), the
    stable sort itself when they do not."""
    key = np.array(draws, dtype=np.int64) % (1 << key_bits)
    if top:
        key[::2] = (1 << key_bits) - 1
    expected = np.argsort(key, kind="stable")
    order, ranked = stable_order(key, key_bits)
    assert_same_array(order, expected, "order")
    assert_same_array(ranked, key[expected], "sorted keys")


def test_stable_order_budget_boundary() -> None:
    """Five rows take three position bits: 60 key bits still pack, 61 fall
    back — and both answer alike."""
    key = np.array([7, (1 << 60) - 1, 7, 0, (1 << 60) - 1], dtype=np.int64)
    for key_bits in (60, 61):
        order, ranked = stable_order(key, key_bits)
        np.testing.assert_array_equal(order, [3, 0, 2, 1, 4])
        np.testing.assert_array_equal(ranked, key[order])


# ----------------------------------------------------------------------
# Outbox compaction
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(rows=wire_rows, chunk_rows=chunk_sizes, code=st.sampled_from([PROBR, RESLRL]))
def test_compact_code_matches_reference(rows, chunk_rows, code) -> None:
    """One deduped chunk in raw-bit key order, carrying the first staged
    copy's ``origin`` (the staging position, here) for every row."""
    staged = make_chunks([(code, *row[1:]) for row in rows], chunk_rows)[code]
    outbox = Outbox(MessageStats())
    outbox._chunks[code] = list(staged)
    outbox._compact_code(code)
    (got,) = outbox._chunks[code]
    expected = compact_chunks_reference(code, staged)
    for column, (got_col, expected_col) in enumerate(zip(got, expected)):
        assert (got_col is None) == (expected_col is None)
        if got_col is not None:
            assert_same_array(got_col, expected_col, f"column {column}")


@pytest.mark.parametrize("code", [PROBR, RESLRL])
def test_auto_compact_delivers_the_same_inbox(code) -> None:
    """An outbox forced past ``COMPACT_MIN`` compacts mid-round when
    ``auto_compact`` is on; the delivered inbox and the send counts are
    those of the outbox that never compacts."""
    soa = make_soa()
    live = soa.ids[: soa.size]
    rng = np.random.default_rng(code)
    batches = [
        tuple(rng.choice(live, size=Outbox.COMPACT_MIN // 4) for _ in range(4))
        for _ in range(12)
    ]
    inboxes = []
    for auto_compact in (False, True):
        outbox = Outbox(MessageStats(), auto_compact=auto_compact)
        for dest, a, b, c in batches:
            if code == RESLRL:
                outbox.send(code, dest, a, b, c, origin=a)
            else:
                outbox.send(code, dest, a, origin=a)
        assert (len(outbox._chunks[code]) < len(batches)) == auto_compact
        outbox.flush_stats()
        assert outbox.stats.total == len(batches) * Outbox.COMPACT_MIN // 4
        inbox, dropped = build_inbox(
            outbox.take_all(), soa.lookup, np.random.default_rng(5), dedup=True
        )
        assert dropped == 0 and inbox is not None
        inboxes.append(inbox)
    assert_same_fields(inboxes[1], inboxes[0], ROW_FIELDS + ("rank",))


class SmallOutbox(Outbox):
    """An outbox that compacts after tens of rows instead of thousands."""

    __slots__ = ()
    COMPACT_MIN = 24


outbox_ops = st.lists(
    st.tuples(
        st.sampled_from(["send", "send", "send", "restage", "leave", "take"]),
        st.sampled_from([PROBR, RESLRL]),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**31 - 1),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=outbox_ops)
def test_staged_row_count_is_the_recomputed_sum(ops) -> None:
    """The per-type staged-row counter equals ``sum(len(ch[0]))`` after
    every send / restage / drop / take, and ``send`` compacts at exactly
    the calls where the rule that re-summed the backlog would have."""
    ids = make_soa().ids[:12]
    outbox = SmallOutbox(MessageStats(), auto_compact=True)
    for op, code, count, seed in ops:
        rng = np.random.default_rng(seed)
        cols = [rng.choice(ids, size=count) for _ in range(4)]
        payload = cols if code == RESLRL else cols[:2]
        chunks = outbox._chunks[code]
        if op == "send":
            resummed = sum(len(ch[0]) for ch in chunks) + count
            compacts = (
                count > 0
                and len(chunks) + 1 >= 8
                and resummed >= outbox._compact_floor[code]
            )
            before = len(chunks)
            outbox.send(code, *payload, origin=cols[1])
            after = len(outbox._chunks[code])
            assert after == (1 if compacts else before + (count > 0))
        elif op == "restage":
            outbox.restage(code, *payload)
        elif op == "leave":
            outbox.drop_and_purge_batch(cols[0][:2])
        elif op == "take":
            outbox.take_all()
        assert outbox._staged == [
            sum(len(ch[0]) for ch in per_type) for per_type in outbox._chunks
        ]
        assert outbox.pending_total() == sum(outbox._staged)


# ----------------------------------------------------------------------
# route_batch
# ----------------------------------------------------------------------
def assert_same_route(view: RouteView, src, dst, **options) -> np.ndarray:
    expected = route_batch_reference(view, src, dst, **options)
    got = route_batch(view, src, dst, **options)
    assert_same_array(got.hops, expected.hops, "hops")
    assert_same_array(got.ok, expected.ok, "ok")
    assert got.paths == expected.paths
    assert got.round_index == expected.round_index
    return got.ok


@st.composite
def routing_cases(draw):
    """An arbitrary rank-space table — links may be missing, point at the
    node itself or the wrong way (no ``l < id < r``), so every loss branch
    is reachable — and queries that may lie outside ``[0, n)``."""
    n = draw(st.integers(min_value=1, max_value=16))
    column = st.lists(
        st.integers(min_value=-1, max_value=n - 1), min_size=n, max_size=n
    )
    l_rank, r_rank, lrl_rank = (
        np.array(draw(column), dtype=np.int64) for _ in range(3)
    )
    view = RouteView((np.arange(n) + 0.5) / n, l_rank, r_rank, lrl_rank, 9)
    k = draw(st.integers(min_value=0, max_value=12))
    rank = st.lists(st.integers(min_value=-2, max_value=n + 1), min_size=k, max_size=k)
    return view, np.array(draw(rank), dtype=np.int64), np.array(draw(rank), dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(
    case=routing_cases(),
    max_hops=st.sampled_from([None, 0, 1, 2, 5]),
    collect_paths=st.booleans(),
)
def test_route_batch_matches_reference_on_arbitrary_tables(case, max_hops, collect_paths) -> None:
    view, src, dst = case
    assert_same_route(view, src, dst, max_hops=max_hops, collect_paths=collect_paths)


@pytest.mark.parametrize("topology", ["line", "random_tree", "star"])
def test_route_batch_matches_reference_mid_convergence(topology) -> None:
    """Real views of an overlay that is still converging: dead links,
    crossed destinations and no-progress self links all occur, and many
    walks are lost — hop for hop like the reference, also under a hop cap,
    for a single query and with path collection."""
    n = 160
    sim = FastSimulator.from_states(
        TOPOLOGIES[topology](n, np.random.default_rng(21)),
        ProtocolConfig(),
        mode="batched",
        rng=np.random.default_rng(22),
    )
    rng = np.random.default_rng(23)
    lost = 0
    for round_index in range(24):
        sim.step_round()
        if round_index % 4:
            continue
        view = RouteView.from_engine(sim.engine, sim.round_index)
        src = rng.integers(0, n, size=300)
        dst = rng.integers(0, n, size=300)
        ok = assert_same_route(view, src, dst)
        lost += int((~ok).sum())
        assert_same_route(view, src, dst, max_hops=6)
        assert_same_route(view, src[:1], dst[:1])
        assert_same_route(view, src[:40], dst[:40], collect_paths=True)
    assert lost > 100
