"""The packed-key flush and the table-driven hop kernel equal their oracles.

``tests/reference_flush.py`` keeps the comparison-sort bodies (stable
``argsort``/``lexsort``) and the rule-per-hop ``route_batch`` loop the
shipped code replaced.  Every test here requires the shipped function to
return the *same arrays* — values, order and dtype; float columns compared
as bit patterns so ``-0.0`` and ``0.0`` stay apart — over arbitrary staged
traffic and arbitrary (even model-violating) routing tables, including the
corners the value sorts treat specially: key ties, truncated keys that tie
where the full ones do not, payloads that share a sort code, the int64 bit
budget and the float-key branch.  Where a value sort falls back to a slower exact path, a test
pins that both paths run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import ProtocolConfig
from repro.serve.routing import RouteView, hop_dtype, route_batch
from repro.sim.fast import buffers
from repro.sim.fast.batched import FastEngine, receive_steps
from repro.sim.fast.buffers import (
    LIN,
    PROBR,
    RESLRL,
    Outbox,
    PreparedInbox,
    finalize_inbox,
    prepare_inbox,
    stable_order,
)
from repro.sim.fast.engine import FastSimulator
from repro.sim.metrics import MessageStats
from repro.topology.generators import TOPOLOGIES
from tests.reference_flush import (
    finalize_inbox_reference,
    full_length,
    prepare_inbox_reference,
    route_batch_reference,
    wave_groups_reference,
)
from tests.test_wave_uniqueness import ID_POOL, make_chunks, make_soa, wire_row_strategy

wire_rows = st.lists(wire_row_strategy, min_size=1, max_size=80)
chunk_sizes = st.sampled_from([1, 2, 7, 100])

#: Payloads that share a dedup sort code (``buffers._payload_code``) with
#: a different one — ids closer than any code resolution, everything at or
#: above 1.0, every sign-bit pattern — beside ids one ulp apart, which
#: share one only at the coarser resolutions.
CLASHING = (
    0.0,
    5e-324,
    1e-17,
    3e-17,
    float(np.nextafter(0.5, 0.0)),
    0.5,
    float(np.nextafter(0.5, 1.0)),
    1.0,
    1.5,
    np.inf,
    -0.0,
    -0.25,
    -np.inf,
)
clash_rows = st.lists(
    st.tuples(
        st.sampled_from([LIN, PROBR, RESLRL]),
        st.sampled_from(ID_POOL[:3]),
        st.sampled_from(CLASHING),
        st.sampled_from(CLASHING),
        st.sampled_from(CLASHING),
    ),
    min_size=1,
    max_size=60,
)


def count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls of ``buffers.<name>`` while the test runs."""
    calls = [0]
    inner = getattr(buffers, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(buffers, name, counted)
    return calls


def assert_same_array(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert got.dtype == expected.dtype, what
    assert got.shape == expected.shape, what
    if got.dtype == np.float64:
        got, expected = got.view(np.uint64), expected.view(np.uint64)
    np.testing.assert_array_equal(got, expected, err_msg=what)


def assert_same_fields(got: object, expected: object, fields: tuple[str, ...]) -> None:
    """Field for field; ``b``/``c`` also at full length, ``0.0`` off
    ``reslrl`` (the layout the flush once carried)."""
    for name in fields:
        assert_same_array(getattr(got, name), getattr(expected, name), name)
        if name in ("b", "c"):
            assert_same_array(
                full_length(got.tcode, getattr(got, name)),
                full_length(expected.tcode, getattr(expected, name)),
                f"{name} at full length",
            )


ROW_FIELDS = ("dest_idx", "tcode", "a", "b", "c")


def prepared(rows: list[tuple], chunk_rows: int = 1) -> PreparedInbox | None:
    pre, _ = prepare_inbox(make_chunks(rows, chunk_rows), make_soa().lookup, dedup=True)
    return pre


# ----------------------------------------------------------------------
# prepare_inbox
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    rows=st.one_of(wire_rows, clash_rows),
    chunk_rows=chunk_sizes,
    dedup=st.booleans(),
)
def test_prepare_inbox_matches_reference(rows, chunk_rows, dedup) -> None:
    chunks = make_chunks(rows, chunk_rows)
    lookup = make_soa().lookup
    expected, expected_dropped = prepare_inbox_reference(chunks, lookup, dedup=dedup)
    got, dropped = prepare_inbox(chunks, lookup, dedup=dedup)
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


def reslrl_traffic(repeated: bool) -> list[tuple]:
    """One ``reslrl`` to each of three nodes, and a ``lin``; *repeated* adds
    two more ``reslrl`` to the first node from the same responder (one sort
    code) with other neighbours, staged against their payload order."""
    rows = [
        (RESLRL, ID_POOL[k], ID_POOL[k + 3], ID_POOL[k + 4], ID_POOL[k + 5])
        for k in range(3)
    ]
    if repeated:
        rows += [
            (RESLRL, ID_POOL[0], ID_POOL[3], ID_POOL[9], ID_POOL[1]),
            (RESLRL, ID_POOL[0], ID_POOL[3], ID_POOL[2], ID_POOL[1]),
        ]
    return rows + [(LIN, ID_POOL[0], ID_POOL[1], 0.0, 0.0)]


@pytest.mark.parametrize("repeated", [False, True])
def test_prepare_inbox_reslrl_block_both_branches(monkeypatch, repeated) -> None:
    """One ``reslrl`` per node: distinct heads, every row kept in head
    order, nothing re-sorted.  Two to one node from one responder: the run
    is re-sorted by ``(b, c)`` — the oracle's lexsort — and only then."""
    re_sorts = count_calls(monkeypatch, "_sort_clashes")
    chunks = make_chunks(reslrl_traffic(repeated))
    lookup = make_soa().lookup
    expected, _ = prepare_inbox_reference(chunks, lookup, dedup=True)
    got, _ = prepare_inbox(chunks, lookup, dedup=True)
    assert got is not None and expected is not None
    assert_same_fields(got, expected, ROW_FIELDS)
    assert got.n_res == expected.n_res == (5 if repeated else 3)
    assert re_sorts[0] == int(repeated)


def test_prepare_inbox_single_payload_clash(monkeypatch) -> None:
    """Two ids closer than the code resolution (2**-53 at most), sent to
    one node as one type, share a sort code: the run is re-sorted by
    payload, and the copy of one coalesces."""
    re_sorts = count_calls(monkeypatch, "_sort_clashes")
    rows = [(LIN, ID_POOL[0], a, 0.0, 0.0) for a in (3e-17, 1e-17, 3e-17, ID_POOL[1])]
    chunks = make_chunks(rows)
    lookup = make_soa().lookup
    expected, _ = prepare_inbox_reference(chunks, lookup, dedup=True)
    got, _ = prepare_inbox(chunks, lookup, dedup=True)
    assert got is not None and expected is not None
    assert_same_fields(got, expected, ROW_FIELDS)
    assert got.a.tolist() == [1e-17, 3e-17, ID_POOL[1]]
    assert re_sorts[0] == 1


@settings(max_examples=100, deadline=None)
@given(rows=st.one_of(wire_rows, clash_rows), columns=st.sampled_from([1, 3]))
def test_dedup_order_without_code_bits(rows, columns) -> None:
    """A head that leaves no bit for a payload code (``head_bits`` 62 here,
    2**31 rows in earnest) is sorted by one ``lexsort``: the same distinct
    rows, in the same order, as the coded value sort."""
    head = np.array([ID_POOL.index(row[1]) if row[1] in ID_POOL else 12 for row in rows])
    payload = tuple(
        np.array([row[2 + k] for row in rows], dtype=np.float64).view(np.uint64)
        for k in range(columns)
    )
    kept = []
    for head_bits in (4, 62):
        order, sorted_head, fresh = buffers._dedup_order(head, head_bits, payload)
        kept.append((sorted_head[fresh], [column[order[fresh]] for column in payload]))
    (coded_head, coded), (sorted_head, lexsorted) = kept
    assert_same_array(coded_head, sorted_head, "heads")
    for got, expected in zip(coded, lexsorted):
        assert_same_array(got, expected, "payload")


@settings(max_examples=200, deadline=None)
@given(
    patterns=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60
    ),
    code_bits=st.integers(min_value=1, max_value=53),
)
def test_payload_code_keeps_bit_order(patterns, code_bits) -> None:
    """Over any float64 bit patterns — NaNs of both signs, subnormals, both
    zeros, both infinities — the code never falls in ``uint64`` order and
    stays below ``2**code_bits``, without a floating-point warning."""
    specials = np.array(
        [0.0, -0.0, 5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0, 2.0, np.inf,
         -np.inf, np.nan, -np.nan, -5e-324]
    ).view(np.uint64)
    bits = np.sort(np.concatenate([np.array(patterns, dtype=np.uint64), specials]))
    with np.errstate(all="raise"):
        code = buffers._payload_code(bits, code_bits)
    assert code.dtype == np.int64
    assert (np.diff(code) >= 0).all()
    assert code.min() >= 0 and code.max() < (1 << code_bits)


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
    included) must give the same inbox as the packed one-word encoding.
    ``finalize_inbox`` consumes its prepared inbox, so each branch gets a
    fresh one of the same rows."""
    pre = prepared(rows)
    if pre is None:
        return
    keys = np.random.default_rng(seed).integers(0, key_space, size=len(pre), dtype=np.int64)
    as_float = keys / float(1 << 42)  # exact: 42-bit integers over a power of two
    packed = finalize_inbox(pre, keys)
    floated = finalize_inbox(prepared(rows), as_float)
    assert_same_fields(floated, packed, ROW_FIELDS + ("rank",))
    assert floated.n_waves == packed.n_waves


def test_key_bits_budget() -> None:
    """How many top bits of a delivery key the one-word sort keeps: all 42
    on small inboxes, 32 on a cold round at n = 8192 (~150 k rows), 28 on
    one at n = 49 152 (~450 k); none before 2**42 rows."""
    assert buffers._key_bits(18, 3) == 42
    assert buffers._key_bits(150_000, 8191) == 32
    assert buffers._key_bits(450_000, 49_151) == 28
    assert buffers._key_bits(1 << 42, (1 << 21) - 1) <= 0


def direct_prepared(slots: list[int], seed: int) -> PreparedInbox:
    """Prepared rows at arbitrary slots, in type order (the layout of the
    flush without dedup), ``b``/``c`` on the ``reslrl`` rows."""
    rng = np.random.default_rng(seed)
    count = len(slots)
    tcode = np.sort(rng.integers(0, buffers.N_TYPES, size=count)).astype(np.int8)
    n_res = int((tcode == RESLRL).sum())
    return PreparedInbox(
        dest_idx=np.array(slots, dtype=np.int32),
        tcode=tcode,
        a=rng.random(count),
        b=rng.random(n_res),
        c=rng.random(n_res),
        n_res=n_res,
        packed_ok=True,
    )


#: ``(slots, key bits the one-word sort keeps)``: small slots keep all 42;
#: slots near 2**21 take 21 bits beside the 5 of 18 positions, leaving 37.
KEY_BUDGETS = {
    "k=42": ([3, 1, 3, 0, 3, 1] * 3, 42),
    "k<42": ([(1 << 21) - 1, 5, (1 << 21) - 1, 1 << 20, (1 << 21) - 1, 5] * 3, 37),
}


@pytest.mark.parametrize(
    ("budget", "keys"),
    [
        ("k=42", "distinct"),
        ("k=42", "full-tie"),
        ("k<42", "distinct"),
        ("k<42", "shared-top-bits"),
        ("k<42", "full-tie"),
    ],
)
def test_finalize_inbox_truncated_keys(budget, keys) -> None:
    """The one-word sort of truncated keys, against the stable argsort of
    full ones.  Distinct draws are decided by their top ``k`` bits; keys
    that agree on those (and differ below them, in the order opposite to
    their rows) or agree entirely send the round to the full-key sort."""
    slots, k = KEY_BUDGETS[budget]
    pre = direct_prepared(slots, seed=len(keys))
    count = len(pre)
    assert buffers._key_bits(count, max(slots)) == k
    if keys == "distinct":
        drawn = np.random.default_rng(3).integers(0, 1 << 42, size=count, dtype=np.int64)
    elif keys == "shared-top-bits":
        drawn = (np.int64(5) << np.int64(42 - k)) | np.arange(count, dtype=np.int64)[::-1]
    else:
        drawn = np.full(count, 12345, dtype=np.int64)
    truncated = buffers._truncated_order(pre.dest_idx, drawn)
    assert (truncated is None) == (keys != "distinct")
    expected = finalize_inbox_reference(pre, drawn)
    got = finalize_inbox(pre, drawn)
    assert_same_fields(got, expected, ROW_FIELDS + ("rank",))
    assert got.n_waves == expected.n_waves


@pytest.mark.parametrize("k", [0, -3])
def test_finalize_inbox_without_key_bits(monkeypatch, k) -> None:
    """``k <= 0`` (2**42 rows or more) leaves no key bit beside slot and
    position: the full-key sort decides, with the same answer."""
    monkeypatch.setattr(buffers, "_key_bits", lambda count, top_slot: k)
    pre = direct_prepared([3, 1, 3, 0, 3, 1] * 3, seed=4)
    drawn = np.random.default_rng(5).integers(0, 1 << 42, size=len(pre), dtype=np.int64)
    assert buffers._truncated_order(pre.dest_idx, drawn) is None
    expected = finalize_inbox_reference(pre, drawn)
    got = finalize_inbox(pre, drawn)
    assert_same_fields(got, expected, ROW_FIELDS + ("rank",))


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
    """Every row a writer, the planner's ``(step, type)`` groups are the
    ``(wave, type)`` groups of the whole inbox in delivery order, each
    group's rows in that order, as canonical positions."""
    soa = make_soa()
    pre, _ = prepare_inbox(make_chunks(rows), soa.lookup, dedup=dedup)
    if pre is None:
        return
    keys = buffers.draw_delivery_keys(
        np.random.default_rng(seed), len(pre), packed_ok=pre.packed_ok
    )
    inbox = finalize_inbox_reference(pre, keys)
    expected = [
        (code, inbox.position[rows].astype(np.int32))
        for code, rows in wave_groups_reference(inbox)
    ]
    step, writer, _ = receive_steps(pre, keys, soa, planned=False)
    assert writer is None
    got = FastEngine._wave_groups(step, pre.tcode, pre.dest_idx)
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
# Outbox bookkeeping
# ----------------------------------------------------------------------
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
    every send / restage / drop / take."""
    ids = make_soa().ids[:12]
    outbox = Outbox(MessageStats())
    for op, code, count, seed in ops:
        rng = np.random.default_rng(seed)
        cols = [rng.choice(ids, size=count) for _ in range(4)]
        payload = cols if code == RESLRL else cols[:2]
        if op == "send":
            outbox.send(code, *payload, origin=cols[1])
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
    # The oracle counts hops in int64; route_batch in the narrowest dtype
    # that holds its cap + 1.  The values must be equal all the same.
    assert got.hops.dtype == hop_dtype(view.n, options.get("max_hops"))
    np.testing.assert_array_equal(got.hops, expected.hops, err_msg="hops")
    assert_same_array(got.ok, expected.ok, "ok")
    assert_same_array(got.lost_reason, expected.lost_reason, "lost_reason")
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
