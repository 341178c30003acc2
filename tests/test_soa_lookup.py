"""``SoAState.lookup`` answers as a binary search over the sorted ids does.

The lookup probes one bucket per id (``floor(x * B)`` of a power-of-two
table over the sorted live ids) and binary-searches only the misses.  The
oracle here is the search it replaced: for every query the same ``found``,
and the same slot wherever ``found``.  The ids include uniform draws, a
thousand ids packed into one bucket, ids on bucket edges ``k / B`` and one
ulp to either side, ``0.0`` and the largest double below 1; the queries
add unknown ids, ``±inf``, NaN and ``-0.0``; and the state is checked again
after ``add_batch``, ``remove_batch`` and ``compact``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fast.soa import SoAState

#: The largest double below 1.
LAST = float(np.nextafter(1.0, 0.0))
SPECIAL = np.array([0.0, -0.0, LAST, 1.0, -1.0, np.inf, -np.inf, np.nan])


def search(soa: SoAState, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The binary search the bucket table stands in for."""
    ids, idx = soa.sorted_live()
    pos = np.minimum(np.searchsorted(ids, x), len(ids) - 1)
    return idx[pos], ids[pos] == x


def columns(ids) -> tuple[np.ndarray, ...]:
    ids = np.asarray(ids, dtype=np.float64)
    k = len(ids)
    return (
        ids,
        np.full(k, -np.inf),
        np.full(k, np.inf),
        ids.copy(),
        np.full(k, np.nan),
        np.zeros(k, dtype=np.int64),
    )


def queries(soa: SoAState, extra) -> np.ndarray:
    """Every live id, its neighbours one ulp away, the table's bucket
    edges and their neighbours, the special values and *extra*."""
    ids = soa.sorted_live()[0]
    buckets = max(len(soa._bucket_start), 1)
    edges = np.arange(0, buckets, max(buckets // 64, 1)) / buckets
    near = np.concatenate((ids, edges))
    return np.concatenate(
        (
            near,
            np.nextafter(near, -np.inf),
            np.nextafter(near, np.inf),
            SPECIAL,
            np.asarray(extra, dtype=np.float64),
        )
    )


def assert_lookup_is_search(soa: SoAState, extra=()) -> None:
    x = queries(soa, extra)
    idx, found = soa.lookup(x)
    want_idx, want_found = search(soa, x)
    np.testing.assert_array_equal(found, want_found)
    np.testing.assert_array_equal(idx[found], want_idx[found])
    # Every live id is found at its own slot.
    live = np.flatnonzero(soa.alive[: soa.size])
    got, hit = soa.lookup(soa.ids[live])
    assert hit.all()
    np.testing.assert_array_equal(got, live)


def bucket_count(n: int) -> int:
    """The table size the state picks for *n* live ids (edges to aim at)."""
    return 1 << (8 * n - 1).bit_length()


@st.composite
def id_sets(draw) -> list[float]:
    n = draw(st.integers(min_value=1, max_value=120))
    bits = bucket_count(n)
    edge = st.integers(min_value=0, max_value=bits - 1).map(lambda k: k / bits)
    one = st.sampled_from([-np.inf, np.inf])
    pool = st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        edge,
        st.tuples(edge, one).map(lambda e: float(np.nextafter(*e))),
        st.sampled_from([0.0, LAST]),
    )
    ids = draw(st.lists(pool, min_size=n, max_size=n, unique=True))
    return [v for v in ids if 0.0 <= v < 1.0] or [0.5]


@settings(max_examples=200, deadline=None)
@given(
    ids=id_sets(),
    unknown=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
    fresh=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        max_size=40,
        unique=True,
    ),
    leave=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40),
)
def test_lookup_matches_binary_search(ids, unknown, fresh, leave) -> None:
    soa = SoAState()
    soa.add_batch(*columns(ids))
    assert_lookup_is_search(soa, unknown)

    victims = np.unique([ids[k % len(ids)] for k in leave])
    if len(victims) < len(ids):
        soa.remove_batch(victims)
        assert_lookup_is_search(soa, victims)
    joining = [v for v in fresh if v not in soa]
    soa.add_batch(*columns(joining))
    assert_lookup_is_search(soa, unknown)
    soa.compact()
    assert_lookup_is_search(soa, victims)


@settings(max_examples=30, deadline=None)
@given(
    base=st.floats(min_value=0.0, max_value=0.99),
    step=st.sampled_from([1e-12, 1e-9, 2.0**-40]),
    others=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        max_size=50,
        unique=True,
    ),
)
def test_a_thousand_ids_in_one_bucket(base, step, others) -> None:
    packed = base + step * np.arange(1000)
    ids = np.unique(np.concatenate((packed, others)))
    soa = SoAState()
    soa.add_batch(*columns(ids))
    buckets = len(soa._bucket_start)
    assert np.unique(np.floor(packed * buckets)).size <= 2
    assert_lookup_is_search(soa, packed + step / 2)


def test_empty_state_finds_nothing() -> None:
    soa = SoAState()
    idx, found = soa.lookup(SPECIAL)
    assert not found.any() and len(idx) == len(SPECIAL)
    soa.add_batch(*columns([0.25]))
    soa.remove_batch(np.array([0.25]))
    assert not soa.lookup(SPECIAL)[1].any()
