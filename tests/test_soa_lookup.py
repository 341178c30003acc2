"""``SoAState.lookup`` answers as a binary search over the sorted ids does.

The lookup probes one bucket per id (``floor(x * B)`` of a power-of-two
table over the sorted live ids) and binary-searches only the misses.  The
oracle here is the search it replaced: for every query the same ``found``,
and the same slot wherever ``found``.  The ids include uniform draws, a
thousand ids packed into one bucket, ids on bucket edges ``k / B`` and one
ulp to either side, ``0.0`` and the largest double below 1; the queries
add unknown ids, ``±inf``, NaN and ``-0.0``; and the state is checked again
after ``add_batch``, ``remove_batch`` and ``compact``.

The lookup is also the container's only id→slot structure, so membership
is checked against a Python ``set`` of the live ids: the counts, ``len``
and ``in`` after every write, and a batch carrying one live id to add or
one unknown id to remove is refused whole, with nothing changed.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
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


def assert_members(soa: SoAState, live: set[float], extra=()) -> None:
    """Counts, ``len`` and ``in`` agree with the set of live ids."""
    assert soa.n_live == len(soa) == len(live)
    assert soa.n_dead == soa.size - len(live)
    for x in queries(soa, extra).tolist():
        assert (x in soa) == (x in live), x


def assert_refused(soa: SoAState, error: type, message: str, write) -> None:
    """``write()`` raises *error* with *message* and leaves slots, counts,
    columns and every lookup answer as they were."""
    x = queries(soa, ())
    n, live = soa.size, soa.n_live
    names = ("ids", "l", "r", "lrl", "ring", "age", "alive")
    held = [getattr(soa, name)[:n].copy() for name in names]
    answer = soa.lookup(x)
    with pytest.raises(error, match=re.escape(message)):
        write()
    assert (soa.size, soa.n_live) == (n, live)
    for name, before in zip(names, held):
        np.testing.assert_array_equal(getattr(soa, name)[:n], before)
    for got, want in zip(soa.lookup(x), answer):
        np.testing.assert_array_equal(got, want)


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
    live: set[float] = set()
    soa.add_batch(*columns(ids))
    live.update(ids)
    assert_lookup_is_search(soa, unknown)
    assert_members(soa, live, unknown)

    victims = np.unique([ids[k % len(ids)] for k in leave])
    if len(victims) < len(ids):
        soa.remove_batch(victims)
        live.difference_update(victims.tolist())
        assert_lookup_is_search(soa, victims)
        assert_members(soa, live, victims)
    joining = [v for v in fresh if v not in live]
    soa.add_batch(*columns(joining))
    live.update(joining)
    assert_lookup_is_search(soa, unknown)
    assert_members(soa, live, unknown)

    # One live id spoils an add; one unknown id spoils a remove.
    some = min(live)
    dead = [v for v in victims.tolist() if v not in live][:3]
    unknown_id = next(v for v in (*unknown, 1.0) if v not in live)
    assert_refused(
        soa,
        ValueError,
        f"duplicate node id {some!r}",
        lambda: soa.add_batch(*columns([*dead, some])),
    )
    assert_refused(
        soa,
        KeyError,
        f"no node with id {unknown_id!r}",
        lambda: soa.remove_batch(np.array([some, unknown_id])),
    )
    soa.compact()
    assert_lookup_is_search(soa, victims)
    assert_members(soa, live, victims)


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
