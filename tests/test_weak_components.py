"""``weak_component_count`` counts what networkx counts.

The fast predicates (phase 1's LCC check, the chaos monitors' CC count
and every line start's connectivity check) all reduce to
:func:`repro.sim.fast.predicates.weak_component_count`, a vectorized
union–find over the ranks of the identifiers.  The oracle here is
``nx.number_weakly_connected_components`` on the ``DiGraph`` over the same
universe: the given ids plus every edge endpoint, self-loops dropped.
Hypothesis draws ids from a small pool, so dangling ids, self-loops,
duplicate and reversed edges, no edges, a single node and several
components all come up.  Named labelings that stress the hooking order
(paths labelled increasing, decreasing and alternating, a star whose hub
has the largest label, combs, shuffled paths) check the count and bound
the hook passes by ``2·⌈log2 m⌉ + 2``: the roots that carry edges halve
at least every two passes.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fast.predicates import _weak_roots, weak_component_count


def oracle(ids: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    g = nx.DiGraph()
    g.add_nodes_from(ids.tolist())
    g.add_edges_from((a, b) for a, b in zip(u.tolist(), v.tolist()) if a != b)
    return nx.number_weakly_connected_components(g)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12, unique=True
    ),
    data=st.data(),
)
def test_count_matches_networkx(pool: list[float], data: st.DataObject) -> None:
    members = data.draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    at = st.integers(0, len(pool) - 1)
    edges = data.draw(st.lists(st.tuples(at, at), max_size=24))
    ids = np.array([x for x, keep in zip(pool, members) if keep], dtype=np.float64)
    u = np.array([pool[i] for i, _ in edges], dtype=np.float64)
    v = np.array([pool[j] for _, j in edges], dtype=np.float64)
    assert weak_component_count(ids, u, v) == oracle(ids, u, v)


@pytest.mark.parametrize(
    "ids, u, v, count",
    [
        ([], [], [], 0),
        ([0.5], [], [], 1),
        ([0.5], [0.5], [0.5], 1),  # a self-loop adds nothing
        ([0.1, 0.2, 0.3], [], [], 3),  # no edges
        ([], [0.1], [0.2], 1),  # both ends dangling
        ([0.1], [0.1, 0.1], [0.7, 0.7], 1),  # a duplicate edge to a dangling id
        ([0.1, 0.2], [0.1, 0.2], [0.9, 0.9], 1),  # held together by a dangling id
        ([0.1, 0.2, 0.3, 0.4], [0.2, 0.4], [0.1, 0.3], 2),  # reversed edges
        ([0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.3], [0.2, 0.4], 3),
    ],
)
def test_named_small_graphs(ids, u, v, count) -> None:
    arrays = [np.array(x, dtype=np.float64) for x in (ids, u, v)]
    assert weak_component_count(*arrays) == count == oracle(*arrays)


def path(order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path visiting the labels in *order*."""
    return order[:-1], order[1:]


def alternating(m: int) -> np.ndarray:
    """``0, m-1, 1, m-2, …``: every other node a local minimum."""
    order = np.empty(m, dtype=np.int64)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = m - 1 - np.arange(m // 2)
    return order


def star(m: int) -> tuple[np.ndarray, np.ndarray]:
    """A hub with the largest label and m-1 leaves below it."""
    return np.full(m - 1, m - 1), np.arange(m - 1)


def comb(m: int, *, spine_low: bool) -> tuple[np.ndarray, np.ndarray]:
    """A path of ``⌈m/2⌉`` spine nodes, the first ``⌊m/2⌋`` with one tooth
    each; the spine holds the lower labels (decreasing along it) or the
    upper ones (increasing)."""
    k = (m + 1) // 2
    spine = np.arange(k)[::-1] if spine_low else m - k + np.arange(k)
    teeth = k + np.arange(m - k) if spine_low else np.arange(m - k)[::-1]
    return (
        np.concatenate((spine[:-1], spine[: m - k])),
        np.concatenate((spine[1:], teeth)),
    )


def labelings(m: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(m)
    return {
        "increasing path": path(np.arange(m)),
        "decreasing path": path(np.arange(m)[::-1]),
        "alternating path": path(alternating(m)),
        "shuffled path": path(rng.permutation(m)),
        "star, hub largest": star(m),
        "comb, spine low": comb(m, spine_low=True),
        "comb, spine high": comb(m, spine_low=False),
    }


@pytest.mark.parametrize("m", [2, 3, 5, 16, 17, 1000, 4096, 1 << 15])
def test_adversarial_labelings_are_one_component_in_few_passes(m: int) -> None:
    bound = 2 * math.ceil(math.log2(m)) + 2
    labels = np.arange(m, dtype=np.float64) / m
    for name, (a, b) in labelings(m).items():
        assert len(a) == m - 1, name
        assert weak_component_count(labels, labels[a], labels[b]) == 1, name
        # Either direction of every edge: the hooking order must not care.
        for x, y in ((a, b), (b, a)):
            parent, passes = _weak_roots(m, x.astype(np.int32), y.astype(np.int32))
            assert passes <= bound, (name, passes, bound)
            assert np.count_nonzero(parent == np.arange(m)) == 1, name
            assert parent[0] == 0, name


def test_many_components_each_rooted_at_their_smallest_label() -> None:
    # Ten shuffled paths side by side: ten roots, each its path's minimum.
    rng = np.random.default_rng(3)
    m, k = 5000, 10
    chunks = np.array_split(rng.permutation(m), k)
    a = np.concatenate([c[:-1] for c in chunks]).astype(np.int32)
    b = np.concatenate([c[1:] for c in chunks]).astype(np.int32)
    parent, passes = _weak_roots(m, a, b)
    roots = np.flatnonzero(parent == np.arange(m))
    assert sorted(roots.tolist()) == sorted(int(c.min()) for c in chunks)
    assert passes <= 2 * math.ceil(math.log2(m)) + 2
    labels = np.arange(m, dtype=np.float64) / m
    assert weak_component_count(labels, labels[a], labels[b]) == k
