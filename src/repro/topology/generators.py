"""Initial-configuration families for the convergence experiments.

Every generator returns a list of :class:`~repro.core.state.NodeState`
whose stored-link graph is weakly connected (asserted), with identifiers
drawn uniformly from ``[0, 1)``.  ``shuffle_ids=True`` (the default via
:func:`repro.topology.encode.encode_graph`) decorrelates identifier order
from graph structure, which is the adversarial regime for linearization.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import networkx as nx
import numpy as np

from repro.core.state import NodeState
from repro.graphs.build import stable_ring_states
from repro.ids import NEG_INF, POS_INF, generate_ids
from repro.sim.fast.predicates import weak_component_count
from repro.sim.fast.soa import SoAState, stored_links
from repro.topology.encode import assert_weakly_connected, encode_graph, states_union_graph

__all__ = [
    "line_soa",
    "line_topology",
    "topology_soa",
    "star_topology",
    "clique_topology",
    "random_tree_topology",
    "gnp_topology",
    "lollipop_topology",
    "binary_tree_topology",
    "corrupted_ring_topology",
    "TOPOLOGIES",
]


def _require_n(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise ValueError(f"n must be at least {minimum}, got {n}")


def _encode(
    graph: nx.Graph, n: int, rng: np.random.Generator, shuffle_ids: bool
) -> list[NodeState]:
    states = encode_graph(graph, generate_ids(n, rng), rng, shuffle_ids=shuffle_ids)
    assert_weakly_connected(states)
    return states


def line_soa(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> SoAState:
    """A path graph, encoded as :func:`~repro.topology.encode.encode_graph`
    encodes ``nx.path_graph(n)``, built as an id-sorted :class:`SoAState`.

    Same draws, same states: the ids, ``rng.permutation(n)`` (only when
    *shuffle_ids*), the root, then one slot draw per spanning-tree edge
    in breadth-first order from the root — depth by depth, the left edge
    before the right.  Each child of a path is fresh when its one tree
    edge is stored, so its free slots are always ``[l or r, lrl, ring]``,
    and a path has no non-tree edges.
    """
    _require_n(n)
    columns = _line_columns(n, rng, shuffle_ids)
    if weak_component_count(columns[0], *stored_links(*columns[:5])) != 1:
        raise AssertionError("generated initial configuration is not weakly connected")
    return SoAState.from_columns(*columns)


def _line_columns(
    n: int, rng: np.random.Generator, shuffle_ids: bool
) -> tuple[np.ndarray, ...]:
    """:func:`line_soa`'s ``(ids, l, r, lrl, ring, age)``, id-sorted.

    A function of its own so that its temporaries are freed before the
    connectivity check and the container are built: that keeps the
    start's traced peak near 210 B a node (docs/PERF.md §8).
    """
    ordered = np.sort(np.asarray(generate_ids(n, rng), dtype=np.float64))
    # rank[g]: the sorted position of the id graph node g receives.
    rank = rng.permutation(n) if shuffle_ids else np.arange(n)
    root = int(rng.integers(n))
    slot = rng.integers(3, size=n - 1)

    # The children of the breadth-first tree in edge order: both sides
    # alternate while both last, then the longer side runs on alone.
    left = root - 1 - np.arange(root)
    right = root + 1 + np.arange(n - 1 - root)
    both = min(len(left), len(right))
    child = np.empty(n - 1, dtype=np.int64)
    child[0 : 2 * both : 2] = left[:both]
    child[1 : 2 * both : 2] = right[:both]
    child[2 * both :] = left[both:] if len(left) > both else right[both:]
    parent = np.where(child < root, child + 1, child - 1)

    at = rank[child]
    target = ordered[rank[parent]]
    l = np.full(n, NEG_INF)
    r = np.full(n, POS_INF)
    lrl = ordered.copy()
    ring = np.full(n, np.nan)
    towards = slot == 0
    lower = towards & (target < ordered[at])
    upper = towards & ~lower
    l[at[lower]] = target[lower]
    r[at[upper]] = target[upper]
    lrl[at[slot == 1]] = target[slot == 1]
    ring[at[slot == 2]] = target[slot == 2]
    return ordered, l, r, lrl, ring, np.zeros(n, dtype=np.int64)


def topology_soa(name: str, n: int, rng: np.random.Generator) -> SoAState:
    """The *name* family's start as an id-sorted :class:`SoAState`, the
    state the fast doors take: built from columns for the line
    (:func:`line_soa`), from the family's ``NodeState`` list otherwise."""
    if name == "line":
        return line_soa(n, rng)
    return SoAState.from_states(TOPOLOGIES[name](n, rng))


def line_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A path graph.  With shuffled ids this is a chain whose identifier
    order is a random permutation — linearization must resort it entirely.
    :func:`line_soa` as one ``NodeState`` per node, ascending."""
    return line_soa(n, rng, shuffle_ids=shuffle_ids).to_states()


def star_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A star: one hub knows (or is known by) everyone.  The hub's slots
    cannot hold n−1 links, so most spokes point *at* the hub — the
    high-contention case for the hub's channel."""
    _require_n(n)
    return _encode(nx.star_graph(n - 1), n, rng, shuffle_ids)


def clique_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A complete graph, stored best-effort (slots overflow; extra edges
    drop).  Maximal initial redundancy."""
    _require_n(n)
    return _encode(nx.complete_graph(n), n, rng, shuffle_ids)


def random_tree_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A uniformly random labeled tree — the generic sparse case."""
    _require_n(n)
    seed = int(rng.integers(2**31 - 1))
    tree = nx.random_labeled_tree(n, seed=seed)
    return _encode(tree, n, rng, shuffle_ids)


def gnp_topology(
    n: int,
    rng: np.random.Generator,
    *,
    p: float | None = None,
    shuffle_ids: bool = True,
    max_tries: int = 50,
) -> list[NodeState]:
    """A connected Erdős–Rényi graph G(n, p); p defaults to ``2 ln n / n``
    (comfortably above the connectivity threshold)."""
    _require_n(n)
    if p is None:
        p = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    for _ in range(max_tries):
        seed = int(rng.integers(2**31 - 1))
        g = nx.gnp_random_graph(n, p, seed=seed)
        if nx.is_connected(g):
            return _encode(g, n, rng, shuffle_ids)
    raise RuntimeError(f"no connected G({n}, {p}) found in {max_tries} tries")


def lollipop_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A lollipop (clique + tail): dense core with a long sparse appendage,
    the classic worst case for diffusion-style processes."""
    _require_n(n, minimum=4)
    clique_size = max(3, n // 3)
    tail = n - clique_size
    return _encode(nx.lollipop_graph(clique_size, tail), n, rng, shuffle_ids)


def binary_tree_topology(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """A balanced binary tree truncated to n nodes."""
    _require_n(n)
    depth = max(1, math.ceil(math.log2(n + 1)))
    g = nx.balanced_tree(2, depth)
    g = g.subgraph(range(n)).copy()
    if not nx.is_connected(g):  # pragma: no cover - prefix of BFS order is connected
        raise AssertionError("binary-tree prefix unexpectedly disconnected")
    return _encode(g, n, rng, shuffle_ids)


def corrupted_ring_topology(
    n: int,
    rng: np.random.Generator,
    *,
    corrupt_fraction: float = 0.3,
) -> list[NodeState]:
    """A legitimate sorted ring with a fraction of nodes corrupted.

    Corruption redirects a node's ``l``/``r`` to random (order-respecting)
    identifiers, scrambles its ``lrl``/``ring``, and randomizes its age —
    the "transient fault" scenario of self-stabilization.  If the
    corruption happens to disconnect the stored-link graph, bridges are
    re-inserted through ``lrl`` slots so the paper's weak-connectivity
    assumption still holds.
    """
    _require_n(n, minimum=4)
    if not (0.0 <= corrupt_fraction <= 1.0):
        raise ValueError("corrupt_fraction must be in [0, 1]")
    states = stable_ring_states(n, ids=generate_ids(n, rng))
    ordered = [s.id for s in states]
    k = int(round(corrupt_fraction * n))
    victims = rng.choice(n, size=k, replace=False)
    for idx in victims:
        s = states[int(idx)]
        pick = lambda: ordered[int(rng.integers(n))]  # noqa: E731 - tiny local
        smaller = [o for o in ordered if o < s.id]
        larger = [o for o in ordered if o > s.id]
        if smaller and rng.random() < 0.8:
            s.corrupt(l=smaller[int(rng.integers(len(smaller)))])
        if larger and rng.random() < 0.8:
            s.corrupt(r=larger[int(rng.integers(len(larger)))])
        s.corrupt(lrl=pick(), ring=pick(), age=int(rng.integers(0, 50)))

    # Restore weak connectivity if corruption severed it.
    g = states_union_graph(states)
    components = list(nx.weakly_connected_components(g))
    while len(components) > 1:
        a = components[0]
        b = components[1]
        src = states[ordered.index(next(iter(a)))]
        dst_id = next(iter(b))
        src.corrupt(lrl=dst_id)
        g = states_union_graph(states)
        components = list(nx.weakly_connected_components(g))
    assert_weakly_connected(states)
    return states


#: Registry used by experiment E1/E10 and the CLI.
TOPOLOGIES: dict[str, Callable[[int, np.random.Generator], list[NodeState]]] = {
    "line": line_topology,
    "star": star_topology,
    "clique": clique_topology,
    "random_tree": random_tree_topology,
    "gnp": gnp_topology,
    "lollipop": lollipop_topology,
    "binary_tree": binary_tree_topology,
    "corrupted_ring": corrupted_ring_topology,
}
