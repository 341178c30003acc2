"""Encode an arbitrary connected graph into protocol node states.

A node stores at most four outgoing links (``l``, ``r``, ``lrl``,
``ring``), so an arbitrary graph cannot be stored edge-for-edge.  Weak
connectivity of CC is all the paper requires, and a spanning tree of the
input graph guarantees it: every tree edge is stored at the *child*
endpoint (each child needs exactly one slot, and three of its four slots
can point in either direction), then the remaining non-tree edges are
stored opportunistically in leftover slots.

The resulting states exercise every recovery path: ``l``/``r`` pointing at
far-away nodes, long-range links doubling as structural edges, stale ring
edges, and nodes that believe they are extremal when they are not.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.state import NodeState
from repro.ids import is_real, sort_unique

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["encode_graph", "states_union_graph", "assert_weakly_connected"]


def _free_slots(state: NodeState, target: float) -> list[str]:
    """Slots of *state* that could store a link to *target*, best first.

    ``l``/``r`` are directional; ``lrl`` is free while the token is at home;
    ``ring`` is free while unset.
    """
    slots: list[str] = []
    if target < state.id and not state.has_left:
        slots.append("l")
    if target > state.id and not state.has_right:
        slots.append("r")
    if state.lrl == state.id:
        slots.append("lrl")
    if state.ring is None:
        slots.append("ring")
    return slots


def _store(state: NodeState, slot: str, target: float) -> None:
    if slot == "l":
        state.corrupt(l=target)
    elif slot == "r":
        state.corrupt(r=target)
    elif slot == "lrl":
        state.corrupt(lrl=target)
    elif slot == "ring":
        state.corrupt(ring=target)
    else:  # pragma: no cover - internal
        raise AssertionError(f"unknown slot {slot!r}")


def encode_graph(
    graph: nx.Graph,
    ids: Sequence[float],
    rng: np.random.Generator,
    *,
    shuffle_ids: bool = True,
) -> list[NodeState]:
    """Encode *graph* (nodes ``0..n−1``) into node states over *ids*.

    Parameters
    ----------
    graph:
        A connected undirected graph on nodes ``0..n−1``.
    ids:
        ``n`` distinct identifiers.
    rng:
        Used to pick the spanning-tree root, the id assignment, and slot
        tie-breaking, so repeated calls produce diverse configurations.
    shuffle_ids:
        If ``True`` (default) identifiers are assigned to graph nodes in
        random order — a path graph then becomes an id-scrambled chain, the
        adversarial case for linearization.  If ``False``, graph node ``i``
        receives the ``i``-th smallest id (the benign case).

    Raises
    ------
    ValueError
        If the graph is not connected or sizes do not match.
    """
    import networkx as nx

    n = graph.number_of_nodes()
    if set(graph.nodes) != set(range(n)):
        raise ValueError("graph nodes must be exactly 0..n-1")
    if len(ids) != n:
        raise ValueError(f"need {n} ids, got {len(ids)}")
    if n == 0:
        return []
    if not nx.is_connected(graph):
        raise ValueError("initial-configuration graph must be connected")

    ordered = sort_unique(ids)
    if shuffle_ids:
        perm = rng.permutation(n)
        node_id = {int(g): ordered[int(k)] for g, k in enumerate(perm)}
    else:
        node_id = {i: ordered[i] for i in range(n)}
    states = {g: NodeState(id=node_id[g]) for g in graph.nodes}

    # Spanning tree from a random root; store each edge at the child.
    root = int(rng.integers(n))
    tree_edges = list(nx.bfs_edges(graph, source=root))
    covered: set[frozenset[int]] = set()
    for parent, child in tree_edges:
        target = node_id[parent]
        slots = _free_slots(states[child], target)
        if not slots:  # pragma: no cover - 3 slots always admit one parent
            raise AssertionError("no free slot for spanning-tree edge")
        # Uniform slot choice: if l/r were always preferred, LCP would start
        # connected and Phase 1 (probing-driven connectivity) would be
        # trivially satisfied in every experiment.
        _store(states[child], slots[int(rng.integers(len(slots)))], target)
        covered.add(frozenset((parent, child)))

    # Non-tree edges: best effort, random endpoint first.
    for u, v in graph.edges:
        key = frozenset((int(u), int(v)))
        if key in covered or u == v:
            continue
        first, second = (u, v) if rng.random() < 0.5 else (v, u)
        for src, dst in ((first, second), (second, first)):
            slots = _free_slots(states[src], node_id[dst])
            if slots:
                slot = slots[int(rng.integers(len(slots)))]
                _store(states[src], slot, node_id[dst])
                covered.add(key)
                break
        # All slots full at both endpoints: the edge is dropped; the
        # spanning tree already guarantees weak connectivity.

    return [states[g] for g in sorted(states, key=lambda g: node_id[g])]


def states_union_graph(states: Sequence[NodeState]) -> nx.DiGraph:
    """The stored-link (CP) graph of a list of raw states (no network needed)."""
    import networkx as nx

    g = nx.DiGraph()
    for s in states:
        g.add_node(s.id)
    for s in states:
        for target in (s.l, s.r, s.lrl, s.ring):
            if target is not None and is_real(target) and target != s.id:
                g.add_edge(s.id, target)
    return g


def assert_weakly_connected(states: Sequence[NodeState]) -> None:
    """Raise if the stored-link graph of *states* is not weakly connected.

    Every generator calls this before returning — handing the protocol a
    disconnected initial state would violate the paper's one assumption and
    make non-convergence meaningless.
    """
    import networkx as nx

    if not states:
        raise ValueError("no states")
    g = states_union_graph(states)
    if len(states) > 1 and not nx.is_weakly_connected(g):
        raise AssertionError("generated initial configuration is not weakly connected")
