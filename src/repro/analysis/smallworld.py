"""Small-world metrics of overlay graphs.

"Small-world networks have local properties like regular lattices, yet they
also have small characteristic path lengths" (§I).  Given a stabilized
overlay (or any set of node states) these helpers compute the structural
metrics: degree statistics, characteristic path length, clustering, and
connectivity under failures (experiment E9).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.watts_strogatz import average_clustering
from repro.core.state import NodeState
from repro.ids import is_real

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = ["overlay_graph", "smallworld_metrics", "robustness_after_failures"]


def overlay_graph(
    states: Sequence[NodeState] | Mapping[float, NodeState],
    *,
    include_lrl: bool = True,
    include_ring: bool = True,
) -> nx.Graph:
    """The undirected communication graph of the stored links.

    Routing and path-length metrics treat links as bidirectional — a node
    that knows another's identifier can message it, and the stabilized
    overlay stores every list link in both directions anyway.
    """
    import networkx as nx

    if isinstance(states, Mapping):
        states = list(states.values())
    g = nx.Graph()
    present = {s.id for s in states}
    for s in states:
        g.add_node(s.id)
    for s in states:
        targets = [s.l, s.r]
        if include_lrl:
            targets.append(s.lrl)
        if include_ring and s.ring is not None:
            targets.append(s.ring)
        for t in targets:
            if is_real(t) and t != s.id and t in present:
                g.add_edge(s.id, t)
    return g


def smallworld_metrics(
    states: Sequence[NodeState] | Mapping[float, NodeState],
    rng: np.random.Generator,
    *,
    sample_sources: int | None = 64,
) -> dict[str, float]:
    """Degree / path-length / clustering summary of a stabilized overlay."""
    import networkx as nx

    g = overlay_graph(states)
    n = g.number_of_nodes()
    degrees = np.array([d for _, d in g.degree()], dtype=np.float64)
    metrics: dict[str, float] = {
        "n": float(n),
        "mean_degree": float(degrees.mean()),
        "max_degree": float(degrees.max()),
        "clustering": average_clustering(g),
        "connected": float(nx.is_connected(g)),
    }
    if nx.is_connected(g):
        from repro.baselines.watts_strogatz import characteristic_path_length

        metrics["char_path_length"] = characteristic_path_length(
            g, rng, sample_sources=sample_sources
        )
    return metrics


def robustness_after_failures(
    states: Sequence[NodeState] | Mapping[float, NodeState],
    failure_fraction: float,
    rng: np.random.Generator,
) -> dict[str, float]:
    """Structural robustness when a random node fraction fails (E9).

    Removes ``⌊f·n⌋`` random nodes from the overlay graph and reports the
    surviving giant-component fraction and whether the survivors stay
    connected — the paper's §I robustness motivation ("small-world networks
    provide a certain robustness against failures or attacks").
    """
    import networkx as nx

    if not (0.0 <= failure_fraction < 1.0):
        raise ValueError("failure_fraction must be in [0, 1)")
    g = overlay_graph(states)
    n = g.number_of_nodes()
    kill = int(failure_fraction * n)
    if kill:
        victims = rng.choice(n, size=kill, replace=False)
        nodes = list(g.nodes)
        g.remove_nodes_from(nodes[int(i)] for i in victims)
    survivors = g.number_of_nodes()
    if survivors == 0:
        return {"failed": float(kill), "giant_fraction": 0.0, "connected": 0.0}
    giant = max(nx.connected_components(g), key=len) if survivors else set()
    return {
        "failed": float(kill),
        "giant_fraction": float(len(giant) / survivors),
        "connected": float(nx.is_connected(g)),
    }
