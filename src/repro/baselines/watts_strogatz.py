"""The Watts–Strogatz small-world model [24], implemented from scratch.

The paper motivates "small-world" with the Watts–Strogatz interpolation:
start from a ring lattice where every node connects to its ``k`` nearest
neighbors, then rewire each edge with probability ``p``.  For small ``p``
clustering stays lattice-high while the characteristic path length
collapses — the small-world regime.  Experiment E12 regenerates the classic
normalized C(p)/C(0) and L(p)/L(0) curves as a substrate sanity check.

The generator is our own implementation (not ``networkx.watts_strogatz_graph``);
metric helpers reuse networkx's BFS only as a traversal primitive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "watts_strogatz_graph",
    "average_clustering",
    "characteristic_path_length",
    "ws_curves",
]


def watts_strogatz_graph(
    n: int, k: int, p: float, rng: np.random.Generator
) -> nx.Graph:
    """Build a Watts–Strogatz graph by ring-lattice construction + rewiring.

    Parameters
    ----------
    n:
        Number of nodes (ring positions ``0..n−1``).
    k:
        Even number of lattice neighbors per node (``k/2`` on each side).
    p:
        Per-edge rewiring probability in ``[0, 1]``.

    Each clockwise lattice edge ``(u, u+j)`` is, with probability ``p``,
    replaced by ``(u, w)`` for a uniform ``w`` avoiding self-loops and
    duplicate edges (the original Watts–Strogatz procedure).
    """
    import networkx as nx

    if n < 4:
        raise ValueError("n must be at least 4")
    if k < 2 or k % 2 != 0 or k >= n:
        raise ValueError("k must be even with 2 <= k < n")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for j in range(1, k // 2 + 1):
        for u in range(n):
            g.add_edge(u, (u + j) % n)
    for j in range(1, k // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if rng.random() >= p or not g.has_edge(u, v):
                continue
            # Draw a replacement endpoint; skip if u is already saturated.
            if g.degree(u) >= n - 1:
                continue
            while True:
                w = int(rng.integers(n))
                if w != u and not g.has_edge(u, w):
                    break
            g.remove_edge(u, v)
            g.add_edge(u, w)
    return g


def average_clustering(g: nx.Graph) -> float:
    """Average local clustering coefficient (triangle density per node)."""
    total = 0.0
    for u in g.nodes:
        neighbors = list(g.adj[u])
        d = len(neighbors)
        if d < 2:
            continue
        links = 0
        adj = g.adj
        for i, a in enumerate(neighbors):
            a_adj = adj[a]
            for b in neighbors[i + 1 :]:
                if b in a_adj:
                    links += 1
        total += 2.0 * links / (d * (d - 1))
    return total / g.number_of_nodes()


def characteristic_path_length(
    g: nx.Graph, rng: np.random.Generator, *, sample_sources: int | None = None
) -> float:
    """Mean shortest-path length over (sampled) source nodes.

    Exact when ``sample_sources`` is ``None`` or ≥ n; otherwise BFS runs
    from a uniform sample of sources — unbiased for the mean and orders of
    magnitude faster on the E12 sweep.
    """
    import networkx as nx

    n = g.number_of_nodes()
    nodes = list(g.nodes)
    if sample_sources is not None and sample_sources < n:
        idx = rng.choice(n, size=sample_sources, replace=False)
        sources = [nodes[int(i)] for i in idx]
    else:
        sources = nodes
    total = 0.0
    count = 0
    for s in sources:
        lengths = nx.single_source_shortest_path_length(g, s)
        if len(lengths) < n:
            raise ValueError("graph must be connected for path-length metrics")
        total += sum(lengths.values())
        count += n - 1
    return total / count


def ws_curves(
    n: int,
    k: int,
    ps: np.ndarray,
    rng: np.random.Generator,
    *,
    trials: int = 3,
    sample_sources: int | None = 64,
) -> list[dict[str, float]]:
    """The classic normalized C(p)/C(0), L(p)/L(0) table.

    One row per rewiring probability with the trial-averaged normalized
    clustering and path length (the two series of Watts–Strogatz Figure 2).
    """
    import networkx as nx

    base_c = None
    base_l = None
    rows: list[dict[str, float]] = []
    # p = 0 reference (deterministic graph, one evaluation suffices).
    g0 = watts_strogatz_graph(n, k, 0.0, rng)
    base_c = average_clustering(g0)
    base_l = characteristic_path_length(g0, rng, sample_sources=sample_sources)
    for p in np.asarray(ps, dtype=float):
        cs, ls = [], []
        for _ in range(trials):
            g = watts_strogatz_graph(n, k, float(p), rng)
            if not nx.is_connected(g):
                continue  # rare at the classic parameterizations; skip trial
            cs.append(average_clustering(g))
            ls.append(
                characteristic_path_length(g, rng, sample_sources=sample_sources)
            )
        if not cs:
            continue
        rows.append(
            {
                "p": float(p),
                "C_over_C0": float(np.mean(cs) / base_c),
                "L_over_L0": float(np.mean(ls) / base_l),
                "trials": float(len(cs)),
            }
        )
    return rows
