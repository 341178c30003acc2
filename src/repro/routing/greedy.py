"""Greedy routing on the ring augmented with long-range links.

A query at node ``v`` with target ``t`` forwards to whichever of
``v``'s neighbors — ring-left, ring-right, and its long-range link — is
closest to ``t`` in ring distance.  Because a ring neighbor always reduces
the distance by one, greedy routing always terminates; the long-range links
determine *how fast*:

* harmonic links (the small-world network, Fact 4.21): ``O(ln^2 n)``
  expected hops (Kleinberg [14]);
* uniformly random links: ``Θ(√n)``-ish — random links are almost never
  useful near the target;
* no links (ring only): exactly the ring distance, ``Θ(n)`` on average.

Experiment E5 measures all three plus the protocol-stabilized network.

The kernel is vectorized over a batch of queries: per hop, all active
queries pick their best neighbor with O(active) numpy work.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.state import NodeState
from repro.serve.routing import NO_LINK, RouteView

__all__ = ["greedy_route_hops", "greedy_route_states"]


def _ring_distance(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    d = np.abs(a - b)
    return np.minimum(d, n - d)


def greedy_route_hops(
    n: int,
    lrl: np.ndarray | None,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    max_hops: int | None = None,
) -> np.ndarray:
    """Route each (source, target) query greedily; return hop counts.

    Parameters
    ----------
    n:
        Ring size; nodes are ranks ``0..n−1``.
    lrl:
        Long-range-link target rank per node (length n), or ``None`` for
        ring-only routing.  A node whose link points at itself simply has
        no useful shortcut, and neither has one whose link is ``NO_LINK``
        (an identifier not live in the :class:`RouteView` it was read from).
    sources, targets:
        Equal-length integer arrays of query endpoints.
    max_hops:
        Safety cap; defaults to ``n`` (greedy provably terminates within
        ``⌈n/2⌉`` hops, so hitting the cap indicates a bug).

    Returns
    -------
    Hop count per query (0 when source == target).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have the same shape")
    if sources.size and (
        sources.min() < 0 or sources.max() >= n or targets.min() < 0 or targets.max() >= n
    ):
        raise ValueError("ranks must lie in [0, n)")
    if lrl is not None:
        lrl = np.asarray(lrl, dtype=np.int64)
        if lrl.shape != (n,):
            raise ValueError(f"lrl must have shape ({n},)")
        lrl = np.where(lrl == NO_LINK, np.arange(n), lrl)
        if lrl.size and (lrl.min() < 0 or lrl.max() >= n):
            raise ValueError("lrl ranks must lie in [0, n)")
    cap = max_hops if max_hops is not None else n

    hops = np.zeros(sources.shape, dtype=np.int64)
    cur = sources.copy()
    active = np.flatnonzero(cur != targets)
    for _ in range(cap):
        if active.size == 0:
            return hops
        c = cur[active]
        t = targets[active]
        left = (c - 1) % n
        right = (c + 1) % n
        d_left = _ring_distance(left, t, n)
        d_right = _ring_distance(right, t, n)
        best = np.where(d_left <= d_right, left, right)
        best_d = np.minimum(d_left, d_right)
        if lrl is not None:
            shortcut = lrl[c]
            d_short = _ring_distance(shortcut, t, n)
            use = d_short < best_d
            best = np.where(use, shortcut, best)
        cur[active] = best
        hops[active] += 1
        active = active[best != t]
    raise RuntimeError(f"greedy routing did not finish within {cap} hops")


def greedy_route_states(
    states: Sequence[NodeState] | Mapping[float, NodeState],
    sources: Sequence[float],
    targets: Sequence[float],
    *,
    use_lrl: bool = True,
    max_hops: int | None = None,
) -> np.ndarray:
    """Greedy routing between identifier pairs on a stabilized network.

    Thin adapter: reads the links through a :class:`RouteView`, resolves
    the identifiers to ranks, then calls the vectorized kernel.  The
    network must satisfy the sorted-ring invariant for the rank mapping to
    coincide with the overlay's actual neighbor structure.
    """
    view = RouteView.from_states(states)
    return greedy_route_hops(
        view.n,
        view.lrl_rank if use_lrl else None,
        view.resolve(sources),
        view.resolve(targets),
        max_hops=max_hops,
    )
