"""Contiguous id-space partitioning for the sharded engine.

Shards own contiguous identifier ranges: shard *k* holds every node whose
id falls in ``[edges[k-1], edges[k])`` (with ``-inf`` / ``+inf`` at the
boundaries).  Cut points are chosen from the initial id population so the
blocks start balanced; they are **fixed for the engine's lifetime** —
later joins land on whichever shard owns their id range, so routing stays
a single ``searchsorted`` with no rebalancing protocol.

Contiguity is what makes the sharded engine a bit-exact replay of the
unsharded engine: the canonical (content-determined) inbox order is
destination-slot-major, and with id-sorted slot blocks the global
canonical order is exactly the shard-ascending concatenation of the
per-shard canonical orders (see docs/PERF.md).
"""

from __future__ import annotations

import numpy as np

__all__ = ["owner_of", "partition_edges"]


def partition_edges(sorted_ids: np.ndarray, shards: int) -> np.ndarray:
    """Shard cut points over an ascending id population.

    Returns ``shards - 1`` ascending identifiers; ``edges[k]`` is the
    first id owned by shard ``k + 1``.  Every initial block is non-empty
    (requires ``1 <= shards <= len(sorted_ids)``).
    """
    n = len(sorted_ids)
    if not 1 <= shards <= n:
        raise ValueError(
            f"cannot split {n} nodes into {shards} shards; accepted: 1..{n}"
        )
    cuts = [(k * n) // shards for k in range(1, shards)]
    return np.ascontiguousarray(sorted_ids[cuts], dtype=np.float64)


def owner_of(ids: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The owning shard index for each identifier.

    ``edges`` is a :func:`partition_edges` result; ids below the first cut
    belong to shard 0, ids at or above the last cut to the last shard —
    total ids (any value in ``[0, 1)``, including post-construction
    joiners) always resolve to exactly one shard.
    """
    return np.searchsorted(edges, ids, side="right")
