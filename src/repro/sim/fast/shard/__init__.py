"""``repro.sim.fast.shard`` — wave execution over in-process id-range blocks.

The memory-bounded scaling layer (docs/PERF.md §8): the id space is cut
into contiguous per-shard :class:`~repro.sim.fast.soa.SoAState` blocks,
each driven as a phased :class:`~repro.sim.fast.shard.core.ShardCore`;
:class:`ShardedEngine` coordinates the boundary-outbox exchange and draws
all randomness globally, so a sharded run replays the unsharded
``FastEngine`` trajectory bit-for-bit at any shard count.
"""

from repro.sim.fast.shard.core import ShardCore
from repro.sim.fast.shard.engine import MergedSoAView, ShardedEngine
from repro.sim.fast.shard.partition import owner_of, partition_edges

__all__ = [
    "MergedSoAView",
    "ShardCore",
    "ShardedEngine",
    "owner_of",
    "partition_edges",
]
