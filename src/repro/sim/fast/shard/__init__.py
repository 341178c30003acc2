"""``repro.sim.fast.shard`` — wave execution over in-process id-range blocks.

The id space of the engine's one :class:`~repro.sim.fast.soa.SoAState`
is cut into contiguous blocks (docs/PERF.md §8), each block's share of the
round driven as a phased :class:`~repro.sim.fast.shard.core.ShardCore`
with its own outbox; :class:`ShardedEngine` coordinates the
boundary-outbox exchange and draws all randomness globally, so a sharded
run replays the unsharded ``FastEngine`` trajectory bit-for-bit at any
shard count.
"""

from repro.sim.fast.shard.core import ShardCore
from repro.sim.fast.shard.engine import ShardedEngine
from repro.sim.fast.shard.partition import owner_of, partition_edges

__all__ = [
    "ShardCore",
    "ShardedEngine",
    "owner_of",
    "partition_edges",
]
