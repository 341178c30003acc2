"""``repro.sim.fast`` — the batched struct-of-arrays simulation engine.

Two engines over one state representation (docs/PERF.md):

* :class:`FastEngine` — vectorized synchronous rounds, batched RNG; the
  fast default for large-N experiments (E22).
* :class:`ShardedEngine` — the same rounds over contiguous in-process
  shards of the id space, bit-for-bit the batched trajectory.

Both plug into :class:`FastSimulator`, which shares the round-loop drivers
with the reference :class:`~repro.sim.engine.Simulator`.  Built with
``wire=True``, the batched engine holds a chaos wire stage as
``engine.wire`` (docs/CHAOS.md).  The draw-for-draw twin of the reference
round is a test oracle: ``tests/reference_mirror.py``.
"""

from repro.sim.fast.batched import FastEngine
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.shard import ShardedEngine
from repro.sim.fast.predicates import (
    fast_is_sorted_list,
    fast_is_sorted_ring,
    fast_lcc_weakly_connected,
    fast_lrl_links_live,
    fast_phase_predicates,
)
from repro.sim.fast.soa import SoAState

__all__ = [
    "FastEngine",
    "FastSimulator",
    "ShardedEngine",
    "SoAState",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
]
