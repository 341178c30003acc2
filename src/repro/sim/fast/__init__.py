"""``repro.sim.fast`` — the batched struct-of-arrays simulation engine.

Two engines over one state representation (docs/PERF.md):

* :class:`FastEngine` — vectorized synchronous rounds, batched RNG; the
  fast default for large-N experiments (E22).
* :class:`MirrorEngine` — scalar, draw-for-draw twin of the reference
  engine; the oracle of the differential-equivalence harness.

Both plug into :class:`FastSimulator`, which shares the round-loop drivers
with the reference :class:`~repro.sim.engine.Simulator`.  Built with
``wire=True``, either holds a chaos wire stage as ``engine.wire``: the
batched :class:`~repro.sim.fast.chaos.batched.BatchedWire` or the
reference's own :class:`~repro.sim.chaos.network.ScalarWire`
(docs/CHAOS.md).
"""

from repro.sim.fast.batched import FastEngine
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.mirror import MirrorEngine
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
    "MirrorEngine",
    "ShardedEngine",
    "SoAState",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
]
