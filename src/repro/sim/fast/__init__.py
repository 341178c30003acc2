"""``repro.sim.fast`` — the batched struct-of-arrays simulation engine.

:class:`FastEngine` runs vectorized synchronous rounds with batched RNG
over one struct-of-arrays state (docs/PERF.md); it is the fast engine for
large-N experiments (E22).  It plugs into :class:`FastSimulator`, which
shares the round-loop drivers with the reference
:class:`~repro.sim.engine.Simulator`.  Built with ``wire=True``, the
batched engine holds a chaos wire stage as ``engine.wire``
(docs/CHAOS.md).  The draw-for-draw twin of the reference
round is a test oracle: ``tests/reference_mirror.py``.
"""

from repro.sim.fast.batched import FastEngine
from repro.sim.fast.engine import FastSimulator
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
    "SoAState",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
]
