"""Routing on the stabilized small-world overlay.

* :mod:`repro.routing.greedy` — Kleinberg-style greedy routing over the
  ring plus long-range links, the operation whose polylogarithmic hop count
  is the entire point of the small-world construction (Fact 4.21).  It
  reads a network's links through the same :class:`repro.serve.routing.RouteView`
  as the probe walker.
* :mod:`repro.routing.stats` — hop-count aggregation by distance.

The paper's probing rule (Algorithms 5/6, Lemma 4.23) has one walker,
:func:`repro.serve.routing.route_batch`; experiment E3 runs it over
:meth:`RouteView.from_ranks`.  Greedy keeps its own kernel: it takes the
ring-distance minimum over both ring neighbors and the shortcut, with
wrap-around, and always arrives.  Both kernels are numpy-vectorized over
query batches: one while-loop over *hops*, never over queries (DESIGN.md §5).
"""

from repro.routing.greedy import greedy_route_hops, greedy_route_states
from repro.routing.stats import hops_by_distance

__all__ = [
    "greedy_route_hops",
    "greedy_route_states",
    "hops_by_distance",
]
