"""Phase predicates of the self-stabilization analysis.

The proof of Theorem 4.1 proceeds through four phases; these predicates
decide, for a live network, whether each phase's target invariant holds:

* Phase 1 (Theorem 4.3) — LCC weakly connected;
* Phase 2 (Theorem 4.9, Definition 4.8) — LCP solves the sorted-list
  problem;
* Phase 3 (Theorem 4.18, Definition 4.17) — RCP solves the sorted-ring
  problem;
* Phase 4 (Theorem 4.22) — CP is a 1-D small-world network.  Phase 4's
  defining property (harmonic long-range links) is *distributional*, so the
  pointwise predicate checked here is the structural part: the sorted ring
  holds and every long-range link points at an existing node.  The
  distributional part is validated statistically by experiment E4.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

from repro.core.state import NodeState
from repro.graphs.views import cc_graph, lcc_graph
from repro.ids import NEG_INF, POS_INF
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only (host imports the engines)
    from repro.sim.host import Host

__all__ = [
    "is_sorted_list",
    "is_sorted_ring",
    "lcc_weakly_connected",
    "cc_components",
    "cc_weakly_connected",
    "lrl_links_live",
    "phase_predicates",
    "PHASE_CONNECTED",
    "PHASE_SORTED_LIST",
    "PHASE_SORTED_RING",
    "PHASE_SMALL_WORLD",
]

PHASE_CONNECTED = "phase1_lcc_connected"
PHASE_SORTED_LIST = "phase2_sorted_list"
PHASE_SORTED_RING = "phase3_sorted_ring"
PHASE_SMALL_WORLD = "phase4_small_world"


def is_sorted_list(states: Mapping[float, NodeState]) -> bool:
    """Definition 4.8: every consecutive pair is mutually linked.

    ``∀ a < b consecutive: a.r = b ∧ b.l = a``, the minimum has ``l = −∞``
    and the maximum has ``r = +∞``.  A single node forms a trivial sorted
    list; an empty network does not (there is nothing to sort).
    """
    if not states:
        return False
    ordered = sorted(states)
    first, last = ordered[0], ordered[-1]
    if states[first].l != NEG_INF or states[last].r != POS_INF:
        return False
    for a, b in zip(ordered, ordered[1:]):
        if states[a].r != b or states[b].l != a:
            return False
    return True


def is_sorted_ring(states: Mapping[float, NodeState]) -> bool:
    """Definition 4.17: sorted list plus mutual extremal ring edges.

    ``min.ring = max ∧ max.ring = min``.  With a single node the ring
    degenerates; we require its ring edge to be unset or self-directed.
    """
    if not states:
        return False
    if not is_sorted_list(states):
        return False
    ordered = sorted(states)
    lo, hi = states[ordered[0]], states[ordered[-1]]
    if len(ordered) == 1:
        return lo.ring is None or lo.ring == lo.id
    return lo.ring == hi.id and hi.ring == lo.id


def lcc_weakly_connected(network: Network) -> bool:
    """Phase 1: the list channel connectivity graph is weakly connected."""
    import networkx as nx

    if len(network) == 0:
        return False
    g = lcc_graph(network)
    return nx.is_weakly_connected(g)


def cc_components(network: Network, *, live_only: bool = True) -> int:
    """Weak-component count of the channel connectivity graph (CC).

    Stored links plus every in-flight identifier (retransmit buffers
    included); 0 for an empty network.
    """
    import networkx as nx

    if len(network) == 0:
        return 0
    return nx.number_weakly_connected_components(
        cc_graph(network, live_only=live_only)
    )


def cc_weakly_connected(network: Network) -> bool:
    """Whether the full channel connectivity graph is weakly connected.

    This is the paper's *assumption* on the initial state; experiments
    assert it on every generated initial configuration.
    """
    return cc_components(network, live_only=False) == 1


def lrl_links_live(network: Network) -> bool:
    """Every long-range link points at an existing node (or its owner)."""
    return all(state.lrl in network for state in network.states().values())


def phase_predicates(
    *, include_phase4: bool = True
) -> dict[str, Callable[[Host], bool]]:
    """The standard phase-predicate mapping for ``run_phases``.

    Each predicate asks the host (:class:`repro.sim.host.Host`) itself, so
    one mapping serves every engine and the recorders compare key-for-key.
    """
    preds: dict[str, Callable[[Host], bool]] = {
        PHASE_CONNECTED: lambda host: host.lcc_weakly_connected(),
        PHASE_SORTED_LIST: lambda host: host.is_sorted_list(),
        PHASE_SORTED_RING: lambda host: host.is_sorted_ring(),
    }
    if include_phase4:
        preds[PHASE_SMALL_WORLD] = lambda host: (
            host.is_sorted_ring() and host.lrl_links_live()
        )
    return preds
