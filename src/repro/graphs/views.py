"""Extract the proof's connectivity graphs from a live network.

All views return directed :class:`networkx.DiGraph` instances whose nodes
are the current node identifiers.  Stored links are edges from the storing
node to the stored identifier; message-implied links are edges from the
message's *destination* to every identifier in the payload ("there are also
temporary links that exist if u receives v's identifier in a message",
paper §II-A).

Edges to identifiers that no longer exist in the network (possible during
churn) are included — the proof's graphs are over identifiers, and dangling
references are precisely what self-stabilization must tolerate.  Callers
that want only live nodes can pass ``live_only=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.messages import MessageType
from repro.ids import is_real
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

__all__ = [
    "cp_graph",
    "cc_graph",
    "lcp_graph",
    "lcc_graph",
    "rcp_graph",
    "rcc_graph",
]

#: Message types whose payload identifiers count as LCC links (Definition
#: 4.2: LCC is "formed by messages of type lin and the stored links to p.r
#: and p.l").
_LIST_TYPES = frozenset({MessageType.LIN})

#: Message types whose payload identifiers count for RCC beyond LCC.
_RING_TYPES = frozenset({MessageType.RING})


def _base_graph(network: Network) -> nx.DiGraph:
    import networkx as nx

    g = nx.DiGraph()
    g.add_nodes_from(network.ids)
    return g


def _maybe_add(g: nx.DiGraph, u: float, v: float, live_only: bool, network: Network) -> None:
    if not is_real(v):
        return
    if live_only and v not in network:
        return
    if u != v:
        g.add_edge(u, v)


def lcp_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """List node connectivity: the stored ``l``/``r`` links."""
    g = _base_graph(network)
    for nid, state in network.states().items():
        _maybe_add(g, nid, state.l, live_only, network)
        _maybe_add(g, nid, state.r, live_only, network)
    return g


def lcc_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """List channel connectivity: LCP plus in-flight ``lin`` messages."""
    g = lcp_graph(network, live_only=live_only)
    for dest, message in network.in_flight:
        if message.type in _LIST_TYPES:
            for payload in message.ids:
                _maybe_add(g, dest, payload, live_only, network)
    return g


def rcp_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """Ring node connectivity: LCP plus the stored ring links."""
    g = lcp_graph(network, live_only=live_only)
    for nid, state in network.states().items():
        if state.ring is not None:
            _maybe_add(g, nid, state.ring, live_only, network)
    return g


def rcc_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """Ring channel connectivity: LCC + stored ring links + ``ring`` messages."""
    g = lcc_graph(network, live_only=live_only)
    for nid, state in network.states().items():
        if state.ring is not None:
            _maybe_add(g, nid, state.ring, live_only, network)
    for dest, message in network.in_flight:
        if message.type in _RING_TYPES:
            for payload in message.ids:
                _maybe_add(g, dest, payload, live_only, network)
    return g


def cp_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """Node connectivity: every stored link (``l``, ``r``, ``lrl``, ``ring``)."""
    g = rcp_graph(network, live_only=live_only)
    for nid, state in network.states().items():
        _maybe_add(g, nid, state.lrl, live_only, network)
    return g


def cc_graph(network: Network, *, live_only: bool = False) -> nx.DiGraph:
    """Channel connectivity: all stored links and all in-flight identifiers."""
    g = cp_graph(network, live_only=live_only)
    for dest, message in network.in_flight:
        for payload in message.ids:
            _maybe_add(g, dest, payload, live_only, network)
    return g
