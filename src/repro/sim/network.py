"""The simulated overlay network: processes, channels, and message routing.

A :class:`Network` owns the set of protocol nodes and one :class:`Channel`
per node, stages outgoing messages (messages sent during a round become
receivable in the next round — this is how the simulator keeps every
execution finite per round while remaining a legal schedule of the paper's
asynchronous model), and maintains the :class:`~repro.sim.metrics.MessageStats`
counters used by the efficiency experiments.

Churn (experiments E6/E7) is supported first-class: nodes can join and
leave at any round boundary; messages addressed to departed nodes are
dropped, which models the paper's "when a node u leaves the network, it
disappears from it and the connections it had to and from other nodes also
disappear".
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import Message
from repro.ids import require_id
from repro.sim.channel import Channel
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.node import Node
    from repro.core.state import NodeState, StateTuple

__all__ = ["Network"]

#: The send callback handed to protocol handlers: ``send(dest, message)``.
SendFn = Callable[[float, Message], None]


class Network:
    """The set of simulated processes and their channels."""

    def __init__(
        self,
        nodes: Iterable["Node"] = (),
        *,
        dedup: bool = True,
        keep_history: bool = False,
    ) -> None:
        self._nodes: dict[float, "Node"] = {}
        self._channels: dict[float, Channel] = {}
        self._senders: dict[float, SendFn] = {}
        self._staging: list[tuple[float, Message]] = []
        # Sorted-id cache: the synchronous scheduler reads ``ids`` every
        # round, and re-sorting n identifiers per round is O(n log n) of
        # pure waste while membership is unchanged.  Invalidated by
        # add_node/remove_node.
        self._ids_cache: list[float] | None = None
        self._dedup = dedup
        self.stats = MessageStats(keep_history=keep_history)
        #: Messages sent to identifiers that no longer exist (dropped).
        self.dropped = 0
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_node(self, node: "Node") -> None:
        """Add *node* to the network with an empty channel."""
        nid = require_id(node.state.id, what="node id")
        if nid in self._nodes:
            raise ValueError(f"duplicate node id {nid!r}")
        self._nodes[nid] = node
        self._channels[nid] = Channel(dedup=self._dedup)
        self._ids_cache = None

    def remove_node(self, node_id: float) -> "Node":
        """Remove the node with *node_id*; its pending messages are lost."""
        if node_id not in self._nodes:
            raise KeyError(f"no node with id {node_id!r}")
        node = self._nodes.pop(node_id)
        self._channels.pop(node_id).clear()
        self._ids_cache = None
        # Evict the departed node's bound sender: without this, sustained
        # churn (E17) leaks one closure per node that ever lived.
        self._senders.pop(node_id, None)
        # Staged messages addressed to the departed node are dropped too.
        before = len(self._staging)
        self._staging = [(d, m) for d, m in self._staging if d != node_id]
        self.dropped += before - len(self._staging)
        return node

    def __contains__(self, node_id: float) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator["Node"]:
        return iter(self._nodes.values())

    @property
    def ids(self) -> list[float]:
        """All current node identifiers, sorted ascending.

        The list is cached until membership changes; callers must treat it
        as read-only (the schedulers only index into it).
        """
        if self._ids_cache is None:
            self._ids_cache = sorted(self._nodes)
        return self._ids_cache

    def node(self, node_id: float) -> "Node":
        """Return the node with the given identifier."""
        return self._nodes[node_id]

    def channel(self, node_id: float) -> Channel:
        """Return the channel of the node with the given identifier."""
        return self._channels[node_id]

    def states(self) -> dict[float, "NodeState"]:
        """Map every node id to its (live, not copied) protocol state."""
        return {nid: node.state for nid, node in self._nodes.items()}

    def state_snapshot(self) -> "dict[float, StateTuple]":
        """Canonical per-node snapshot (:data:`repro.core.state.StateTuple`).

        The differential-equivalence harness (docs/PERF.md) compares this
        against :meth:`repro.sim.fast.FastSimulator.state_snapshot` — the
        two engines agree on a round iff the dicts are equal.
        """
        from repro.core.state import snapshot_states

        return snapshot_states(self.states())

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dest: float, message: Message) -> None:
        """Stage *message* for delivery to *dest* at the next flush.

        Messages to unknown identifiers are counted and dropped — in a live
        system they would sit in a dead host's mailbox; the paper's model
        only ever addresses existing identifiers once stabilized, and during
        churn the drop models the disappearance of the departed node.
        """
        self.stats.record_send(message.type)
        self._enqueue(dest, message)

    def send_from(self, origin: float, dest: float, message: Message) -> None:
        """Stage *message* on behalf of the node *origin*.

        The base network ignores the origin — the paper's channels carry no
        sender field.  Transport-layer subclasses (the guarded-handoff
        channel of :mod:`repro.sim.chaos`) use it to route acknowledgements
        back to the sender.
        """
        self.send(dest, message)

    def stage(self, dest: float, message: Message) -> None:
        """Stage *message* without counting it as a send.

        Transport-level entry point: engine exports
        (:meth:`repro.sim.fast.FastSimulator.to_network`) re-stage pending
        messages that were already counted when originally sent, so staging
        them again must not inflate the send statistics.
        """
        self._enqueue(dest, message)

    def sender(self, origin: float) -> SendFn:
        """A send callback bound to *origin* (cached per node).

        Schedulers pass this to protocol handlers so transports that need a
        sender identity get one without changing the handler signature.
        """
        try:
            return self._senders[origin]
        except KeyError:
            bound: SendFn = partial(self.send_from, origin)
            self._senders[origin] = bound
            return bound

    def _enqueue(self, dest: float, message: Message) -> None:
        """Place *message* in staging (or count it dropped), without
        touching the send counters — the transport-layer hook subclasses
        override to interpose on the wire."""
        if dest in self._nodes:
            self._staging.append((dest, message))
        else:
            self.dropped += 1

    def flush(self) -> int:
        """Deliver every staged message into its destination channel.

        Returns the number of messages that actually entered a channel
        (coalesced duplicates are not counted).
        """
        delivered = 0
        staged, self._staging = self._staging, []
        for dest, message in staged:
            channel = self._channels.get(dest)
            if channel is None:
                self.dropped += 1
                continue
            if channel.put(message):
                delivered += 1
        return delivered

    def purge_identifier(self, node_id: float) -> int:
        """Remove every in-flight message that mentions *node_id*.

        Models a clean departure (paper §IV-G): "the connections it had to
        and from other nodes also disappear" — which includes identifier
        copies travelling in messages, since each such copy is a temporary
        link of the CC graph.  Without this purge, in-flight ``lin``
        messages would re-teach the departed identifier to its former
        neighbors forever (there is no liveness check in the model to ever
        remove it again).  Returns the number of messages purged.
        """
        purged = 0
        kept = []
        for dest, message in self._staging:
            if node_id in message.ids:
                purged += 1
            else:
                kept.append((dest, message))
        self._staging = kept
        for channel in self._channels.values():
            purged += channel.remove_matching(lambda m: node_id in m.ids)
        return purged

    @property
    def staged_count(self) -> int:
        """Number of messages staged but not yet flushed."""
        return len(self._staging)

    @property
    def in_flight(self) -> list[tuple[float, Message]]:
        """Every undelivered message as ``(destination, message)`` pairs.

        Includes both staged messages and messages already sitting in
        channels; this is what the channel-connectivity graphs CC/LCC/RCC
        (Definition 4.2) read.
        """
        out = list(self._staging)
        for nid, channel in self._channels.items():
            out.extend((nid, m) for m in channel.peek_all())
        return out

    def pending_total(self) -> int:
        """Total undelivered messages (staged + in channels)."""
        return len(self._staging) + sum(len(c) for c in self._channels.values())

    # ------------------------------------------------------------------
    # Host surface (:class:`repro.sim.host.Host`): each call answers from
    # the module that owns its body over node objects.  Imported per call
    # — those modules import this one.
    # ------------------------------------------------------------------
    def join(self, new_id: float, contact_id: float) -> None:
        """Add a fresh node knowing only *contact_id* (paper §IV-G)."""
        from repro.churn.join import join_node

        join_node(self, new_id, contact_id)

    def leave(self, node_id: float) -> None:
        """Remove *node_id*, purging every reference to it (paper §IV-G)."""
        from repro.churn.leave import leave_node

        leave_node(self, node_id)

    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int:
        """The scalar joins in ascending new-id order (the batch contract
        ``FastEngine.join_batch`` is defined against)."""
        for k in np.argsort(new_ids, kind="stable").tolist():
            self.join(float(new_ids[k]), float(contact_ids[k]))
        return len(new_ids)

    def leave_batch(self, node_ids: np.ndarray) -> int:
        """The scalar departures in ascending id order."""
        for nid in np.sort(np.asarray(node_ids, dtype=np.float64)).tolist():
            self.leave(nid)
        return len(node_ids)

    def lcc_weakly_connected(self) -> bool:
        """Phase 1 (Theorem 4.3): the LCC graph is weakly connected."""
        from repro.graphs.predicates import lcc_weakly_connected

        return lcc_weakly_connected(self)

    def is_sorted_list(self) -> bool:
        """Phase 2 (Definition 4.8)."""
        from repro.graphs.predicates import is_sorted_list

        return is_sorted_list(self.states())

    def is_sorted_ring(self) -> bool:
        """Phase 3 (Definition 4.17)."""
        from repro.graphs.predicates import is_sorted_ring

        return is_sorted_ring(self.states())

    def lrl_links_live(self) -> bool:
        """Every long-range link points at an existing node."""
        from repro.graphs.predicates import lrl_links_live

        return lrl_links_live(self)

    def cc_components(self, *, live_only: bool = True) -> int:
        """Weak components of the channel-connectivity graph (0 if empty)."""
        from repro.graphs.predicates import cc_components

        return cc_components(self, live_only=live_only)

    def check_invariants(self, *, check_membership: bool = True) -> None:
        """Assert the model invariants of §III; raise on violation."""
        from repro.sim.invariants import check_network_invariants

        check_network_invariants(self, check_membership=check_membership)

    def corrupt_random_pointers(
        self,
        fraction: float,
        rng: np.random.Generator,
        *,
        corrupt_list_links: bool = True,
    ) -> int:
        """Scramble the pointers of a random node *fraction*; returns count."""
        from repro.sim.faults import corrupt_random_pointers

        return corrupt_random_pointers(
            self, fraction, rng, corrupt_list_links=corrupt_list_links
        )

    def crash_restart(self, node_ids: Sequence[float] | np.ndarray) -> None:
        """Reset every node in *node_ids* to a blank state (id preserved)."""
        from repro.sim.faults import crash_restart

        for nid in node_ids:
            crash_restart(self, nid)

    def __repr__(self) -> str:
        return (
            f"Network(n={len(self._nodes)}, pending={self.pending_total()}, "
            f"sent={self.stats.total})"
        )
