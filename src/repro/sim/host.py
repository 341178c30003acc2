"""The host surface: what every simulated overlay answers, built one way.

Everything the paper proves — the invariant chain of Theorems 4.3 → 4.9 →
4.18 → 4.22, the model invariants of §III, join and leave of §IV-G — is a
statement about *the overlay*, never about how it is simulated.  A driver
therefore holds a simulator and talks to ``sim.host``: the reference
:class:`~repro.sim.network.Network` or a fast engine, which answer the
same calls (:class:`Host`).  :func:`make_simulator` is the one place an
engine name becomes classes.

Each call has one body per data representation — node objects
(:mod:`repro.graphs.predicates`, :mod:`repro.sim.invariants`,
:mod:`repro.sim.faults`, :mod:`repro.churn`) and SoA columns
(:mod:`repro.sim.fast.predicates`, :mod:`repro.sim.fast.chaos`) — never
one per caller.  Every host answers every call; none answers with an
``AttributeError`` or a silent no-op (``tests/test_host_surface.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from repro.core.protocol import ProtocolConfig, build_network
from repro.core.state import NodeState, StateTuple
from repro.sim.engine import BaseSimulator, Simulator
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.soa import SoAState
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import Message
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.chaos.network import Wire

__all__ = ["ENGINES", "Host", "make_simulator"]


class Host(Protocol):
    """One simulated overlay: membership, health, state faults, wire."""

    stats: MessageStats
    #: Messages sent to identifiers that no longer exist.
    dropped: int
    #: The wire stage (``make_simulator(wire=True)``): a ``ScalarWire`` on
    #: the node-object host, a ``BatchedWire`` on the batched one; ``None``
    #: on a wireless host.
    @property
    def wire(self) -> Wire[Any] | None: ...

    @property
    def ids(self) -> list[float]: ...
    def __len__(self) -> int: ...
    def __contains__(self, node_id: float) -> bool: ...
    def state_snapshot(self) -> dict[float, StateTuple]: ...
    def pending_total(self) -> int: ...
    #: Every undelivered protocol message as ``(dest, message)`` pairs —
    #: staged, queued, on the wire, in the retransmit buffer: the channel
    #: half of the CC/LCC graphs (Definition 4.2).
    @property
    def in_flight(self) -> list[tuple[float, Message]]: ...

    # Membership (§IV-G); the batch forms land as the scalar ones applied
    # in ascending id order.
    def join(self, new_id: float, contact_id: float) -> None: ...
    def leave(self, node_id: float) -> None: ...
    def join_batch(self, new_ids: np.ndarray, contact_ids: np.ndarray) -> int: ...
    def leave_batch(self, node_ids: np.ndarray) -> int: ...

    # Health: the four phase targets, the weak-component count of the
    # channel-connectivity graph (0 when empty), the §III invariants.
    def lcc_weakly_connected(self) -> bool: ...
    def is_sorted_list(self) -> bool: ...
    def is_sorted_ring(self) -> bool: ...
    def lrl_links_live(self) -> bool: ...
    def cc_components(self, *, live_only: bool = True) -> int: ...
    def check_invariants(self, *, check_membership: bool = True) -> None: ...

    # State faults (draw-for-draw twins across the representations).
    def corrupt_random_pointers(
        self,
        fraction: float,
        rng: np.random.Generator,
        *,
        corrupt_list_links: bool = True,
    ) -> int: ...
    def crash_restart(self, node_ids: Sequence[float] | np.ndarray) -> None: ...


#: The engines a driver's ``engine=`` accepts.
ENGINES = ("reference", "fast")


def make_simulator(
    states: Iterable[NodeState] | SoAState,
    config: ProtocolConfig | None = None,
    *,
    engine: str = "reference",
    rng: np.random.Generator | int | None = None,
    wire: bool = False,
    guard: "GuardPolicy | None" = None,
    **engine_options: Any,
) -> BaseSimulator[Host]:
    """A simulator over *states* on the named *engine* (see :data:`ENGINES`).

    *states* is a list of reference states or an id-sorted
    :class:`~repro.sim.fast.soa.SoAState`; every engine runs over its own
    copy (the reference engine over ``states.to_states()``), so the
    caller's object is never aliased and one start can seed several
    simulators.  The fast engine takes an ``SoAState`` without a
    ``NodeState`` ever existing.

    ``wire=True`` (implied by a *guard*) puts the fault-injectable chaos
    wire under the host as ``host.wire`` — a ``ScalarWire`` on the
    reference engine, a ``BatchedWire`` on the fast one.
    *engine_options* (``keep_history``, on the reference engine
    ``dedup``, and on the fast engine ``sanitize``) go to
    :func:`build_network` or :meth:`FastSimulator.from_states` unchanged.
    ``dedup=False`` gives the reference engine the paper's multiset
    channels; the fast engine always coalesces identical pending messages
    (DESIGN.md §4.7) and takes no ``dedup``, so passing one raises
    ``TypeError``.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    if engine == "reference":
        if isinstance(states, SoAState):
            states = states.to_states()
        network = build_network(states, config, wire=wire, guard=guard, **engine_options)
        return Simulator(network, rng)
    return FastSimulator.from_states(
        states, config, mode="batched", wire=wire, guard=guard, rng=rng,
        **engine_options,
    )
