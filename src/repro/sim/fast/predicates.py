"""Vectorized phase predicates over the fast engines.

Array counterparts of :mod:`repro.graphs.predicates`, evaluated directly on
a fast engine's struct-of-arrays state — no ``NodeState`` objects, no
``networkx`` graphs.  The phase *names* are re-exported unchanged so
recorders produced by either engine compare key-for-key.

Connectivity is a vectorized union–find (:func:`weak_component_count`)
over the same edge set as the reference LCC view (stored ``l``/``r``
links plus in-flight ``lin`` messages, Definition 4.2), including edges
to dangling identifiers: the proof's graphs are over identifiers, and
during churn a shared dangling identifier can be exactly what holds two
components together.

:class:`SoAHost` is how the SoA host classes (``FastEngine``, wired or
not, and ``ShardedEngine``) answer the membership, health, in-flight and
state-fault calls of the host surface (:class:`repro.sim.host.Host`):
one delegating method per call, over the
engine's batch writers, its one in-flight reader, the functions here and
their siblings in :mod:`repro.sim.fast.chaos`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import Message
from repro.graphs.predicates import (
    PHASE_CONNECTED,
    PHASE_SMALL_WORLD,
    PHASE_SORTED_LIST,
    PHASE_SORTED_RING,
    phase_predicates,
)
from repro.ids import NEG_INF, POS_INF
from repro.sim.fast.buffers import LIN, RESLRL, TYPE_OF_CODE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import StateTuple
    from repro.sim.fast.soa import SoAState

__all__ = [
    "SoAHost",
    "fast_is_sorted_list",
    "fast_is_sorted_ring",
    "fast_lcc_weakly_connected",
    "fast_lrl_links_live",
    "fast_phase_predicates",
    "PHASE_CONNECTED",
    "PHASE_SORTED_LIST",
    "PHASE_SORTED_RING",
    "PHASE_SMALL_WORLD",
    "weak_component_count",
]

#: One mapping serves every host; the old name stays for its importers.
fast_phase_predicates = phase_predicates


class SoAHost:
    """Membership, health, in-flight set and state faults of the host
    surface, over the engine's one :class:`~repro.sim.fast.soa.SoAState`
    and its one in-flight reader.

    Mixed into ``FastEngine`` and ``ShardedEngine``.
    Each answers "what is in flight" once — its wire's share
    included, where it holds one — with
    ``in_flight_rows(code=None)``: the ``(dest, tcode, a, b, c)`` columns
    of every undelivered protocol message of type *code* (every type when
    ``None``), the set ``Network.in_flight`` names; ``b``/``c`` hold the
    ``0.0`` filler off ``reslrl`` rows.  Everything else in flight is
    derived here.  The predicates are named at call time, never bound as
    class attributes: the benchmark suite's tracer wraps them on this
    module.  The :mod:`repro.sim.fast.chaos` siblings are imported per
    call — that package imports the engines, which import this class.
    """

    #: What the functions behind these calls read off the engine.
    soa: SoAState
    in_flight_rows: Callable[..., tuple[np.ndarray, ...]]
    join_batch: Callable[[np.ndarray, np.ndarray], int]
    leave_batch: Callable[[np.ndarray], int]

    def join(self, new_id: float, contact_id: float) -> None:
        """Add a fresh node knowing only *contact_id* (paper §IV-G): a
        join batch of one, with ``repro.churn.join.join_node``'s checks."""
        self.join_batch(
            np.array([new_id], dtype=np.float64),
            np.array([contact_id], dtype=np.float64),
        )

    def leave(self, node_id: float) -> None:
        """Remove *node_id*, purging every reference to it (paper §IV-G):
        a departure batch of one, as ``repro.churn.leave.leave_node``."""
        self.leave_batch(np.array([node_id], dtype=np.float64))

    def __contains__(self, node_id: float) -> bool:
        return node_id in self.soa

    def __len__(self) -> int:
        return self.soa.n_live

    @property
    def ids(self) -> list[float]:
        """All current node identifiers, sorted ascending."""
        return self.soa.live_ids_list()

    def state_snapshot(self) -> dict[float, StateTuple]:
        """Canonical per-node snapshot (differential-harness contract)."""
        return self.soa.snapshot()

    @property
    def in_flight(self) -> list[tuple[float, Message]]:
        """Every undelivered message as ``(destination, message)`` pairs,
        in ``in_flight_rows`` order (as ``Network.in_flight``)."""
        dest, tcode, a, b, c = self.in_flight_rows()
        return [
            (d, Message(TYPE_OF_CODE[t], (x, y, z) if t == RESLRL else (x,)))
            for d, t, x, y, z in zip(
                dest.tolist(), tcode.tolist(), a.tolist(), b.tolist(), c.tolist()
            )
        ]

    def in_flight_id_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dest, payload_id)`` over every in-flight payload identifier
        (a ``reslrl`` row names three): the channel half of the CC graph."""
        dest, tcode, a, b, c = self.in_flight_rows()
        lrl = tcode == RESLRL
        return (
            np.concatenate((dest, dest[lrl], dest[lrl])),
            np.concatenate((a, b[lrl], c[lrl])),
        )

    def lcc_weakly_connected(self) -> bool:
        return fast_lcc_weakly_connected(self)

    def is_sorted_list(self) -> bool:
        return fast_is_sorted_list(self)

    def is_sorted_ring(self) -> bool:
        return fast_is_sorted_ring(self)

    def lrl_links_live(self) -> bool:
        return fast_lrl_links_live(self)

    def cc_components(self, *, live_only: bool = True) -> int:
        from repro.sim.fast.chaos.monitors import engine_cc_components

        return engine_cc_components(self, live_only=live_only)

    def check_invariants(self, *, check_membership: bool = True) -> None:
        from repro.sim.fast.chaos.monitors import engine_check_invariants

        engine_check_invariants(self, check_membership=check_membership)

    def corrupt_random_pointers(
        self,
        fraction: float,
        rng: np.random.Generator,
        *,
        corrupt_list_links: bool = True,
    ) -> int:
        from repro.sim.fast.chaos.faults import corrupt_random_pointers_engine

        return corrupt_random_pointers_engine(
            self, fraction, rng, corrupt_list_links=corrupt_list_links
        )

    def crash_restart(self, node_ids: Sequence[float] | np.ndarray) -> None:
        from repro.sim.fast.chaos.faults import crash_restart_many_engine

        crash_restart_many_engine(self, np.asarray(node_ids, dtype=np.float64))


def fast_is_sorted_list(engine: SoAHost) -> bool:
    """Definition 4.8 over SoA state: consecutive pairs mutually linked."""
    ids, idx = engine.soa.sorted_live()
    if len(ids) == 0:
        return False
    l = engine.soa.l[idx]
    r = engine.soa.r[idx]
    if l[0] != NEG_INF or r[-1] != POS_INF:
        return False
    return bool(np.all(r[:-1] == ids[1:]) and np.all(l[1:] == ids[:-1]))


def fast_is_sorted_ring(engine: SoAHost) -> bool:
    """Definition 4.17 over SoA state: sorted list + mutual extremal ring."""
    if not fast_is_sorted_list(engine):
        return False
    ids, idx = engine.soa.sorted_live()
    ring = engine.soa.ring[idx]
    if len(ids) == 1:
        return bool(np.isnan(ring[0]) or ring[0] == ids[0])
    return bool(ring[0] == ids[-1] and ring[-1] == ids[0])


def fast_lcc_weakly_connected(engine: SoAHost) -> bool:
    """Phase 1 over SoA state: the LCC graph is weakly connected."""
    ids, idx = engine.soa.sorted_live()
    if len(ids) == 0:
        return False
    soa = engine.soa
    sources = []
    targets = []
    for stored in (soa.l[idx], soa.r[idx]):
        real = np.isfinite(stored)
        sources.append(ids[real])
        targets.append(stored[real])
    dest, _, payload, _, _ = engine.in_flight_rows(LIN)
    sources.append(dest)
    targets.append(payload)
    u = np.concatenate(sources)
    v = np.concatenate(targets)
    return weak_component_count(ids, u, v) == 1


def weak_component_count(ids: np.ndarray, u: np.ndarray, v: np.ndarray) -> int:
    """Weak-component count of the graph with edges ``u[i] -> v[i]``.

    Self-loops are dropped.  The nodes are *ids* plus every edge endpoint
    (dangling identifiers are graph nodes too, as in repro.graphs.views),
    labelled by their rank in that sorted universe.
    """
    keep = u != v
    u, v = u[keep], v[keep]
    universe = np.unique(np.concatenate((ids, u, v)))
    m = len(universe)
    if m <= 1:
        return m
    label = np.int32 if m < 2**31 else np.int64
    a = np.searchsorted(universe, u).astype(label)
    b = np.searchsorted(universe, v).astype(label)
    del universe, u, v  # the labels are all that is read from here on
    parent, _ = _weak_roots(m, a, b)
    return int(np.count_nonzero(parent == np.arange(m, dtype=label)))


def _weak_roots(m: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Union–find over the edges ``a[i] — b[i]`` between labels ``0..m-1``:
    ``(parent, passes)``, where ``parent[x] == x`` exactly at one root per
    weak component, the smallest label in it.

    Every edge joins two roots at the start of a pass, which then
    - hooks each root under the smallest root it shares an edge with
      (``parent`` only ever falls, so the hooks form a forest);
    - pointer-jumps until each root just hooked points at its new root
      (when the edges are few, only those roots jump: a node hooked in an
      earlier pass keeps its old pointer, which still leads into its
      tree, and only roots are read again);
    - moves every edge onto its endpoints' roots and drops those that now
      lie inside one tree.
    A root that keeps an edge and hooks nowhere is a local minimum: its
    neighbours all hook to roots no larger than it.  If none hooked under
    it, it hooks in the next pass, so the roots carrying edges halve at
    least every two passes.
    """
    parent = np.arange(m, dtype=a.dtype)
    passes = 0
    while len(a):
        passes += 1
        hooked = np.maximum(a, b)
        np.minimum.at(parent, hooked, np.minimum(a, b))
        # A jump over every node is one gather of m; over the hooked roots,
        # two gathers and a scatter per edge.  Take the cheaper.
        nodes: np.ndarray | slice = hooked if 2 * len(hooked) < m else slice(None)
        while True:
            up = parent[nodes]
            jumped = parent[up]
            if np.array_equal(up, jumped):
                break
            parent[nodes] = jumped
        a, b = parent[a], parent[b]
        keep = a != b
        a, b = a[keep], b[keep]
    return parent, passes


def fast_lrl_links_live(engine: SoAHost) -> bool:
    """Every long-range link points at an existing node (or its owner)."""
    _, idx = engine.soa.sorted_live()
    if len(idx) == 0:
        return True
    _, found = engine.soa.lookup(engine.soa.lrl[idx])
    return bool(found.all())
