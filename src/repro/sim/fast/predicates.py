"""Vectorized phase predicates over the fast engines.

Array counterparts of :mod:`repro.graphs.predicates`, evaluated directly on
a fast engine's struct-of-arrays state — no ``NodeState`` objects, no
``networkx`` graphs.  The phase *names* are re-exported unchanged so
recorders produced by either engine compare key-for-key.

Connectivity uses ``scipy.sparse.csgraph`` over the same edge set as the
reference LCC view (stored ``l``/``r`` links plus in-flight ``lin``
messages, Definition 4.2), including edges to dangling identifiers: the
proof's graphs are over identifiers, and during churn a shared dangling
identifier can be exactly what holds two components together.

:class:`SoAHost` is how the three SoA engines answer the health and
state-fault calls of the host surface (:class:`repro.sim.host.Host`): one
delegating method per call, over the functions here and their siblings in
:mod:`repro.sim.fast.chaos`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.graphs.predicates import (
    PHASE_CONNECTED,
    PHASE_SMALL_WORLD,
    PHASE_SORTED_LIST,
    PHASE_SORTED_RING,
    phase_predicates,
)
from repro.ids import NEG_INF, POS_INF
from repro.sim.fast.buffers import LIN

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
]

#: One mapping serves every host; the old name stays for its importers.
fast_phase_predicates = phase_predicates


class SoAHost:
    """Membership reads, health and state faults of the host surface,
    over the engine's one :class:`~repro.sim.fast.soa.SoAState`.

    Mixed into ``FastEngine``, ``MirrorEngine`` and ``ShardedEngine``.  The
    predicates are named at call time, never bound as class attributes:
    the benchmark suite's tracer wraps them on this module.  The
    :mod:`repro.sim.fast.chaos` siblings are imported per call — that
    package imports the engines, which import this class.
    """

    #: What the functions behind these calls read off the engine.
    soa: SoAState
    inflight_pairs: Callable[[int], tuple[np.ndarray, np.ndarray]]
    in_flight_id_pairs: Callable[[], tuple[np.ndarray, np.ndarray]]

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
    dest, payload = engine.inflight_pairs(LIN)
    sources.append(dest)
    targets.append(payload)
    u = np.concatenate(sources)
    v = np.concatenate(targets)
    keep = u != v
    u, v = u[keep], v[keep]
    # Universe: every live id plus every referenced identifier (dangling
    # identifiers are graph nodes too, as in repro.graphs.views).
    universe = np.unique(np.concatenate((ids, u, v)))
    if len(universe) == 1:
        return True
    ui = np.searchsorted(universe, u)
    vi = np.searchsorted(universe, v)
    m = len(universe)
    graph = coo_matrix(
        (np.ones(len(ui), dtype=np.int8), (ui, vi)), shape=(m, m)
    )
    n_components, _ = connected_components(graph, directed=True, connection="weak")
    return bool(n_components == 1)


def fast_lrl_links_live(engine: SoAHost) -> bool:
    """Every long-range link points at an existing node (or its owner)."""
    _, idx = engine.soa.sorted_live()
    if len(idx) == 0:
        return True
    _, found = engine.soa.lookup(engine.soa.lrl[idx])
    return bool(found.all())
