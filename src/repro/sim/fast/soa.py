"""Struct-of-arrays node state for the batched engine.

The reference engine stores one :class:`~repro.core.state.NodeState` object
per node; at N ≈ 50k that is 50k Python objects touched once per round.
:class:`SoAState` stores the same six protocol variables as six flat numpy
arrays indexed by a *compact node index* (the slot a node was assigned on
insertion):

* ``ids``  — the node identifier (float64),
* ``l``/``r`` — neighbor identifiers with the ±∞ sentinels (float64),
* ``lrl`` — the long-range-link endpoint (float64),
* ``ring`` — the ring-edge endpoint, ``NaN`` encoding the reference
  engine's ``None`` (float64),
* ``age`` — move-and-forget steps since the last reset (int64),

plus an ``alive`` mask: a departure tombstones its slot (``alive=False``)
so compact indices stay stable *within* a round — message buffers carry
identifiers, not slots, and per-round inboxes re-resolve them, so
:meth:`SoAState.compact` may reclaim dead slots at any round boundary
(docs/CHAOS.md "Churn at scale").  Identifier→index resolution is a dict
for scalar callers and a sorted-array ``searchsorted`` for vectorized
ones.

Both fast engines (batched and mirror-RNG; see docs/PERF.md) share this
container, and both export the canonical
:data:`~repro.core.state.StateTuple` snapshot for differential comparison
against the reference engine.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.state import NodeState, StateTuple
from repro.ids import NEG_INF, POS_INF

__all__ = ["SoAState"]

#: Initial slot capacity for an empty container.
_MIN_CAPACITY = 16


class SoAState:
    """The six protocol variables of every node, as parallel numpy arrays."""

    __slots__ = (
        "capacity",
        "size",
        "ids",
        "l",
        "r",
        "lrl",
        "ring",
        "age",
        "alive",
        "_index",
        "_sorted_ids",
        "_sorted_idx",
        "_dirty",
    )

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(int(capacity), _MIN_CAPACITY)
        self.capacity = capacity
        #: Number of slots ever allocated (live + dead).
        self.size = 0
        self.ids = np.empty(capacity, dtype=np.float64)
        self.l = np.empty(capacity, dtype=np.float64)
        self.r = np.empty(capacity, dtype=np.float64)
        self.lrl = np.empty(capacity, dtype=np.float64)
        self.ring = np.empty(capacity, dtype=np.float64)
        self.age = np.empty(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self._index: dict[float, int] = {}
        self._sorted_ids: np.ndarray = np.empty(0, dtype=np.float64)
        self._sorted_idx: np.ndarray = np.empty(0, dtype=np.int64)
        self._dirty = True

    # ------------------------------------------------------------------
    # Construction / membership
    # ------------------------------------------------------------------
    @classmethod
    def from_states(cls, states: Iterable[NodeState]) -> "SoAState":
        """Build a container from reference per-node states."""
        materialized = list(states)
        soa = cls(capacity=max(len(materialized), _MIN_CAPACITY))
        for state in materialized:
            soa.add(state)
        return soa

    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        for name in ("ids", "l", "r", "lrl", "ring", "age", "alive"):
            old = getattr(self, name)
            fresh = np.zeros(new_capacity, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        self.capacity = new_capacity

    def add(self, state: NodeState) -> int:
        """Append one node; returns its compact index.

        Raises
        ------
        ValueError
            If the identifier is already live (duplicate ids violate the
            model's total order, exactly as in ``Network.add_node``).
        """
        nid = float(state.id)
        if nid in self._index:
            raise ValueError(f"duplicate node id {nid!r}")
        if self.size == self.capacity:
            self._grow()
        i = self.size
        self.ids[i] = nid
        self.l[i] = state.l
        self.r[i] = state.r
        self.lrl[i] = state.lrl
        self.ring[i] = np.nan if state.ring is None else state.ring
        self.age[i] = state.age
        self.alive[i] = True
        self._index[nid] = i
        self.size += 1
        self._dirty = True
        return i

    def remove(self, nid: float) -> int:
        """Mark the node with identifier *nid* dead; returns its slot.

        The slot becomes a tombstone: it is not reused by later joins, so
        compact indices stay valid until the next :meth:`compact` call
        (which only ever runs at a round boundary — nothing holds slot
        indices across rounds; buffers carry identifiers).
        """
        try:
            i = self._index.pop(float(nid))
        except KeyError:
            raise KeyError(f"no node with id {nid!r}") from None
        self.alive[i] = False
        self._dirty = True
        return i

    # ------------------------------------------------------------------
    # Batch membership (docs/CHAOS.md "Churn at scale")
    # ------------------------------------------------------------------
    def add_batch(
        self,
        ids: np.ndarray,
        l: np.ndarray,
        r: np.ndarray,
        lrl: np.ndarray,
        ring: np.ndarray,
        age: np.ndarray,
    ) -> np.ndarray:
        """Append a batch of nodes in one column write; returns their slots.

        State-equivalent to :meth:`add` called once per row, in row order
        (appends are independent — each writes only its own fresh slot).
        ``ring`` uses ``NaN`` for the reference engine's ``None``.  The
        whole batch is validated before any slot is written, so a raising
        call leaves the container untouched.
        """
        ids = np.ascontiguousarray(ids, dtype=np.float64)
        k = len(ids)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if len(np.unique(ids)) != k:
            raise ValueError("duplicate node id within batch")
        for nid in ids.tolist():
            if nid in self._index:
                raise ValueError(f"duplicate node id {nid!r}")
        while self.size + k > self.capacity:
            self._grow()
        lo, hi = self.size, self.size + k
        self.ids[lo:hi] = ids
        self.l[lo:hi] = l
        self.r[lo:hi] = r
        self.lrl[lo:hi] = lrl
        self.ring[lo:hi] = ring
        self.age[lo:hi] = age
        self.alive[lo:hi] = True
        for offset, nid in enumerate(ids.tolist()):
            self._index[nid] = lo + offset
        self.size = hi
        self._dirty = True
        return np.arange(lo, hi, dtype=np.int64)

    def remove_batch(self, nids: np.ndarray) -> np.ndarray:
        """Tombstone a batch of identifiers; returns their (dead) slots.

        State-equivalent to :meth:`remove` per id in any order.  The whole
        batch is validated first (unknown or in-batch-duplicate ids raise
        ``KeyError`` with no slot touched).
        """
        nids = np.ascontiguousarray(nids, dtype=np.float64)
        if len(np.unique(nids)) != len(nids):
            raise KeyError("duplicate node id within batch")
        values = nids.tolist()
        for nid in values:
            if nid not in self._index:
                raise KeyError(f"no node with id {nid!r}")
        slots = np.array([self._index.pop(nid) for nid in values], dtype=np.int64)
        self.alive[slots] = False
        self._dirty = True
        return slots

    def scrub_departed_many(self, nids: np.ndarray) -> None:
        """Vectorized :meth:`scrub_departed` over a whole departure batch.

        Equivalent to the scalar scrub per id in any order: every scrubbed
        value becomes a sentinel (±∞, ``NaN``, the owner id) that can never
        equal a departing identifier, so one ``isin`` pass per column sees
        exactly the rows the sequential scrubs would have rewritten.
        """
        nids = np.ascontiguousarray(nids, dtype=np.float64)
        if len(nids) == 0:
            return
        n = self.size
        live = self.alive[:n]
        sel = live & np.isin(self.l[:n], nids)
        self.l[:n][sel] = NEG_INF
        sel = live & np.isin(self.r[:n], nids)
        self.r[:n][sel] = POS_INF
        sel = live & np.isin(self.ring[:n], nids)
        self.ring[:n][sel] = np.nan
        sel = live & np.isin(self.lrl[:n], nids)
        self.lrl[:n][sel] = self.ids[:n][sel]
        self.age[:n][sel] = 0

    @property
    def n_dead(self) -> int:
        """Number of tombstoned slots awaiting compaction."""
        return self.size - len(self._index)

    def compact(self) -> None:
        """Reclaim tombstoned slots by packing live rows to the front.

        Compact indices change, so this is only safe at a round boundary:
        outboxes and wire buffers carry destination *identifiers* (resolved
        per round via :meth:`lookup`), and per-round inboxes are rebuilt
        from scratch, so nothing holds a slot index across the call.  Live
        rows keep their relative slot order; :meth:`snapshot` and every
        identifier-keyed observable are unchanged.
        """
        n = self.size
        keep = np.flatnonzero(self.alive[:n])
        k = len(keep)
        if k == n:
            return
        for name in ("ids", "l", "r", "lrl", "ring", "age", "alive"):
            col = getattr(self, name)
            packed = col[keep]
            col[:k] = packed
        self.alive[k:n] = False
        self.size = k
        self._index = dict(zip(self.ids[:k].tolist(), range(k)))
        self._dirty = True

    def maybe_compact(self, *, min_dead: int = 16) -> bool:
        """Compact once tombstones dominate the slot space.

        The trigger (``dead * 2 > size``, at least *min_dead* tombstones)
        mirrors the chaos guard's compaction policy: each compaction at
        least halves the slot count, so the gather cost is amortized O(1)
        per membership event.  Returns whether a compaction ran.
        """
        dead = self.n_dead
        if dead < min_dead or dead * 2 <= self.size:
            return False
        self.compact()
        return True

    def index_of(self, nid: float) -> int | None:
        """Compact index of a *live* identifier, or ``None``."""
        return self._index.get(float(nid))

    def __contains__(self, nid: float) -> bool:
        return float(nid) in self._index

    @property
    def n_live(self) -> int:
        """Number of live nodes."""
        return len(self._index)

    # ------------------------------------------------------------------
    # Sorted-id views (vectorized lookups, predicates, round order)
    # ------------------------------------------------------------------
    def _rebuild_sorted(self) -> None:
        live = np.flatnonzero(self.alive[: self.size])
        order = np.argsort(self.ids[live], kind="stable")
        self._sorted_idx = live[order].astype(np.int64)
        self._sorted_ids = self.ids[self._sorted_idx]
        self._dirty = False

    def sorted_live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, idx)`` of every live node, ascending by identifier."""
        if self._dirty:
            self._rebuild_sorted()
        return self._sorted_ids, self._sorted_idx

    def live_ids_list(self) -> list[float]:
        """Live identifiers as plain floats, ascending (scheduler order)."""
        return self.sorted_live()[0].tolist()

    def lookup(self, dest_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized identifier→index resolution.

        Returns ``(idx, found)``: for each destination identifier the
        compact index of the live node with that id (undefined where
        ``found`` is false — messages to unknown identifiers are dropped by
        the caller, mirroring ``Network.send``).
        """
        ids, idx = self.sorted_live()
        if len(ids) == 0:
            found = np.zeros(len(dest_ids), dtype=bool)
            return np.zeros(len(dest_ids), dtype=np.int64), found
        pos = np.minimum(np.searchsorted(ids, dest_ids), len(ids) - 1)
        return idx[pos], ids[pos] == dest_ids

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[float, StateTuple]:
        """Canonical snapshot of every live node (docs/PERF.md contract)."""
        out: dict[float, StateTuple] = {}
        for i in self.sorted_live()[1]:
            ring = self.ring[i]  # repro-lint: ignore[scalar-loop-over-soa] boundary export to per-node dicts is inherently scalar; not on the round hot path
            out[float(self.ids[i])] = (
                float(self.ids[i]),
                float(self.l[i]),
                float(self.r[i]),
                float(self.lrl[i]),
                None if np.isnan(ring) else float(ring),
                int(self.age[i]),
            )
        return out

    def to_states(self) -> list[NodeState]:
        """Export every live node as a reference ``NodeState`` (ascending)."""
        states = []
        for i in self.sorted_live()[1]:
            ring = self.ring[i]  # repro-lint: ignore[scalar-loop-over-soa] boundary export to NodeState objects is inherently scalar; not on the round hot path
            states.append(
                NodeState(
                    id=float(self.ids[i]),
                    l=float(self.l[i]),
                    r=float(self.r[i]),
                    lrl=float(self.lrl[i]),
                    ring=None if np.isnan(ring) else float(ring),
                    age=int(self.age[i]),
                )
            )
        return states

    # ------------------------------------------------------------------
    # Churn support
    # ------------------------------------------------------------------
    def scrub_departed(self, nid: float) -> None:
        """Erase every stored reference to a departed identifier.

        Mirrors :func:`repro.churn.leave.leave_node`'s state scrub: dangling
        ``l``/``r`` become sentinels, dangling rings unset, and a dangling
        long-range link resets to its owner with age 0.
        """
        n = self.size
        live = self.alive[:n]
        sel = live & (self.l[:n] == nid)
        self.l[:n][sel] = NEG_INF
        sel = live & (self.r[:n] == nid)
        self.r[:n][sel] = POS_INF
        sel = live & (self.ring[:n] == nid)
        self.ring[:n][sel] = np.nan
        sel = live & (self.lrl[:n] == nid)
        self.lrl[:n][sel] = self.ids[:n][sel]
        self.age[:n][sel] = 0

    def __len__(self) -> int:
        return self.n_live

    def __repr__(self) -> str:
        return f"SoAState(n={self.n_live}, slots={self.size})"
