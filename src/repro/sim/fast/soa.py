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
(docs/CHAOS.md "Churn at scale").  Identifier→index resolution has one
structure, a bucket table over the sorted live ids: one probe per id, a
binary search only for the few that share a bucket
(:meth:`SoAState.lookup`).  A membership write makes the next lookup
rebuild it, so a scalar caller asking per message keeps its own liveness
(the channels of ``tests/reference_mirror.py``).  Membership writes the
columns in batches only (:meth:`~SoAState.add_batch`,
:meth:`~SoAState.remove_batch`, :meth:`~SoAState.scrub_departed_many`);
one join or leave is a batch of one.

Every SoA host (and the oracle of ``tests/reference_mirror.py``; see
docs/PERF.md) shares this container, and each exports the canonical
:data:`~repro.core.state.StateTuple` snapshot for differential comparison
against the reference engine.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.state import NodeState, StateTuple
from repro.ids import NEG_INF, POS_INF, bucket_probe, bucket_table

__all__ = ["SoAState", "state_columns", "stored_links"]

#: Initial slot capacity for an empty container.
_MIN_CAPACITY = 16

#: The six protocol columns, in :meth:`SoAState.add_batch` order.
_COLUMNS = ("ids", "l", "r", "lrl", "ring", "age")


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
        "_sorted_ids",
        "_sorted_idx",
        "_bucket_start",
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
        self._sorted_ids: np.ndarray = np.empty(0, dtype=np.float64)
        self._sorted_idx: np.ndarray = np.empty(0, dtype=np.intp)
        self._bucket_start: np.ndarray = np.empty(0, dtype=np.int32)
        self._dirty = True

    # ------------------------------------------------------------------
    # Construction / membership
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        ids: np.ndarray,
        l: np.ndarray,
        r: np.ndarray,
        lrl: np.ndarray,
        ring: np.ndarray,
        age: np.ndarray,
    ) -> "SoAState":
        """Build a container over the :meth:`add_batch` columns (slots in
        row order)."""
        soa = cls(capacity=len(ids))
        soa.add_batch(ids, l, r, lrl, ring, age)
        return soa

    @classmethod
    def from_states(cls, states: "Iterable[NodeState] | SoAState") -> "SoAState":
        """Build a fresh container from reference per-node states (slots
        in iteration order), or copy an id-sorted start: an ``SoAState``
        whose every slot is live with ids ascending by slot, as the
        start builders return it (``line_soa``, ``stable_ring_soa``).

        The copy shares no array with *states*: it is one column copy,
        and its sorted view is built on first use.
        """
        if not isinstance(states, SoAState):
            return cls.from_columns(*state_columns(states))
        n = states.size
        ids = states.ids[:n]
        if states.n_dead or not bool((ids[1:] > ids[:-1]).all()):
            raise ValueError(
                "an SoAState start must be id-sorted: every slot live, ids "
                "ascending by slot (as line_soa and stable_ring_soa build it)"
            )
        soa = cls(capacity=n)
        for name in (*_COLUMNS, "alive"):
            getattr(soa, name)[:n] = getattr(states, name)[:n]
        soa.size = n
        return soa

    def _grow(self) -> None:
        new_capacity = self.capacity * 2
        for name in (*_COLUMNS, "alive"):
            old = getattr(self, name)
            fresh = np.zeros(new_capacity, dtype=old.dtype)
            fresh[: self.size] = old[: self.size]
            setattr(self, name, fresh)
        self.capacity = new_capacity

    # ------------------------------------------------------------------
    # Membership: batches are the only writers (docs/CHAOS.md "Churn at
    # scale"); a single join or leave is a batch of one
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

        Rows take fresh slots in row order (appends are independent — each
        writes only its own slot).  ``ring`` uses ``NaN`` for the reference
        engine's ``None``.  The whole batch is validated before any slot is
        written: an id that is already live, or repeats within the batch,
        raises ``ValueError`` (duplicate ids violate the model's total
        order, exactly as in ``Network.add_node``) and leaves the container
        untouched.
        """
        ids = np.ascontiguousarray(ids, dtype=np.float64)
        k = len(ids)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if len(np.unique(ids)) != k:
            raise ValueError("duplicate node id within batch")
        live = self.lookup(ids)[1]
        if bool(live.any()):
            raise ValueError(f"duplicate node id {float(ids[live.argmax()])!r}")
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
        self.size = hi
        self._dirty = True
        return np.arange(lo, hi, dtype=np.int64)

    def remove_batch(self, nids: np.ndarray) -> np.ndarray:
        """Tombstone a batch of identifiers; returns their (dead) slots.

        A tombstoned slot is not reused by later joins, so compact indices
        stay valid until the next :meth:`compact` call (which only ever
        runs at a round boundary — nothing holds slot indices across
        rounds; buffers carry identifiers).  The whole batch is validated
        first (unknown or in-batch-duplicate ids raise ``KeyError`` with no
        slot touched).
        """
        nids = np.ascontiguousarray(nids, dtype=np.float64)
        if len(np.unique(nids)) != len(nids):
            raise KeyError("duplicate node id within batch")
        slots, found = self.lookup(nids)
        if not bool(found.all()):
            raise KeyError(f"no node with id {float(nids[found.argmin()])!r}")
        self.alive[slots] = False
        self._dirty = True
        return slots

    def scrub_departed_many(self, nids: np.ndarray) -> None:
        """Erase every stored reference to the departed identifiers *nids*.

        Mirrors :func:`repro.churn.leave.leave_node`'s state scrub:
        dangling ``l``/``r`` become sentinels, dangling rings unset, and a
        dangling long-range link resets to its owner with age 0.  Every
        scrubbed value is a sentinel (±∞, ``NaN``, the owner id) that can
        never equal a departing identifier, so one ``isin`` pass per column
        is the scrub per id in any order.
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
        return self.size - self.n_live

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
        for name in (*_COLUMNS, "alive"):
            col = getattr(self, name)
            packed = col[keep]
            col[:k] = packed
        self.alive[k:n] = False
        self.size = k
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

    def __contains__(self, nid: float) -> bool:
        """A one-element :meth:`lookup` (rebuilding a dirty sorted view)."""
        return bool(self.lookup(np.array([nid], dtype=np.float64))[1][0])

    @property
    def n_live(self) -> int:
        """Number of live nodes."""
        return int(np.count_nonzero(self.alive[: self.size]))

    # ------------------------------------------------------------------
    # Sorted-id views (vectorized lookups, predicates, round order)
    # ------------------------------------------------------------------
    def _rebuild_sorted(self) -> None:
        live = np.flatnonzero(self.alive[: self.size])
        order = np.argsort(self.ids[live], kind="stable")
        self._sorted_idx = live[order]
        self._sorted_ids = self.ids[self._sorted_idx]
        self._bucket_start = bucket_table(self._sorted_ids)
        self._dirty = False

    def sorted_live(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, idx)`` of every live node, ascending by identifier
        (``idx`` intp: every caller indexes with it)."""
        if self._dirty:
            self._rebuild_sorted()
        return self._sorted_ids, self._sorted_idx

    def sorted_buckets(self) -> np.ndarray:
        """The :func:`~repro.ids.bucket_table` over ``sorted_live()``'s ids.
        Like those ids it is replaced on rebuild, never mutated, so a
        snapshot may hold on to it (``RouteView.from_engine``)."""
        if self._dirty:
            self._rebuild_sorted()
        return self._bucket_start

    def live_ids_list(self) -> list[float]:
        """Live identifiers as plain floats, ascending (scheduler order)."""
        return self.sorted_live()[0].tolist()

    def lookup(self, dest_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized identifier→index resolution.

        Returns ``(idx, found)``: for each destination identifier the
        compact index of the live node with that id, as intp (undefined
        where ``found`` is false — messages to unknown identifiers are
        dropped by the caller, mirroring ``Network.send``).  A caller that
        holds the slots narrows them itself (``PreparedInbox.dest_idx`` is
        int32).

        Each id is probed once in the sorted ids' bucket table and only
        the misses are binary-searched (:func:`~repro.ids.bucket_probe`,
        the one probe the serving ``RouteView`` also resolves through).
        """
        ids, idx = self.sorted_live()
        pos, found = bucket_probe(
            ids, self._bucket_start, np.asarray(dest_ids, dtype=np.float64)
        )
        return (idx[pos] if len(ids) else pos), found

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _live_rows(self) -> zip[tuple[float, float, float, float, float | None, int]]:
        """Every live node as plain-scalar ``(id, l, r, lrl, ring, age)``,
        ascending by id (``ring`` ``None`` where the column holds NaN)."""
        _, idx = self.sorted_live()
        ring = self.ring[idx]
        rings = np.where(np.isnan(ring), None, ring).tolist()
        return zip(
            self.ids[idx].tolist(),
            self.l[idx].tolist(),
            self.r[idx].tolist(),
            self.lrl[idx].tolist(),
            rings,
            self.age[idx].tolist(),
        )

    def snapshot(self) -> dict[float, StateTuple]:
        """Canonical snapshot of every live node (docs/PERF.md contract)."""
        return {row[0]: row for row in self._live_rows()}

    def to_states(self) -> list[NodeState]:
        """Export every live node as a reference ``NodeState`` (ascending)."""
        return [NodeState(*row) for row in self._live_rows()]

    def __len__(self) -> int:
        return self.n_live

    def __repr__(self) -> str:
        return f"SoAState(n={self.n_live}, slots={self.size})"


def state_columns(states: Iterable[NodeState]) -> tuple[np.ndarray, ...]:
    """``(ids, l, r, lrl, ring, age)`` of reference states, in iteration
    order: the columns :meth:`SoAState.add_batch` takes (``ring`` ``NaN``
    for ``None``)."""
    listed = list(states)
    return (
        np.array([s.id for s in listed], dtype=np.float64),
        np.array([s.l for s in listed], dtype=np.float64),
        np.array([s.r for s in listed], dtype=np.float64),
        np.array([s.lrl for s in listed], dtype=np.float64),
        np.array(
            [np.nan if s.ring is None else s.ring for s in listed],
            dtype=np.float64,
        ),
        np.array([s.age for s in listed], dtype=np.int64),
    )


def stored_links(
    ids: np.ndarray, l: np.ndarray, r: np.ndarray, lrl: np.ndarray, ring: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, target)`` of every real identifier the rows store in
    ``l``/``r``/``lrl``/``ring``, self-links included: the stored half of
    the CP and CC graphs (Definition 4.2)."""
    owners: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for stored in (l, r, lrl, ring):
        real = np.isfinite(stored)
        owners.append(ids[real])
        targets.append(stored[real])
    return np.concatenate(owners), np.concatenate(targets)
