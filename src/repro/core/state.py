"""Per-node protocol state (paper §III).

Each node ``p`` owns the following internal variables:

* ``p.id`` — its identifier (``p.id = p`` in the paper's notation);
* ``p.l`` — the identifier of its left neighbor (``p.l < p``) or −∞;
* ``p.r`` — the identifier of its right neighbor (``p < p.r``) or +∞;
* ``p.lrl`` — the endpoint of its long-range link (the position of its
  move-and-forget token);
* ``p.ring`` — the endpoint of its ring edge; meaningful only while
  ``p.l = −∞`` or ``p.r = +∞``;
* ``p.age`` — the number of move-and-forget steps since ``p.lrl`` was last
  reset.

The paper assumes the internal variables "are always correct and can not be
manipulated by an adversary, although the system can recover from corrupt
internal variables."  We therefore expose both a validating constructor (for
building legitimate states) and :meth:`NodeState.corrupt` (for adversarial
initial configurations used in the self-stabilization experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Mapping

from repro.ids import NEG_INF, POS_INF, is_real, require_id

__all__ = ["NodeState", "StateTuple", "snapshot_states"]

#: Canonical per-node snapshot: ``(id, l, r, lrl, ring, age)`` with plain
#: Python scalars (``ring`` is ``None`` when unset).  This is the exchange
#: format of the differential-equivalence harness: the reference engine and
#: :mod:`repro.sim.fast` both export it, and bit-identical tuples are what
#: draw-for-draw equivalence means (docs/PERF.md).
StateTuple = tuple[float, float, float, float, float | None, int]


@dataclass(slots=True)
class NodeState:
    """Mutable protocol state of one node.

    Parameters
    ----------
    id:
        The node's identifier in ``[0, 1)``.
    l, r:
        Left/right neighbor identifiers, or the ±∞ sentinels.
    lrl:
        Long-range-link endpoint; defaults to ``id`` itself (token at home,
        the reset state of the move-and-forget process; DESIGN.md §4.4).
    ring:
        Ring-edge endpoint, or ``None`` when unset (DESIGN.md §4.3).
    age:
        Move-and-forget steps since the last reset of ``lrl``.
    """

    id: float
    l: float = NEG_INF
    r: float = POS_INF
    lrl: float = field(default=-1.0)  # placeholder, fixed in __post_init__
    ring: float | None = None
    age: int = 0

    def __post_init__(self) -> None:
        # Each check first asks whether the value is a float in range (and
        # on its side of the id), which is what every start builder passes;
        # anything else goes through require_id and the side checks, which
        # raise or pass exactly as they would on their own.
        nid = self.id
        if not (type(nid) is float and 0.0 <= nid < 1.0):
            require_id(nid, what="node id")
        if self.lrl == -1.0:
            self.lrl = nid
        lrl, ring, l, r = self.lrl, self.ring, self.l, self.r
        if not (
            type(lrl) is float
            and 0.0 <= lrl < 1.0
            and (ring is None or (type(ring) is float and 0.0 <= ring < 1.0))
            and (l == NEG_INF or (type(l) is float and 0.0 <= l < nid))
            and (r == POS_INF or (type(r) is float and nid < r < 1.0))
        ):
            self._check_links()
        if self.age < 0:
            raise ValueError(f"age must be non-negative, got {self.age}")

    def _check_links(self) -> None:
        """Validate ``lrl``, ``ring``, ``l`` and ``r`` one at a time, raising
        on the first that is not an identifier on its side of the id."""
        require_id(self.lrl, what="lrl")
        if self.ring is not None:
            require_id(self.ring, what="ring")
        if self.l != NEG_INF:
            require_id(self.l, what="l")
            if not self.l < self.id:
                raise ValueError(
                    f"l must be smaller than the node id ({self.l} >= {self.id})"
                )
        if self.r != POS_INF:
            require_id(self.r, what="r")
            if not self.r > self.id:
                raise ValueError(
                    f"r must be greater than the node id ({self.r} <= {self.id})"
                )

    # ------------------------------------------------------------------
    # Convenience predicates used throughout Algorithms 1-10
    # ------------------------------------------------------------------
    @property
    def has_left(self) -> bool:
        """``True`` iff the node knows a left neighbor (``p.l > −∞``)."""
        return self.l != NEG_INF

    @property
    def has_right(self) -> bool:
        """``True`` iff the node knows a right neighbor (``p.r < +∞``)."""
        return self.r != POS_INF

    @property
    def needs_ring(self) -> bool:
        """``True`` iff the node is missing a neighbor and thus keeps a
        ring edge (``p.l = −∞ ∨ p.r = +∞``, Algorithm 10's guard)."""
        return not self.has_left or not self.has_right

    @property
    def lrl_at_home(self) -> bool:
        """``True`` iff the move-and-forget token sits on its owner."""
        return self.lrl == self.id

    def known_ids(self) -> set[float]:
        """All real identifiers currently stored by this node.

        Used by connectivity views (the stored links of the CP graph) and by
        the ring-bootstrap rule (DESIGN.md §4.3).
        """
        out = {self.id}
        if is_real(self.l):
            out.add(self.l)
        if is_real(self.r):
            out.add(self.r)
        out.add(self.lrl)
        if self.ring is not None:
            out.add(self.ring)
        return out

    # ------------------------------------------------------------------
    # Adversarial manipulation (initial configurations only)
    # ------------------------------------------------------------------
    def corrupt(
        self,
        *,
        l: float | None = None,
        r: float | None = None,
        lrl: float | None = None,
        ring: float | None = None,
        age: int | None = None,
    ) -> None:
        """Overwrite state fields without the legitimacy checks.

        The self-stabilization experiments need *arbitrary* weakly connected
        initial configurations, including ones where ``l``/``r`` point at
        far-away nodes or ``ring``/``lrl`` are stale.  Only the hard model
        invariants are still enforced: ``l < id < r`` (the paper's variable
        definitions) and that stored identifiers are real ids or sentinels —
        corrupting those would leave the compare-store-send model entirely.
        """
        if l is not None:
            if l != NEG_INF:
                require_id(l, what="corrupt l")
                if l >= self.id:
                    raise ValueError("corrupt l must stay < id (model invariant)")
            self.l = l
        if r is not None:
            if r != POS_INF:
                require_id(r, what="corrupt r")
                if r <= self.id:
                    raise ValueError("corrupt r must stay > id (model invariant)")
            self.r = r
        if lrl is not None:
            require_id(lrl, what="corrupt lrl")
            self.lrl = lrl
        if ring is not None:
            require_id(ring, what="corrupt ring")
            self.ring = ring
        if age is not None:
            if age < 0:
                raise ValueError("age must be non-negative")
            self.age = age

    def as_tuple(self) -> StateTuple:
        """Export this state as the canonical :data:`StateTuple` snapshot."""
        ring = None if self.ring is None else float(self.ring)
        return (
            float(self.id),
            float(self.l),
            float(self.r),
            float(self.lrl),
            ring,
            int(self.age),
        )

    def copy(self) -> "NodeState":
        """Return an independent copy of this state."""
        return NodeState(
            id=self.id, l=self.l, r=self.r, lrl=self.lrl, ring=self.ring, age=self.age
        )

    def __repr__(self) -> str:
        ring = "None" if self.ring is None else f"{self.ring:.6g}"
        return (
            f"NodeState(id={self.id:.6g}, l={self.l:.6g}, r={self.r:.6g}, "
            f"lrl={self.lrl:.6g}, ring={ring}, age={self.age})"
        )


def snapshot_states(states: Mapping[float, "NodeState"]) -> dict[float, StateTuple]:
    """Snapshot a ``{id: NodeState}`` mapping as canonical tuples.

    Used by the differential tests to compare a reference
    :class:`~repro.sim.network.Network` against a fast engine without any
    tolerance: two engines agree iff the returned dicts are equal.
    """
    return {nid: state.as_tuple() for nid, state in states.items()}
