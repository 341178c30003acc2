"""Construct legitimate (stable) protocol states directly.

The stable-state experiments (probing cost E3, routing E5, overhead E8,
churn E6/E7) need a network that *already* satisfies the sorted-ring
invariant, with long-range links in the stationary (harmonic) regime —
burning O(n · T) protocol rounds to get there would dominate every
benchmark without measuring anything new (E1 and E4 validate the road to
stability separately; DESIGN.md §4.10).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF, evenly_spaced_ids
from repro.sim.fast.soa import SoAState

__all__ = [
    "stable_ring_soa",
    "stable_ring_states",
    "wire_sorted_ring",
    "wire_sorted_ring_soa",
    "MATURE_AGE",
]

#: Age given to directly-sampled long-range links.  In the move-and-forget
#: stationary regime, links that are long have survived for a long time —
#: the renewal-age distribution implied by the closed-form survival function
#: is so heavy-tailed that most stationary links are ancient, with
#: φ(age) ≈ (1+ε)/age ≈ 0.  A freshly-sampled harmonic link with a *young*
#: age would be forgotten almost immediately (φ(3) ≈ 0.6 for ε = 0.1) and
#: the sampled distribution would collapse before any experiment could use
#: it.  10^6 makes the expected number of forgets over a full experiment
#: window (hundreds of rounds × thousands of links) below one.
MATURE_AGE: int = 1_000_000


def _sorted_ids(ids: Sequence[float] | np.ndarray) -> np.ndarray:
    """*ids* ascending, checked as :func:`sort_unique` and ``NodeState`` do."""
    ordered = np.sort(np.asarray(ids, dtype=np.float64))
    same = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(same):
        raise ValueError(f"duplicate identifier {float(ordered[same[0]])!r}")
    bad = np.flatnonzero(~((ordered >= 0.0) & (ordered < 1.0)))
    if len(bad):
        raise ValueError(f"node id must lie in [0, 1), got {float(ordered[bad[0]])!r}")
    return ordered


def wire_sorted_ring_soa(ids: Sequence[float] | np.ndarray) -> SoAState:
    """Wire the given identifiers into a sorted ring with at-home tokens.

    Returns an id-sorted :class:`SoAState`: consecutive ``l``/``r``
    links, ``min.ring = max``, ``max.ring = min`` (Definition 4.17), and
    ``lrl = id`` (every move-and-forget token at home, age 0).
    """
    ordered = _sorted_ids(ids)
    n = len(ordered)
    l = np.full(n, NEG_INF)
    l[1:] = ordered[:-1]
    r = np.full(n, POS_INF)
    r[:-1] = ordered[1:]
    ring = np.full(n, np.nan)
    if n >= 2:
        ring[0], ring[-1] = ordered[-1], ordered[0]
    return SoAState.from_columns(ordered, l, r, ordered, ring, np.zeros(n, dtype=np.int64))


def wire_sorted_ring(ids: Sequence[float]) -> list[NodeState]:
    """:func:`wire_sorted_ring_soa` as one ``NodeState`` per identifier."""
    return wire_sorted_ring_soa(ids).to_states()


def stable_ring_soa(
    n: int,
    *,
    lrl: str = "self",
    rng: np.random.Generator | None = None,
    ids: Sequence[float] | np.ndarray | None = None,
) -> SoAState:
    """Build *n* nodes in the legitimate sorted-ring state, as an
    id-sorted :class:`SoAState`.

    Parameters
    ----------
    n:
        Number of nodes (ignored if *ids* is given).
    lrl:
        How to set the long-range links:

        * ``"self"`` — all tokens at home (the post-reset state);
        * ``"harmonic"`` — sampled from the stationary 1-harmonic
          link-length distribution (Fact 4.21's small-world network);
        * ``"uniform"`` — uniformly random endpoints (the *non*-navigable
          baseline of experiment E5).
    rng:
        Required for the random ``lrl`` modes.
    ids:
        Explicit identifiers; defaults to :func:`evenly_spaced_ids`.
    """
    soa = wire_sorted_ring_soa(evenly_spaced_ids(n) if ids is None else ids)
    if lrl == "self":
        return soa
    if rng is None:
        raise ValueError(f"lrl={lrl!r} requires an rng")
    n = soa.size
    ordered = soa.ids[:n]
    if lrl == "harmonic":
        from repro.moveforget.harmonic import sample_harmonic_offsets

        offsets = sample_harmonic_offsets(n, n, rng)
        targets = (np.arange(n) + offsets) % n
    elif lrl == "uniform":
        targets = rng.integers(0, n, size=n)
    else:
        raise ValueError(f"unknown lrl mode {lrl!r}")
    soa.lrl[:n] = ordered[targets]
    soa.age[:n] = MATURE_AGE
    return soa


def stable_ring_states(
    n: int,
    *,
    lrl: str = "self",
    rng: np.random.Generator | None = None,
    epsilon: float | None = None,
    ids: Sequence[float] | None = None,
) -> list[NodeState]:
    """:func:`stable_ring_soa` as one ``NodeState`` per node, ascending.
    *epsilon* is unused by the distributions but accepted so call sites
    can pass their protocol ε uniformly."""
    return stable_ring_soa(n, lrl=lrl, rng=rng, ids=ids).to_states()
