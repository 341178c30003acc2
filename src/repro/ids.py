"""Identifier algebra for the self-stabilizing small-world protocol.

The paper assigns every process an identifier ``id`` from the half-open
interval ``[0, 1)`` and orders all protocol decisions by comparisons on
identifiers.  Two sentinel values stand in for "no neighbor":

* ``NEG_INF`` (−∞) — the value of ``p.l`` when ``p`` knows no smaller node;
* ``POS_INF`` (+∞) — the value of ``p.r`` when ``p`` knows no larger node.

This module centralizes everything identifier-related:

* validation (:func:`is_valid_id`, :func:`require_id`),
* sentinel predicates (:func:`is_real`, :func:`is_sentinel`),
* order helpers used throughout the pseudocode
  (:func:`between`, :func:`strictly_between`),
* identifier generation (:func:`generate_ids`, :func:`evenly_spaced_ids`),
* rank/ring distance helpers used by the analysis
  (:func:`rank_of`, :func:`link_length`, :func:`ring_distance`),
* the vectorized id→position probe over a sorted id array
  (:func:`bucket_table`, :func:`bucket_probe`), which the engine's
  ``SoAState.lookup`` and the serving ``RouteView`` both call.

Identifiers are plain Python floats, which keeps the protocol core free of
any wrapper-object overhead (the simulator executes millions of comparisons
per run; see the performance notes in DESIGN.md §5).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "NEG_INF",
    "POS_INF",
    "NodeId",
    "is_valid_id",
    "require_id",
    "is_real",
    "is_sentinel",
    "between",
    "strictly_between",
    "generate_ids",
    "evenly_spaced_ids",
    "rank_of",
    "ranks",
    "link_length",
    "ring_distance",
    "sort_unique",
    "bucket_table",
    "bucket_probe",
]

#: Sentinel for "no left neighbor" (the paper's −∞).
NEG_INF: float = float("-inf")

#: Sentinel for "no right neighbor" (the paper's +∞).
POS_INF: float = float("inf")

#: Type alias for node identifiers.  Real identifiers live in ``[0, 1)``;
#: the sentinels ``NEG_INF``/``POS_INF`` appear only in the ``l``/``r``
#: state variables, never inside messages (DESIGN.md §4.2).
NodeId = float


def is_valid_id(value: object) -> bool:
    """Return ``True`` iff *value* is a real identifier in ``[0, 1)``.

    Sentinels, NaNs, out-of-range floats and non-float types are rejected.
    """
    if not isinstance(value, (float, int, np.floating)):
        return False
    v = float(value)
    return 0.0 <= v < 1.0


def require_id(value: object, *, what: str = "identifier") -> float:
    """Validate *value* as a real identifier and return it as a float.

    Raises
    ------
    ValueError
        If *value* is not a real identifier in ``[0, 1)``.  This is the
        guard that enforces the compare-store-send rule that messages only
        ever carry existing identifiers (DESIGN.md §4.2).
    """
    if not is_valid_id(value):
        raise ValueError(f"{what} must lie in [0, 1), got {value!r}")
    return float(value)


def is_real(value: float) -> bool:
    """Return ``True`` iff *value* is a finite identifier (not ±∞)."""
    return NEG_INF < value < POS_INF


def is_sentinel(value: float) -> bool:
    """Return ``True`` iff *value* is one of the ±∞ sentinels."""
    return value == NEG_INF or value == POS_INF


def between(lo: float, mid: float, hi: float) -> bool:
    """Return ``True`` iff ``lo <= mid <= hi``.

    Works with sentinel endpoints; e.g. ``between(NEG_INF, x, POS_INF)``
    holds for every identifier ``x``.
    """
    return lo <= mid <= hi


def strictly_between(lo: float, mid: float, hi: float) -> bool:
    """Return ``True`` iff ``lo < mid < hi`` (the paper's ``lo < mid < hi``)."""
    return lo < mid < hi


def generate_ids(n: int, rng: np.random.Generator) -> list[float]:
    """Draw *n* distinct identifiers uniformly at random from ``[0, 1)``.

    Uniqueness is enforced by redrawing collisions (vanishingly unlikely for
    double-precision draws, but the protocol's correctness arguments require
    strict total order, so we guarantee it).

    Parameters
    ----------
    n:
        Number of identifiers; must be positive.
    rng:
        Source of randomness; all library entry points accept an explicit
        generator for reproducibility.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    out = np.empty(0, dtype=np.float64)
    while len(out) < n:
        # One draw per missing id; a value is kept at its first
        # occurrence in the round, if no earlier round kept it and it
        # lies in [0, 1).  Redrawn rounds append in draw order.
        draws = np.asarray(rng.random(n - len(out)), dtype=np.float64)
        keep = np.zeros(len(draws), dtype=bool)
        keep[np.unique(draws, return_index=True)[1]] = True
        keep &= (draws >= 0.0) & (draws < 1.0) & ~np.isin(draws, out)
        out = np.concatenate((out, draws[keep]))
    return out.tolist()


def evenly_spaced_ids(n: int) -> list[float]:
    """Return *n* deterministic, evenly spaced identifiers ``i/n``.

    Handy for tests and for stable-state experiments where the identifier
    values themselves are irrelevant and only their order matters.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return [i / n for i in range(n)]


def sort_unique(ids: Iterable[float]) -> list[float]:
    """Return the identifiers sorted ascending, verifying uniqueness.

    Raises
    ------
    ValueError
        If a duplicate identifier is found — duplicate ids violate the
        model's total-order assumption and would make the sorted-list
        predicate (Definition 4.8) ill-defined.
    """
    ordered = sorted(float(i) for i in ids)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ValueError(f"duplicate identifier {a!r}")
    return ordered


def rank_of(node: float, ordered_ids: Sequence[float]) -> int:
    """Return the rank (0-based position) of *node* in *ordered_ids*.

    Parameters
    ----------
    node:
        An identifier that must be present in *ordered_ids*.
    ordered_ids:
        Identifiers sorted ascending (see :func:`sort_unique`).
    """
    i = bisect_left(ordered_ids, node)
    if i >= len(ordered_ids) or ordered_ids[i] != node:
        raise KeyError(f"identifier {node!r} not in network")
    return i


def ranks(ids: Iterable[float]) -> dict[float, int]:
    """Map every identifier to its rank in the sorted order."""
    return {v: i for i, v in enumerate(sort_unique(ids))}


def link_length(u: float, v: float, ordered_ids: Sequence[float]) -> int:
    """Length of link ``(u, v)`` as defined in the paper (§II-A).

    "The length of a link (u, v) is the number of nodes w such that
    u < w < v or v < w < u" — i.e. the number of nodes strictly between the
    endpoints, which equals ``|rank(u) − rank(v)| − 1`` for distinct nodes.
    A self-link has length 0 by convention (no node lies strictly between).
    """
    if u == v:
        return 0
    ru = rank_of(u, ordered_ids)
    rv = rank_of(v, ordered_ids)
    return abs(ru - rv) - 1


def ring_distance(u: float, v: float, ordered_ids: Sequence[float]) -> int:
    """Hop distance between *u* and *v* on the sorted ring.

    This is the metric of the 1-dimensional lattice ``Z_n`` (the ring): the
    minimum of the clockwise and counter-clockwise rank differences.  Greedy
    routing and the harmonic link-length distribution are both defined in
    terms of this distance.
    """
    n = len(ordered_ids)
    ru = rank_of(u, ordered_ids)
    rv = rank_of(v, ordered_ids)
    d = abs(ru - rv)
    return min(d, n - d)


def bucket_table(ids: np.ndarray) -> np.ndarray:
    """The bucket table over the ascending float64 *ids* (int32).

    Bucket k of B covers ``[k/B, (k+1)/B)`` and holds the first sorted
    position at or past ``k/B``, clipped to the last one.  B is the power
    of two at or above 8 per id, so ``k/B`` and ``x*B`` are exact.  Ids
    outside ``[0, 1)`` are allowed: they only fall back to the binary
    search in :func:`bucket_probe`.
    """
    buckets = 1 << (8 * len(ids) - 1).bit_length()
    start = np.searchsorted(ids, np.arange(buckets) / buckets)
    np.minimum(start, max(len(ids) - 1, 0), out=start)
    return start.astype(np.int32)


def bucket_probe(
    ids: np.ndarray, table: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(pos, found)`` of the float64 ids *x* in the ascending unique
    *ids*, through their :func:`bucket_table`.

    Where ``found``, ``pos`` (intp) is the position ``np.searchsorted``
    returns; elsewhere it is that position clipped to the last id (0 when
    *ids* is empty).  Each id is probed once in its bucket (``floor(x * B)``
    clipped into ``[0, B)``, NaN in bucket 0): a hit is the position a
    binary search would return, since ids are unique.  Only the misses —
    an id behind another in its bucket, an unknown id, ±inf, NaN — are
    searched.  The table is int32; the probed positions are widened to
    intp before they index, because numpy gathers through an int32 index
    about twice as slowly as through intp (docs/PERF.md "Gather index
    dtype").
    """
    if len(ids) == 0:
        return np.zeros(len(x), dtype=np.intp), np.zeros(len(x), dtype=bool)
    buckets = len(table)
    key = np.fmax(x, 0.0)  # NaN becomes 0.0
    np.fmin(key, (buckets - 1) / buckets, out=key)
    pos = np.empty(len(x), dtype=np.intp)
    np.multiply(key, buckets, out=pos, casting="unsafe")
    del key
    np.copyto(pos, table[pos])  # the table's positions, widened
    found = ids[pos] == x
    miss = np.flatnonzero(~found)
    if len(miss):
        rest = x[miss]
        pos[miss] = np.minimum(np.searchsorted(ids, rest), len(ids) - 1)
        found[miss] = ids[pos[miss]] == rest
    return pos, found
