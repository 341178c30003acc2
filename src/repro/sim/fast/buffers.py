"""Typed per-round message buffers for the batched engine.

The reference engine allocates one frozen :class:`~repro.core.messages.Message`
dataclass per send and drains them one at a time.  The batched engine
never materializes message objects on the hot path: a send is an *array
append* — ``(destination ids, payload columns)`` chunks accumulated per
message type in an :class:`Outbox` — and a round's inbox is the
concatenation of last round's chunks, deduplicated and ordered in bulk
(:func:`build_inbox`).

Wire format: every message is a row ``(dest, a, b, c)`` where ``a`` is the
single payload identifier for the six single-id types and
``(a, b, c) = (responder, id1, id2)`` for ``reslrl`` (``b``/``c`` may be
the ±∞ sentinels, exactly as on the reference wire).  Unused columns hold
``0.0`` — never ``NaN``, which would break row-wise deduplication
(``NaN != NaN``).

Delivery-order model: the reference channel hands each node a uniformly
random permutation of its pending messages, which the receive action then
processes *sequentially*.  The batched equivalent keys every delivered
message with one uniform draw, sorts by ``(destination, key)``, and
processes the inbox in **waves**: wave *k* holds each destination's
(k+1)-th message, so within a wave every destination appears at most once
and all handlers vectorize without read/write hazards; across waves the
per-node sequential semantics are preserved.  See docs/PERF.md.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import Message, MessageType
from repro.sim.metrics import MessageStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fast.pool import ArrayPool

__all__ = [
    "LIN",
    "INCLRL",
    "RESLRL",
    "RING",
    "RESRING",
    "PROBR",
    "PROBL",
    "N_TYPES",
    "TYPE_OF_CODE",
    "CODE_OF_TYPE",
    "Outbox",
    "PreparedInbox",
    "RoundInbox",
    "build_inbox",
    "draw_delivery_keys",
    "finalize_inbox",
    "prepare_inbox",
    "stable_order",
    "victim_rank",
]

#: Compact message-type codes (array-friendly stand-ins for MessageType).
LIN, INCLRL, RESLRL, RING, RESRING, PROBR, PROBL = range(7)
N_TYPES = 7

TYPE_OF_CODE: tuple[MessageType, ...] = (
    MessageType.LIN,
    MessageType.INCLRL,
    MessageType.RESLRL,
    MessageType.RING,
    MessageType.RESRING,
    MessageType.PROBR,
    MessageType.PROBL,
)

CODE_OF_TYPE: dict[MessageType, int] = {t: c for c, t in enumerate(TYPE_OF_CODE)}

#: Bits of a type code: ``slot << _TYPE_BITS | code`` packs (dest, type).
_TYPE_BITS = 3
#: Staging order of the dedup flush: every single-id type, then ``reslrl``.
_RESLRL_LAST = (LIN, INCLRL, RING, RESRING, PROBR, PROBL, RESLRL)


def _wave_check_enabled() -> bool:
    """Whether the wave-uniqueness assert runs (``REPRO_CHECK_WAVES=1``).

    Read per call so tests can flip the environment without reimporting;
    the check additionally requires ``__debug__`` (``python -O`` strips
    it) because it adds a full sort of the inbox per round.
    """
    return os.environ.get("REPRO_CHECK_WAVES", "").lower() not in ("", "0", "false")

#: One staged batch: ``(dest, a, b, c, origin)``.  ``origin`` is the
#: sender-id column — ``None`` on the fault-free hot path (nothing reads
#: it there) and populated by the kernels so the chaos wire layer can
#: guard-wrap outgoing rows exactly like ``Network.send_from`` does.
_Chunk = tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
]
_KeepFn = Callable[[int, _Chunk], np.ndarray]


class Outbox:
    """Staged outgoing messages, accumulated as per-type array chunks.

    Messages sent during round *t* become receivable in round *t+1*, so the
    outbox doubles as the engine's staging area; :meth:`take_all` is the
    flush.  Send counts accumulate as plain integers and reach the shared
    stats via :meth:`flush_stats` once per round, preserving the reference
    ``Network.send`` contract that counts every send — even one addressed
    to an identifier that no longer exists.
    """

    __slots__ = (
        "_chunks", "_compact_floor", "_counts", "_staged", "auto_compact", "stats",
    )

    #: Below this many staged rows a type is never worth compacting.
    COMPACT_MIN = 4096

    def __init__(self, stats: MessageStats, *, auto_compact: bool = False) -> None:
        self.stats = stats
        self._chunks: list[list[_Chunk]] = [[] for _ in range(N_TYPES)]
        self._counts: list[int] = [0] * N_TYPES
        #: Rows staged per type right now (``sum(len(ch[0]))`` over its
        #: chunks, kept current by every method that touches them).
        self._staged: list[int] = [0] * N_TYPES
        #: Coalesce + dedup staged rows mid-round once a type's backlog
        #: doubles (engine-enabled only under coalescing-set semantics;
        #: the chaos wire needs the raw frame multiset and keeps this off).
        self.auto_compact = auto_compact
        self._compact_floor: list[int] = [self.COMPACT_MIN] * N_TYPES

    def send(
        self,
        code: int,
        dest: np.ndarray,
        a: np.ndarray,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
        origin: np.ndarray | None = None,
    ) -> None:
        """Stage one aligned batch of messages of a single type."""
        count = len(dest)
        if count == 0:
            return
        self._counts[code] += count
        self._staged[code] += count
        chunks = self._chunks[code]
        chunks.append((dest, a, b, c, origin))
        if (
            self.auto_compact
            and len(chunks) >= 8
            and self._staged[code] >= self._compact_floor[code]
        ):
            self._compact_code(code)

    def _compact_code(self, code: int) -> None:
        """Coalesce one type's staged chunks into a single deduped chunk.

        Exact-duplicate rows are removed early — the same rows inbox dedup
        would coalesce at the next flush anyway, so under coalescing-set
        semantics the delivered set is untouched; only the transient RAM
        (and the drop *accounting*, which counts physical rows addressed
        to dead ids) sees the difference.  Send stats are unaffected:
        counts accrue at :meth:`send` time.
        """
        chunks = self._chunks[code]
        dest = np.concatenate([ch[0] for ch in chunks])
        a = np.concatenate([ch[1] for ch in chunks])
        payload = [_bits(a)]
        b: np.ndarray | None = None
        c: np.ndarray | None = None
        if code == RESLRL:
            b = np.concatenate([_col(ch, 2, len(ch[0])) for ch in chunks])
            c = np.concatenate([_col(ch, 3, len(ch[0])) for ch in chunks])
            payload += [_bits(b), _bits(c)]
        # Destinations are raw ids here (no slot table to resolve them
        # against), so their dense rank in bit-pattern order is the head.
        slots, head = np.unique(_bits(dest), return_inverse=True)
        order, _, fresh = _dedup_order(
            head, len(slots).bit_length(), tuple(payload)
        )
        # Of each duplicate group keep the first *staged* copy, whatever
        # order the value sorts left the group in: ``origin`` differs
        # between copies, and it must not depend on the sort kernel.
        keep = np.minimum.reduceat(order, np.flatnonzero(fresh))
        # Origin survives only when every source chunk carried it (the
        # chaos wire keeps auto-compaction off, so fault-free `None`
        # columns simply stay dropped).
        origin: np.ndarray | None = None
        if all(ch[4] is not None for ch in chunks):
            origin = np.concatenate([ch[4] for ch in chunks])[keep]  # type: ignore[misc]
        self._chunks[code] = [
            (
                dest[keep],
                a[keep],
                None if b is None else b[keep],
                None if c is None else c[keep],
                origin,
            )
        ]
        self._staged[code] = len(keep)
        self._compact_floor[code] = max(self.COMPACT_MIN, 2 * len(keep))

    def flush_stats(self) -> None:
        """Transfer accumulated send counts into the shared stats.

        Counting is deferred from :meth:`send` (a plain integer add on the
        hot path) to once per round; the engine flushes before the round
        ends, so between rounds the totals match the reference contract —
        every send counted, including ones later dropped or purged.
        """
        for code, count in enumerate(self._counts):
            if count:
                self.stats.record_sends(TYPE_OF_CODE[code], count)
        self._counts = [0] * N_TYPES

    def take_all(self) -> list[list[_Chunk]]:
        """Remove and return all staged chunks (the per-round flush)."""
        chunks = self._chunks
        self._chunks = [[] for _ in range(N_TYPES)]
        self._staged = [0] * N_TYPES
        return chunks

    # ------------------------------------------------------------------
    # Introspection / churn support
    # ------------------------------------------------------------------
    def pending_by_type(self) -> dict[int, tuple[np.ndarray, ...]]:
        """Concatenated pending arrays per type code (non-destructive).

        Returns ``{code: (dest, a)}`` for single-id types and
        ``{RESLRL: (dest, a, b, c)}``; types with nothing pending are
        omitted.  Used by predicates (in-flight links) and exports.
        """
        out: dict[int, tuple[np.ndarray, ...]] = {}
        for code, chunks in enumerate(self._chunks):
            if not chunks:
                continue
            dest = np.concatenate([ch[0] for ch in chunks])
            a = np.concatenate([ch[1] for ch in chunks])
            if code == RESLRL:
                b = np.concatenate([_col(ch, 2, len(ch[0])) for ch in chunks])
                c = np.concatenate([_col(ch, 3, len(ch[0])) for ch in chunks])
                out[code] = (dest, a, b, c)
            else:
                out[code] = (dest, a)
        return out

    def pending_total(self) -> int:
        """Number of staged messages."""
        return sum(self._staged)

    def pending_messages(self) -> list[tuple[float, Message]]:
        """Materialize pending messages as ``(dest, Message)`` pairs.

        Off the hot path — used only by :meth:`FastSimulator.to_network`
        exports and white-box tests.
        """
        out: list[tuple[float, Message]] = []
        for code, arrays in self.pending_by_type().items():
            mtype = TYPE_OF_CODE[code]
            if code == RESLRL:
                dest, a, b, c = arrays
                for k in range(len(dest)):
                    message = Message(mtype, (float(a[k]), float(b[k]), float(c[k])))
                    out.append((float(dest[k]), message))
            else:
                dest, a = arrays
                for k in range(len(dest)):
                    out.append((float(dest[k]), Message(mtype, (float(a[k]),))))
        return out

    def _filter(self, keep_of_chunk: _KeepFn) -> int:
        removed = 0
        for code, chunks in enumerate(self._chunks):
            fresh: list[_Chunk] = []
            for ch in chunks:
                keep = keep_of_chunk(code, ch)
                kept = int(keep.sum())
                removed += len(ch[0]) - kept
                self._staged[code] -= len(ch[0]) - kept
                if kept == 0:
                    continue
                if kept == len(ch[0]):
                    fresh.append(ch)
                else:
                    fresh.append(
                        (
                            ch[0][keep],
                            ch[1][keep],
                            None if ch[2] is None else ch[2][keep],
                            None if ch[3] is None else ch[3][keep],
                            None if ch[4] is None else ch[4][keep],
                        )
                    )
            self._chunks[code] = fresh
        return removed

    def restage(
        self,
        code: int,
        dest: np.ndarray,
        a: np.ndarray,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
        origin: np.ndarray | None = None,
    ) -> None:
        """Re-stage rows without counting a send.

        Used by the wave-dispatch scheduler fault to defer starved inbox
        rows to the next round: the original sends were already counted
        when first staged, so deferral must not inflate the stats.
        """
        if len(dest) == 0:
            return
        self._staged[code] += len(dest)
        self._chunks[code].append((dest, a, b, c, origin))

    def drop_and_purge_batch(self, victims: np.ndarray) -> int:
        """Remove staged rows addressed to or mentioning departing nodes.

        One vectorized pass equivalent to the scalar per-victim sequence
        ``drop_dest(v); purge_mentions(v)`` over *victims* in ascending id
        order (``FastEngine.leave``'s contract).  Returns how many removed
        rows that sequence would have *counted* as destination drops: a row
        dies counted iff the first victim (ascending) that touches it does
        so as its destination — ``d <= m`` where ``d``/``m`` are the victim
        ranks of the destination / earliest payload mention (a strictly
        earlier mention purges the row, uncounted, before the destination
        victim's own drop pass reaches it).
        """
        victims = np.ascontiguousarray(victims, dtype=np.float64)
        if len(victims) == 0:
            return 0
        victims = np.sort(victims)
        absent = len(victims)
        counted = 0
        for code, chunks in enumerate(self._chunks):
            fresh: list[_Chunk] = []
            for ch in chunks:
                d = victim_rank(ch[0], victims)
                m = victim_rank(ch[1], victims)
                if code == RESLRL and ch[2] is not None and ch[3] is not None:
                    m = np.minimum(m, victim_rank(ch[2], victims))
                    m = np.minimum(m, victim_rank(ch[3], victims))
                doomed = (d < absent) | (m < absent)
                counted += int((doomed & (d <= m)).sum())
                kept = int(len(ch[0]) - doomed.sum())
                self._staged[code] -= len(ch[0]) - kept
                if kept == 0:
                    continue
                if kept == len(ch[0]):
                    fresh.append(ch)
                    continue
                keep = ~doomed
                fresh.append(
                    (
                        ch[0][keep],
                        ch[1][keep],
                        None if ch[2] is None else ch[2][keep],
                        None if ch[3] is None else ch[3][keep],
                        None if ch[4] is None else ch[4][keep],
                    )
                )
            self._chunks[code] = fresh
        return counted

    def drop_dest(self, nid: float) -> int:
        """Drop staged messages addressed to *nid* (node removal)."""
        return self._filter(lambda code, ch: ch[0] != nid)

    def purge_mentions(self, nid: float) -> int:
        """Drop staged messages whose payload mentions *nid*.

        The array analogue of ``Network.purge_identifier`` restricted to
        staging (between rounds the channels are empty, so staging is the
        entire in-flight set).
        """

        def keep(code: int, ch: _Chunk) -> np.ndarray:
            hit = ch[1] == nid
            if code == RESLRL and ch[2] is not None and ch[3] is not None:
                hit = hit | (ch[2] == nid) | (ch[3] == nid)
            return ~hit

        return self._filter(keep)


def victim_rank(values: np.ndarray, victims: np.ndarray) -> np.ndarray:
    """Rank of each value in *victims* (sorted ascending, nonempty).

    Returns ``len(victims)`` where the value is not a victim — an "absent"
    sentinel that compares greater than every real rank, so the batched
    ``d <= m`` accounting in :meth:`Outbox.drop_and_purge_batch` reduces to
    elementwise integer comparisons.
    """
    pos = np.searchsorted(victims, values)
    clipped = np.minimum(pos, len(victims) - 1)
    return np.where(victims[clipped] == values, clipped, len(victims))


def _col(ch: _Chunk, position: int, count: int) -> np.ndarray:
    column = ch[position]
    if column is None:
        return np.zeros(count, dtype=np.float64)
    return column


def _bits(column: np.ndarray) -> np.ndarray:
    """A float64 column as raw bit patterns: the dedup compares *bits* (ids,
    the ±∞ sentinels and the 0.0 filler are all distinct patterns, and
    ``-0.0`` must not coalesce with ``0.0`` the way float ``==`` would)."""
    return np.ascontiguousarray(column).view(np.uint64)


def stable_order(key: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(np.argsort(key, kind="stable"), key[that order])`` by a value sort.

    *key* holds non-negative int64 values below ``2**key_bits``.  Packing
    each row's position under its key gives distinct words, so an unstable
    in-place value sort of the words is exact, and ascending position
    within equal keys *is* the stable tiebreak; permutation and sorted
    keys are then read back out of the words.  The value sort is several
    times cheaper than the indirect stable sort it stands in for
    (docs/PERF.md §2).  When key and position do not fit one int64 together
    the stable sort itself runs.
    """
    shift = len(key).bit_length()
    if key_bits + shift > 63:
        order = np.argsort(key, kind="stable")
        return order, key[order]
    words = key << np.int64(shift)
    words |= np.arange(len(key), dtype=np.int64)
    words.sort()
    order = words & np.int64((1 << shift) - 1)
    words >>= np.int64(shift)
    return order, words


def _argsort_ties_stable(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(keys, kind="stable")`` and the sorted keys, paying for
    stability only on a tie.

    Distinct keys sort to one permutation under any algorithm, so the
    default sort answers; two equal keys (seen as equal neighbours once
    sorted) leave their order to the algorithm — which differs between
    SIMD levels — so that case redoes the sort stably.
    """
    order = np.argsort(keys)
    ranked = keys[order]
    if bool((ranked[1:] == ranked[:-1]).any()):
        order = np.argsort(keys, kind="stable")
    return order, ranked


def _dedup_order(
    head: np.ndarray, head_bits: int, payload: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows by ``(head, *payload)`` and mark each distinct row's first copy.

    *head* is a non-negative int64 column below ``2**head_bits``; *payload*
    holds the remaining key columns as raw bits, most significant first.
    Returns ``(order, head[order], fresh)``.  Rows that tie on every key
    are bit-identical and come out adjacent but in no particular order
    (the minor pass is an unstable sort): callers may keep any one copy,
    or the group's minimum of ``order`` for the first one staged.
    """
    if len(payload) == 1:
        minor = np.argsort(payload[0])
        position, sorted_head = stable_order(head[minor], head_bits)
        order = minor[position]
    else:
        order = np.lexsort((*payload[::-1], head))
        sorted_head = head[order]
    fresh = np.empty(len(order), dtype=bool)
    fresh[0] = True
    np.not_equal(sorted_head[1:], sorted_head[:-1], out=fresh[1:])
    for column in payload:
        ranked = column[order]
        fresh[1:] |= ranked[1:] != ranked[:-1]
    return order, sorted_head, fresh


@dataclass
class RoundInbox:
    """One round's deliverable messages, ordered for wave processing.

    Rows are sorted by ``(dest_idx, uniform key)``; ``rank`` is each row's
    position within its destination's segment, so ``rank == k`` selects
    wave *k* (at most one message per destination).  ``dest_idx`` and
    ``rank`` are int32 — the slot-count and wave-count ceilings are far
    below 2^31, and at 2^18 nodes the narrower index columns are a real
    slice of the round's peak RSS.
    """

    dest_idx: np.ndarray
    tcode: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rank: np.ndarray
    n_waves: int

    def __len__(self) -> int:
        return len(self.dest_idx)


@dataclass
class PreparedInbox:
    """Resolved, deduped rows in *canonical order*, before delivery keys.

    The halfway point of :func:`build_inbox`: destinations are resolved to
    slots, dead destinations dropped, and (under ``dedup``) exact
    duplicates coalesced with the rows re-emitted in the content-determined
    canonical order — destination-slot-major, non-``reslrl`` block first,
    ``reslrl`` block last.  Canonical order is a pure function of the row
    *set*, independent of staging order; the sharded engine leans on this
    to draw one global delivery-key array and scatter contiguous slices to
    shards (slot blocks are id-contiguous, so the global canonical order is
    the shard-ascending concatenation of per-shard canonical orders).

    ``n_res`` counts the trailing ``reslrl`` rows (only meaningful under
    ``dedup``, where the block is a suffix).  ``packed_ok`` reports whether
    every slot index fits the packed 21+42-bit sort encoding.
    """

    dest_idx: np.ndarray
    tcode: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_res: int
    packed_ok: bool

    def __len__(self) -> int:
        return len(self.dest_idx)


def prepare_inbox(
    chunks: list[list[_Chunk]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    *,
    dedup: bool,
    pool: "ArrayPool | None" = None,
) -> tuple[PreparedInbox | None, int]:
    """Concatenate, resolve, drop and dedup last round's staged chunks.

    The RNG-free front half of :func:`build_inbox`; see there for the
    parameter contract.  With *pool*, the big per-round concatenation
    temporaries come from recycled buffers (the pool is reclaimed here, at
    the top of the round, when the previous round's views are dead).
    """
    if pool is not None:
        pool.reclaim()
    # Under dedup the output order is content-determined, so the reslrl
    # chunks — the only rows with b/c payloads — are staged last and the two
    # dedup blocks are plain slices.  Without it rows are emitted in staging
    # order, type-ascending (the pinned chaos wire traces depend on that).
    stage_order = _RESLRL_LAST if dedup else tuple(range(N_TYPES))
    counts = [sum(len(ch[0]) for ch in chunks[code]) for code in stage_order]
    total = sum(counts)
    if total == 0:
        return None, 0
    staged = [ch for code in stage_order for ch in chunks[code]]
    dests = [ch[0] for ch in staged]
    cols_a = [ch[1] for ch in staged]
    if pool is None:
        dest_id = np.concatenate(dests)
        a = np.concatenate(cols_a)
        b = np.zeros(total, dtype=np.float64)
        c = np.zeros(total, dtype=np.float64)
    else:
        dest_id = np.concatenate(dests, out=pool.take(total, np.float64))
        a = np.concatenate(cols_a, out=pool.take(total, np.float64))
        # Only reslrl carries payload columns b/c; fill the rest with the
        # 0.0 filler in one allocation instead of zero-chunks per send.
        b = pool.zeros(total, np.float64)
        c = pool.zeros(total, np.float64)
    tcode = np.repeat(np.array(stage_order, dtype=np.int8), counts)
    if chunks[RESLRL]:
        at = stage_order.index(RESLRL)
        lo = sum(counts[:at])
        hi = lo + counts[at]
        b[lo:hi] = np.concatenate(
            [_col(ch, 2, len(ch[0])) for ch in chunks[RESLRL]]
        )
        c[lo:hi] = np.concatenate(
            [_col(ch, 3, len(ch[0])) for ch in chunks[RESLRL]]
        )

    dest_idx, found = lookup(dest_id)
    dropped = int(len(found) - found.sum())
    if dropped:
        dest_idx = dest_idx[found]
        tcode = tcode[found]
        a, b, c = a[found], b[found], c[found]
    if len(dest_idx) == 0:
        return None, dropped
    n_res = int((tcode == RESLRL).sum())
    top_slot = int(dest_idx.max())

    if dedup:
        # Exact row dedup via integer keys: (dest, type) packed into one
        # int64 ``head`` plus the payload columns as raw bits (NaN never
        # goes on the wire).  The reslrl rows dedup on (head, a, b, c);
        # everything else — nine rows in ten — on just (head, a), which
        # :func:`_dedup_order` sorts without a comparison sort.  Survivors
        # come out in sorted-key (canonical) order, reslrl block last;
        # slot and type are read back out of the sorted heads.
        head = np.left_shift(dest_idx, _TYPE_BITS, dtype=np.int64)
        head |= tcode
        head_bits = (top_slot + 1).bit_length() + _TYPE_BITS
        split = len(head) - n_res
        kept_heads: list[np.ndarray] = []
        kept_rows: list[np.ndarray] = []
        for lo, hi, columns in ((0, split, (a,)), (split, len(head), (a, b, c))):
            if lo == hi:
                continue
            order, sorted_head, fresh = _dedup_order(
                head[lo:hi], head_bits, tuple(_bits(col[lo:hi]) for col in columns)
            )
            kept_heads.append(sorted_head[fresh])
            kept_rows.append(order[fresh] + lo)
        kept_head = np.concatenate(kept_heads)
        rows = np.concatenate(kept_rows)
        n_res = len(kept_rows[-1]) if n_res else 0
        dest_idx = kept_head >> np.int64(_TYPE_BITS)
        tcode = (kept_head & np.int64((1 << _TYPE_BITS) - 1)).astype(np.int8)
        a, b, c = a[rows], b[rows], c[rows]

    return (
        PreparedInbox(
            dest_idx=dest_idx.astype(np.int32, copy=False),
            tcode=tcode,
            a=a,
            b=b,
            c=c,
            n_res=n_res,
            packed_ok=top_slot < (1 << 21),
        ),
        dropped,
    )


def draw_delivery_keys(
    rng: np.random.Generator, count: int, *, packed_ok: bool
) -> np.ndarray:
    """One uniform delivery key per prepared row, in canonical row order.

    Integer keys feed the packed one-word sort encoding; beyond 2M slots
    the encoding overflows and float keys feed a two-pass sort instead.
    The draw sits in the exact stream position :func:`build_inbox` always
    used, so splitting the assembly is invisible to seeded runs.
    """
    if packed_ok:
        return rng.integers(0, 1 << 42, size=count, dtype=np.int64)  # repro-flow: ignore[flow-branch-rng] both branches draw exactly once per inbox row; the branch picks the sort encoding, not the draw count
    return rng.random(count)


def finalize_inbox(pre: PreparedInbox, keys: np.ndarray) -> RoundInbox:
    """Order prepared rows by ``(dest, key)`` and assign wave ranks.

    *keys* aligns with *pre*'s canonical row order — either int64 (packed
    ``dest << 42 | key`` words, requires ``pre.packed_ok``) or float64
    (key pass, then destination pass).  Key ties fall back to canonical
    position order (:func:`_argsort_ties_stable`): an exchangeable
    tiebreak, still a uniform delivery order, and — crucially for the
    sharded engine — a *content-determined* one.
    """
    if keys.dtype == np.int64:
        packed = pre.dest_idx.astype(np.int64) << np.int64(42)
        packed |= keys
        order, packed = _argsort_ties_stable(packed)
        packed >>= np.int64(42)
        dest_idx = packed.astype(pre.dest_idx.dtype)
    else:
        minor, _ = _argsort_ties_stable(keys)
        position, sorted_dest = stable_order(
            pre.dest_idx[minor].astype(np.int64), 31
        )
        order = minor[position]
        dest_idx = sorted_dest.astype(pre.dest_idx.dtype)
    tcode = pre.tcode[order]
    a, b, c = pre.a[order], pre.b[order], pre.c[order]

    count = len(dest_idx)
    positions = np.arange(count, dtype=np.int32)
    boundary = np.empty(count, dtype=bool)
    boundary[0] = True
    boundary[1:] = dest_idx[1:] != dest_idx[:-1]
    segment_start = np.maximum.accumulate(np.where(boundary, positions, 0))
    rank = positions - segment_start
    n_waves = int(rank.max()) + 1
    if __debug__ and _wave_check_enabled():
        # The unique-destination wave precondition every vectorized kernel
        # relies on: within one wave (rank value) each destination slot
        # appears at most once.  Holds by construction of ``rank`` —
        # packing (rank, dest) must therefore be duplicate-free.
        packed_wave = rank.astype(np.int64) * np.int64(
            int(dest_idx.max()) + 1
        ) + dest_idx
        assert np.unique(packed_wave).size == count, (
            "wave precondition violated: duplicate destination within a wave"
        )
    return RoundInbox(
        dest_idx=dest_idx,
        tcode=tcode,
        a=a,
        b=b,
        c=c,
        rank=rank,
        n_waves=n_waves,
    )


def build_inbox(
    chunks: list[list[_Chunk]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    *,
    dedup: bool,
    pool: "ArrayPool | None" = None,
) -> tuple[RoundInbox | None, int]:
    """Assemble the round's inbox from last round's staged chunks.

    The composition :func:`prepare_inbox` → :func:`draw_delivery_keys` →
    :func:`finalize_inbox`; the split stages exist so the sharded engine
    can interpose the coordinator's key draw between them.

    Parameters
    ----------
    chunks:
        The outbox's :meth:`Outbox.take_all` result.
    lookup:
        Vectorized id→index resolution (``SoAState.lookup``); unresolved
        destinations are dropped and counted (second return value), the
        batched analogue of the reference network's drop-on-flush.
    rng:
        Draws the uniform delivery-ordering keys — the round's single
        batched RNG call for delivery order.
    dedup:
        Coalesce identical ``(dest, type, payload)`` rows, the array
        analogue of the reference channel's coalescing-set mode
        (DESIGN.md §4.7); ``False`` preserves multiset semantics.
    pool:
        Optional :class:`~repro.sim.fast.pool.ArrayPool` recycling the
        concatenation temporaries across rounds.
    """
    pre, dropped = prepare_inbox(chunks, lookup, dedup=dedup, pool=pool)
    if pre is None:
        return None, dropped
    keys = draw_delivery_keys(rng, len(pre), packed_ok=pre.packed_ok)
    return finalize_inbox(pre, keys), dropped
