"""Typed per-round message buffers for the batched engine.

The reference engine allocates one frozen :class:`~repro.core.messages.Message`
dataclass per send and drains them one at a time.  The batched engine
never materializes message objects on the hot path: a send is an *array
append* — ``(destination ids, payload columns)`` chunks accumulated per
message type in an :class:`Outbox` — and a round's inbox is the
concatenation of last round's chunks, resolved and deduplicated in bulk
(:func:`prepare_inbox`) and keyed for delivery (:func:`draw_delivery_keys`).

Wire format: every message is a row ``(dest, a)`` where ``a`` is the
single payload identifier for the six single-id types; a ``reslrl`` row
also carries ``(b, c)``, so ``(a, b, c) = (responder, id1, id2)`` (``b``/
``c`` may be the ±∞ sentinels, exactly as on the reference wire).  Only
``reslrl`` rows pay for ``b``/``c``: from the staging concatenation
(:func:`staged_rows`) through the prepared and the round inbox they are
columns as long as the ``reslrl`` rows, aligned with those rows in row
order (``flatnonzero(tcode == RESLRL)``), and a row's *reslrl ordinal* —
its position among them — indexes them.  Only :meth:`Outbox.rows`, the
in-flight reader of the predicates and monitors, expands them to full
length, with ``0.0`` on every other row.

Delivery-order model: the reference channel hands each node a uniformly
random permutation of its pending messages, which the receive action then
processes *sequentially*.  The batched equivalent keys every delivered
message with one uniform 42-bit integer draw (:func:`draw_delivery_keys`),
the one key type at every slot count: a node takes
its rows in ``(key, canonical position)`` order.  The round never sorts
its whole inbox by that order.  A node with at most one row that may
store into it places every other row against that one *writer* with one
compare; only the rows of nodes where two writers may meet go through
:func:`finalize_inbox`, which sorts them by ``(destination, key)`` and
ranks them in **waves** — wave *k* holds each destination's (k+1)-th
message, so within a wave every destination appears at most once
(``repro.sim.fast.batched``, docs/PERF.md §2).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.core.messages import MessageType
from repro.sim.fast.sanitize import sanitize_enabled
from repro.sim.metrics import MessageStats

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
    "departure_sweep",
    "draw_delivery_keys",
    "finalize_inbox",
    "prepare_inbox",
    "stable_order",
    "staged_rows",
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
#: Type-ascending order: how :meth:`Outbox.rows` lists every type.
_TYPE_ORDER = tuple(range(N_TYPES))
#: Staging order of the flush: every single-id type, then ``reslrl``.
_RESLRL_LAST = (LIN, INCLRL, RING, RESRING, PROBR, PROBL, RESLRL)


#: Whether the wave-uniqueness asserts run: under the flow sanitizer's
#: switch (``REPRO_SANITIZE=1``), read per call so tests can flip the
#: environment without reimporting.  Each call site also requires
#: ``__debug__`` (``python -O`` strips it), because a check adds a full
#: sort of the inbox per round.
_wave_check_enabled = sanitize_enabled

#: One staged batch: ``(dest, a, b, c, origin)``.  ``origin`` is the
#: sender-id column: the kernels gather it only into an outbox whose
#: ``keep_origin`` is set — the chaos wire's, which guard-wraps outgoing
#: rows and addresses acks exactly like ``Network.send_from`` does — and
#: stage ``None`` everywhere else, where nothing reads it.
_Chunk = tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
]


class Outbox:
    """Staged outgoing messages, accumulated as per-type array chunks.

    Messages sent during round *t* become receivable in round *t+1*, so the
    outbox doubles as the engine's staging area; :meth:`take_all` is the
    flush.  Send counts accumulate as plain integers and reach the shared
    stats via :meth:`flush_stats` once per round, preserving the reference
    ``Network.send`` contract that counts every send — even one addressed
    to an identifier that no longer exists.
    """

    __slots__ = ("_chunks", "_counts", "_staged", "keep_origin", "stats")

    def __init__(self, stats: MessageStats) -> None:
        self.stats = stats
        self._chunks: list[list[_Chunk]] = [[] for _ in range(N_TYPES)]
        self._counts: list[int] = [0] * N_TYPES
        #: Rows staged per type right now (``sum(len(ch[0]))`` over its
        #: chunks, kept current by every method that touches them).
        self._staged: list[int] = [0] * N_TYPES
        #: Whether the kernels stage the sender-id column (``origin``);
        #: only the chaos wire reads it, and only its engine sets this.
        self.keep_origin = False

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
        self._chunks[code].append((dest, a, b, c, origin))

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
    def rows(self, code: int | None = None) -> tuple[np.ndarray, ...]:
        """The staged rows of type *code* (every type, ascending, when
        ``None``) as full-length ``(dest, tcode, a, b, c)`` columns, ``b``/
        ``c`` the ``0.0`` filler off ``reslrl``; non-destructive."""
        dest, tcode, a, b_res, c_res = staged_rows(
            self._chunks, _TYPE_ORDER if code is None else (code,)
        )
        res = tcode == RESLRL
        b = np.zeros(len(dest), dtype=np.float64)
        c = np.zeros(len(dest), dtype=np.float64)
        b[res] = b_res
        c[res] = c_res
        return dest, tcode, a, b, c

    def pending_total(self) -> int:
        """Number of staged messages."""
        return sum(self._staged)

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

        The array analogue of ``Network.remove_node`` +
        ``purge_identifier`` restricted to staging (between rounds the
        channels are empty, so staging is the entire in-flight set).
        Returns how many removed rows count as destination drops, by the
        ``d <= m`` rule of :func:`departure_sweep`.
        """
        victims = np.sort(np.ascontiguousarray(victims, dtype=np.float64))
        if len(victims) == 0:
            return 0
        counted = 0
        for code, chunks in enumerate(self._chunks):
            fresh: list[_Chunk] = []
            for ch in chunks:
                payload = ch[1:4] if code == RESLRL else ch[1:2]
                doomed, drops = departure_sweep(victims, ch[0], *payload)
                counted += int(drops.sum())
                n_doomed = int(doomed.sum())
                self._staged[code] -= n_doomed
                if n_doomed == 0:
                    fresh.append(ch)
                elif n_doomed < len(ch[0]):
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


def victim_rank(values: np.ndarray, victims: np.ndarray) -> np.ndarray:
    """Rank of each value in *victims* (sorted ascending, nonempty).

    Returns ``len(victims)`` where the value is not a victim — an "absent"
    sentinel that compares greater than every real rank, so the ``d <= m``
    rule of :func:`departure_sweep` reduces to elementwise integer
    comparisons.
    """
    pos = np.searchsorted(victims, values)
    clipped = np.minimum(pos, len(victims) - 1)
    return np.where(victims[clipped] == values, clipped, len(victims))


def departure_sweep(
    victims: np.ndarray,
    dest: np.ndarray,
    a: np.ndarray,
    b: np.ndarray | None = None,
    c: np.ndarray | None = None,
    lrl: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Which in-flight rows a departure batch kills, and which it counts.

    The one statement of the membership purge (paper §IV-G) that every
    in-flight store of the SoA engines — outbox, chaos wire, guard — runs.
    Departing *victims* (sorted ascending, nonempty) one at a time, in
    ascending order, a row dies when a victim is its destination (a drop,
    counted) or is named in its payload (a purge, uncounted), whichever
    happens first.  With ``d``/``m`` the victim ranks of the destination
    and of the earliest payload mention, a row dies iff either exists, and
    dies counted iff ``d <= m``: a strictly earlier mention purges it
    before its destination's drop reaches it.

    The payload is ``a``, plus ``b``/``c`` (``reslrl``'s neighbour ids) on
    the rows *lrl* marks — every row when *lrl* is ``None``.  Returns the
    boolean masks ``(doomed, counted)``, ``counted`` within ``doomed``.
    """
    absent = len(victims)
    d = victim_rank(dest, victims)
    m = victim_rank(a, victims)
    if b is not None and c is not None:
        mention = np.minimum(
            m, np.minimum(victim_rank(b, victims), victim_rank(c, victims))
        )
        m = mention if lrl is None else np.where(lrl, mention, m)
    doomed = (d < absent) | (m < absent)
    return doomed, doomed & (d <= m)


def staged_rows(
    chunks: list[list[_Chunk]], order: tuple[int, ...]
) -> tuple[np.ndarray, ...]:
    """Staged *chunks* as ``(dest, tcode, a, b, c)`` columns, the types in
    *order* and each type's chunks in staging order (non-destructive).

    ``dest``, ``tcode`` and ``a`` hold every row; ``b``/``c`` hold the
    ``reslrl`` rows' neighbour ids only, in row order (empty when *order*
    holds no ``reslrl``).
    """
    counts = [sum(len(ch[0]) for ch in chunks[code]) for code in order]
    empty = np.empty(0, dtype=np.float64)
    res = chunks[RESLRL] if RESLRL in order else []
    b = np.concatenate([empty, *(_col(ch, 2, len(ch[0])) for ch in res)])
    c = np.concatenate([empty, *(_col(ch, 3, len(ch[0])) for ch in res)])
    if sum(counts) == 0:
        return empty, np.empty(0, dtype=np.int8), empty, b, c
    staged = [ch for code in order for ch in chunks[code]]
    dest = np.concatenate([ch[0] for ch in staged])
    a = np.concatenate([ch[1] for ch in staged])
    tcode = np.repeat(np.array(order, dtype=np.int8), counts)
    return dest, tcode, a, b, c


def _col(ch: _Chunk, position: int, count: int) -> np.ndarray:
    column = ch[position]
    if column is None:
        return np.zeros(count, dtype=np.float64)
    return column


def _bits(column: np.ndarray) -> np.ndarray:
    """A float64 column as raw bit patterns: the dedup compares *bits* (ids,
    the ±∞ sentinels and ``0.0`` are all distinct patterns, and
    ``-0.0`` must not coalesce with ``0.0`` the way float ``==`` would)."""
    return np.ascontiguousarray(column).view(np.uint64)


def stable_order(
    key: np.ndarray, key_bits: int, dtype: type = np.intp
) -> tuple[np.ndarray, np.ndarray]:
    """``(np.argsort(key, kind="stable"), key[that order])`` by a value sort.

    *key* holds non-negative int32 or int64 values below ``2**key_bits``.
    Packing each row's position under its key gives distinct words, so an
    unstable in-place value sort of the words is exact, and ascending
    position within equal keys *is* the stable tiebreak; permutation and
    sorted keys are then read back out of the words.  The value sort is
    several times cheaper than the indirect stable sort it stands in for
    (docs/PERF.md §2), and the words are int32 — half the bytes to sort —
    whenever key and position fit 31 bits, int64 up to 63; past that the
    stable sort itself runs.  The order comes back in *dtype*, the one it
    will index in (intp by default: numpy gathers through an int32 index
    about half as fast, docs/PERF.md "Gather index dtype"); the sorted
    keys in *key*'s dtype.
    """
    count = len(key)
    shift = count.bit_length()
    if key_bits + shift > 63:
        order = np.argsort(key, kind="stable")
        return order.astype(dtype, copy=False), key[order]
    word = np.int32 if key_bits + shift <= 31 else np.int64
    words = key.astype(word)
    words <<= word(shift)
    words |= np.arange(count, dtype=word)
    words.sort()
    order = (words & word((1 << shift) - 1)).astype(dtype, copy=False)
    words >>= word(shift)
    return order, words.astype(key.dtype, copy=False)


def _key_bits(count: int, top_slot: int) -> int:
    """How many top bits of a 42-bit delivery key fit one int64 word
    beside a slot of at most *top_slot* and a position below
    ``2**count.bit_length()`` (:func:`finalize_inbox`)."""
    return min(42, 63 - count.bit_length() - top_slot.bit_length())


def _truncated_order(
    slots: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(order, slots[order])`` of the stable sort by ``(slot, key)``, by
    one value sort of ``(slot, truncated key, position)`` words.

    ``None`` when the words cannot decide it: no key bit fits, or two rows
    of one slot agree on every key bit that does.
    """
    count = len(keys)
    shift = count.bit_length()
    key_bits = _key_bits(count, int(slots.max()))
    if key_bits <= 0:
        return None
    words = slots.astype(np.int64)
    words <<= np.int64(key_bits)
    words |= keys >> np.int64(42 - key_bits)
    words <<= np.int64(shift)
    words |= np.arange(count, dtype=np.int64)
    words.sort()
    order = words & np.int64((1 << shift) - 1)
    words >>= np.int64(shift)
    if bool((words[1:] == words[:-1]).any()):
        return None
    words >>= np.int64(key_bits)
    return order, words.astype(slots.dtype)


def _dedup_order(
    head: np.ndarray, head_bits: int, payload: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort rows by ``(head, *payload)`` and mark one copy of each distinct row.

    The dedup of :func:`prepare_inbox`, once per block.  *head* is a
    non-negative int64 column below ``2**head_bits``; *payload* holds the
    remaining key columns as raw bits, most significant first.  Returns
    ``(order, head[order], fresh)``, ``fresh`` marking the first row of
    each run of equal keys.  Rows that tie on every key are bit-identical
    and come out adjacent but in no particular order, so which copy is
    marked does not show in the prepared inbox.

    One value sort of ``head << (c+S) | code << S | position`` words does
    it, ``code`` the first payload column's :func:`_payload_code` in the
    ``c`` bits left beside the head and ``S`` position bits.  The code is
    non-decreasing in the payload, so rows whose ``(head, code)`` differ
    are in payload order already; rows that share it are either copies of
    one row (the duplicates the dedup is for) or a *clash*, two different
    payloads under one code.  The payload columns are compared only where
    sorted words tie (:func:`_tied_rows_differ`); when any of those rows
    differ, the runs that hold a clash are re-sorted by their payload
    columns (``lexsort``).  Unless a wire delays frames or a wave fault
    defers rows, a node receives at most one ``reslrl`` a round, so that
    block's heads are distinct and every row is its own first copy; an identifier's
    code is ``floor(id * (2**c - 2))``, so a clash needs two identifiers
    closer than ``2**-c`` sent to one node, as one type, in one round.
    """
    count = len(head)
    shift = count.bit_length()
    code_bits = min(53, 63 - head_bits - shift)
    if code_bits > 0:
        words = head << np.int64(code_bits)
        words |= _payload_code(payload[0], code_bits)
        words <<= np.int64(shift)
        words |= np.arange(count, dtype=np.int64)
        words.sort()
        order = words & np.int64((1 << shift) - 1)
        words >>= np.int64(shift)
    else:  # no bit left for a code (2**31 rows): one lexsort decides
        order = np.lexsort((*payload[::-1], head))
        words = head[order]
        code_bits = 0
    tied = words[1:] == words[:-1]
    fresh = np.empty(count, dtype=bool)
    fresh[0] = True
    np.logical_not(tied, out=fresh[1:])
    if _tied_rows_differ(order, tied, payload):
        ranked = [column[order] for column in payload]
        differ = _neighbours_differ(ranked)
        differ = _sort_clashes(order, ranked, tied, tied & differ)
        del ranked
        fresh[1:] |= differ
    words >>= np.int64(code_bits)
    return order, words, fresh


def _tied_rows_differ(
    order: np.ndarray, tied: np.ndarray, payload: tuple[np.ndarray, ...]
) -> bool:
    """Whether any row continuing a run of equal sorted words
    (``tied[i]``: row ``i + 1`` of *order* continues row ``i``'s) differs
    from the row before it in a payload column: a clash
    (:func:`_dedup_order`).  Only the tied positions are gathered."""
    after = np.flatnonzero(tied)
    if len(after) == 0:
        return False
    after += 1
    before = order[after - 1]
    after = order[after]
    return any(
        bool((column[after] != column[before]).any()) for column in payload
    )


def _sort_clashes(
    order: np.ndarray, ranked: list[np.ndarray], tied: np.ndarray, clash: np.ndarray
) -> np.ndarray:
    """Re-sort by payload, in place, every run of equal sorted words that
    holds a clash (:func:`_dedup_order`); the new neighbour differences.

    *ranked* are the payload columns in *order*; ``tied[i]`` says row
    ``i + 1`` continues row ``i``'s run, ``clash[i]`` that it does so with
    a different payload.
    """
    run = np.cumsum(np.concatenate(([True], ~tied)))
    bad = np.zeros(int(run[-1]) + 1, dtype=bool)
    bad[run[1:][clash]] = True
    rows = np.flatnonzero(bad[run])
    keys = [column[rows] for column in ranked[::-1]]
    moved = rows[np.lexsort((*keys, run[rows]))]
    order[rows] = order[moved]
    for column in ranked:
        column[rows] = column[moved]
    return _neighbours_differ(ranked)


def _neighbours_differ(columns: list[np.ndarray]) -> np.ndarray:
    """Whether each row differs from the one before it in any column."""
    differ = columns[0][1:] != columns[0][:-1]
    for column in columns[1:]:
        differ |= column[1:] != column[:-1]
    return differ


def _payload_code(bits: np.ndarray, code_bits: int) -> np.ndarray:
    """A non-decreasing map of float64 bit patterns, ordered as ``uint64``,
    onto ``[0, 2**code_bits)``, ``code_bits <= 53``.

    Patterns order as ``uint64`` like their values for ``+0.0`` up to
    ``+inf`` and every sign-bit pattern above those, so values in
    ``[0, 1]`` — every identifier — spread over ``floor(x * (2**c - 2))``
    (exact: the scale is an integer below ``2**53``, and rounding and
    ``floor`` keep order), larger ones and ``+NaN`` take the code of 1.0,
    and anything with the sign bit set the top code.  The product is cast
    into the code column a block at a time.
    """
    top = (1 << code_bits) - 1
    value = bits.view(np.float64)
    scaled = np.fmin(value, 1.0)
    np.fmax(scaled, 0.0, out=scaled)
    code = np.empty(len(bits), dtype=np.int64)
    np.multiply(scaled, float(top - 1), out=code, casting="unsafe")
    del scaled
    code[np.signbit(value)] = top
    return code


@dataclass
class RoundInbox:
    """Prepared rows in delivery order, ranked in waves (:func:`finalize_inbox`).

    Rows are sorted by ``(dest_idx, uniform key)``; ``rank`` is each row's
    position within its destination's segment, so ``rank == k`` selects
    wave *k* (at most one message per destination), and ``position`` is
    each row's position in the prepared inbox it was ordered from.  The
    batched round orders only the rows of its nodes where two writers may
    meet this way (``repro.sim.fast.batched.receive_steps``).  ``dest_idx`` and
    ``rank`` are *held* as int32 — the slot-count and wave-count ceilings
    are far below 2^31, and at 2^18 nodes the narrower columns are a real
    slice of the round's peak RSS — but numpy gathers through an int32
    index about half as fast as through intp, so a reader that indexes
    with slots widens the slice it indexes with first
    (``dest_idx[rows].astype(np.intp)``; docs/PERF.md "Gather index
    dtype").  ``b``/``c`` hold the ``reslrl`` rows' neighbour ids only,
    aligned with ``flatnonzero(tcode == RESLRL)``: a ``reslrl`` row's ids
    sit at its reslrl ordinal.
    """

    dest_idx: np.ndarray
    tcode: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    rank: np.ndarray
    n_waves: int
    position: np.ndarray

    def __len__(self) -> int:
        return len(self.dest_idx)


@dataclass
class PreparedInbox:
    """Resolved, deduped rows in *canonical order*, before delivery keys.

    The halfway point of :func:`build_inbox`: destinations are resolved to
    slots, dead destinations dropped, and exact duplicates coalesced with
    the rows re-emitted in the content-determined canonical order —
    destination-slot-major, non-``reslrl`` block first, ``reslrl`` block
    last.  Canonical order is a pure function of the row *set*,
    independent of staging order; the sharded engine leans on this to draw
    one global delivery-key array and scatter contiguous slices to shards
    (slot blocks are id-contiguous, so the global canonical order is the
    shard-ascending concatenation of per-shard canonical orders).

    ``n_res`` counts the ``reslrl`` rows, and ``b``/``c`` hold their
    neighbour ids only, in block order.  ``dest_idx`` is int32, as in
    :class:`RoundInbox`.
    :func:`finalize_inbox` consumes a prepared inbox: it empties each
    column once gathered.
    """

    dest_idx: np.ndarray
    tcode: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_res: int

    def __len__(self) -> int:
        return len(self.dest_idx)

    @property
    def res_lo(self) -> int:
        """Position of the ``reslrl`` block's first row, the suffix: a
        row's reslrl ordinal is its position less this."""
        return len(self) - self.n_res


def prepare_inbox(
    chunks: list[list[_Chunk]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[PreparedInbox | None, int]:
    """Concatenate, resolve, drop and dedup last round's staged chunks.

    The RNG-free front half of :func:`build_inbox`; see there for the
    parameter contract.  *chunks* is read, never emptied.  Each temporary
    is dropped once read (the round's traced peak is set here,
    docs/PERF.md "Round-scoped buffers").
    """
    # The output order is content-determined, so the reslrl chunks — the
    # only rows with b/c payloads — are staged last and the two dedup
    # blocks are plain slices.
    dest_id, tcode, a, b, c = staged_rows(chunks, _RESLRL_LAST)
    if len(dest_id) == 0:
        return None, 0

    dest_idx, found = lookup(dest_id)
    del dest_id
    dropped = len(found) - int(np.count_nonzero(found))
    if dropped:
        if len(b):
            kept = found[tcode == RESLRL]
            b, c = b[kept], c[kept]
        dest_idx = dest_idx[found]
        tcode = tcode[found]
        a = a[found]
    del found
    if len(dest_idx) == 0:
        return None, dropped
    top_slot = int(dest_idx.max())

    # Exact row dedup via integer keys: (dest, type) packed into one int64
    # ``head`` plus the payload columns as raw bits (NaN never goes on the
    # wire).  The reslrl rows dedup on (head, a, b, c); everything else —
    # nine rows in ten — on just (head, a), which :func:`_dedup_order`
    # sorts without a comparison sort.  Survivors come out in sorted-key
    # (canonical) order, reslrl block last; slot and type are read back
    # out of the sorted heads.
    head = np.left_shift(dest_idx, _TYPE_BITS, dtype=np.int64)
    head |= tcode
    del dest_idx, tcode
    head_bits = (top_slot + 1).bit_length() + _TYPE_BITS
    split = len(head) - len(b)
    kept_heads: list[np.ndarray] = []
    kept_rows: list[np.ndarray] = []
    for lo, hi, columns in (
        (0, split, (a[:split],)),
        (split, len(head), (a[split:], b, c)),
    ):
        if lo == hi:
            continue
        order, sorted_head, fresh = _dedup_order(
            head[lo:hi], head_bits, tuple(_bits(col) for col in columns)
        )
        kept_heads.append(sorted_head[fresh])
        del sorted_head
        kept_rows.append(order[fresh])
        del order, fresh
    del head
    if len(b):
        # The reslrl block's rows count from its start: its ordinals.
        b, c = b[kept_rows[-1]], c[kept_rows[-1]]
        kept_rows[-1] += split
    kept_head = np.concatenate(kept_heads)
    del kept_heads
    dest_idx = (kept_head >> np.int64(_TYPE_BITS)).astype(np.int32)
    kept_head &= np.int64((1 << _TYPE_BITS) - 1)
    tcode = kept_head.astype(np.int8)
    del kept_head
    a = a[np.concatenate(kept_rows)]

    return (
        PreparedInbox(
            dest_idx=dest_idx,
            tcode=tcode,
            a=a,
            b=b,
            c=c,
            n_res=len(b),
        ),
        dropped,
    )


def draw_delivery_keys(rng: np.random.Generator, count: int) -> np.ndarray:
    """One uniform 42-bit int64 delivery key per prepared row, in canonical
    row order.

    The draw sits in the exact stream position :func:`build_inbox` always
    used, so splitting the assembly is invisible to seeded runs.
    """
    return rng.integers(0, 1 << 42, size=count, dtype=np.int64)


def finalize_inbox(pre: PreparedInbox, keys: np.ndarray) -> RoundInbox:
    """Order prepared rows by ``(dest, key)`` and assign wave ranks.

    The batched round hands it only the rows of its nodes where two
    writers may meet (``repro.sim.fast.batched.receive_steps``); the
    oracles and :func:`build_inbox` hand it a whole inbox.

    *keys* are the 42-bit draws of :func:`draw_delivery_keys`, aligned
    with *pre*'s canonical row order.  Key ties fall back to canonical
    position order: an exchangeable tiebreak, still a uniform delivery
    order, and — crucially for the sharded engine — a
    *content-determined* one.

    *pre* is consumed: each of its columns is emptied as soon as it has
    been gathered into the round inbox (docs/PERF.md "Round-scoped
    buffers"), so a caller that reads *pre* afterwards sees no rows.

    The order is one value sort of ``slot << (k+S) | key >> (42-k) << S |
    position`` words, ``S`` position bits and the top ``k`` key bits that
    fit beside them (:func:`_key_bits`): distinct truncated keys order
    like the full ones, and the position is the canonical tiebreak.  Two
    rows of one slot whose keys agree on those ``k`` bits (or no room for
    any, ``k <= 0``) send the round through ``np.lexsort((keys, slots))``,
    exact and stable at any slot count.  ``b``/``c`` follow their
    ``reslrl`` rows into the round inbox's layout (:class:`RoundInbox`).
    """
    truncated = _truncated_order(pre.dest_idx, keys)
    if truncated is not None:
        order, dest_idx = truncated
    else:
        order = np.lexsort((keys, pre.dest_idx))
        dest_idx = pre.dest_idx[order]
    _consume(pre, "dest_idx")
    tcode = pre.tcode[order]
    _consume(pre, "tcode")
    a = pre.a[order]
    _consume(pre, "a")
    b, c = pre.b, pre.c
    if pre.n_res:
        # The reslrl rows of the prepared inbox are one contiguous block,
        # so their rows less its first one are the ids' positions.
        src = order[np.flatnonzero(tcode == RESLRL)]
        src -= src.min()
        b, c = b[src], c[src]
        del src
    _consume(pre, "b")
    _consume(pre, "c")

    count = len(dest_idx)
    boundary = np.empty(count, dtype=bool)
    boundary[0] = True
    np.not_equal(dest_idx[1:], dest_idx[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    rank = np.arange(count, dtype=np.int32)
    rank -= np.repeat(starts.astype(np.int32), np.diff(starts, append=count))
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
        position=order,
    )


def _consume(pre: PreparedInbox, name: str) -> None:
    """Empty one column of *pre*, which :func:`finalize_inbox` has read in
    full: the prepared rows are not held while the ordered ones are."""
    setattr(pre, name, np.empty(0, dtype=getattr(pre, name).dtype))


def build_inbox(
    chunks: list[list[_Chunk]],
    lookup: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
) -> tuple[RoundInbox | None, int]:
    """Assemble the round's inbox from last round's staged chunks.

    The composition :func:`prepare_inbox` → :func:`draw_delivery_keys` →
    :func:`finalize_inbox` over the whole inbox, in the stream position
    the rounds draw their keys at.  The rounds themselves stop after the
    draw and order only the rows where two writers meet
    (``repro.sim.fast.batched``); this full-inbox composition is the
    delivery order the tests hold their schedules against.

    Parameters
    ----------
    chunks:
        The outbox's :meth:`Outbox.take_all` result.
    lookup:
        Vectorized id→index resolution (``SoAState.lookup``); unresolved
        destinations are dropped and counted (second return value), the
        batched analogue of the reference network's drop-on-flush.
    rng:
        Draws the 42-bit delivery-ordering keys — the round's single
        batched RNG call for delivery order.

    Identical ``(dest, type, payload)`` rows coalesce, the array analogue
    of the reference channel's coalescing-set mode (DESIGN.md §4.7); the
    batched engines have no multiset mode.
    """
    pre, dropped = prepare_inbox(chunks, lookup)
    if pre is None:
        return None, dropped
    keys = draw_delivery_keys(rng, len(pre))
    return finalize_inbox(pre, keys), dropped
