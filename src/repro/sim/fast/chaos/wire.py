"""Vectorized wire-fault executors for the batched chaos wire.

The scalar chaos wire (:class:`~repro.sim.chaos.network.ScalarWire`) threads
every frame through the injector chain one ``on_wire`` call at a time.
The batched counterpart keeps the round's whole wire as a struct of
arrays (:class:`WireRows`) and applies each shipped injector as one array
kernel (:func:`apply_wire_faults`).

**Draw-stream equivalence.**  Each injector owns a private PCG64 generator
(bound by :meth:`~repro.sim.chaos.plan.FaultPlan.schedule`), and for PCG64
a size-*n* batched draw produces exactly the *n* values that *n*
successive scalar draws would.  The executors consume draws in row order
over the rows that survive the preceding stages — the same order the
scalar fold sees — so twin-seeded injectors make identical decisions on
both engines (pinned by ``tests/test_property_chaos_masks.py``).

The one documented divergence is ``MessageDelay(mode="hash")``: the
reference hashes ``repr((dest, frame))`` with CRC-32, which has no array
form.  The batched executor substitutes a SplitMix64-style bit mix over
the row's content columns — equally deterministic and content-keyed, but
a *different* hash, so hash-delay schedules are engine-specific (the
wired oracle in ``tests/reference_mirror.py`` builds real frames and
reproduces the CRC-32 schedule; docs/CHAOS.md).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.sim.chaos.injectors import (
    FaultInjector,
    MessageDelay,
    MessageDuplication,
    MessageLoss,
)

__all__ = [
    "KIND_MESSAGE",
    "KIND_ENVELOPE",
    "KIND_ACK",
    "WireRows",
    "apply_wire_faults",
    "supports_batched_wire",
]

#: Frame-kind codes for wire rows (Message / guard Envelope / guard Ack).
KIND_MESSAGE, KIND_ENVELOPE, KIND_ACK = 0, 1, 2


@dataclass
class WireRows:
    """A batch of wire frames as aligned columns (one row per frame).

    ``dest`` is the delivery destination; ``origin`` is the sender id
    (``NaN`` when unknown); ``seq`` is the guard sequence number (``-1``
    for unguarded rows); ``due`` is the absolute delivery tick (``0``
    until the engine stamps it).  Ack rows carry the acknowledged
    ``(origin, seq)`` with ``tcode``/payload columns zeroed.
    """

    dest: np.ndarray
    kind: np.ndarray
    tcode: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    origin: np.ndarray
    seq: np.ndarray
    due: np.ndarray

    def __len__(self) -> int:
        return len(self.dest)

    @classmethod
    def empty(cls) -> "WireRows":
        return cls(
            dest=np.empty(0, dtype=np.float64),
            kind=np.empty(0, dtype=np.int8),
            tcode=np.empty(0, dtype=np.int8),
            a=np.empty(0, dtype=np.float64),
            b=np.empty(0, dtype=np.float64),
            c=np.empty(0, dtype=np.float64),
            origin=np.empty(0, dtype=np.float64),
            seq=np.empty(0, dtype=np.int64),
            due=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def build(
        cls,
        dest: np.ndarray,
        tcode: np.ndarray,
        a: np.ndarray,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
        origin: np.ndarray | None = None,
        *,
        kind: int = KIND_MESSAGE,
    ) -> "WireRows":
        """Assemble message rows from payload columns (fillers applied)."""
        n = len(dest)
        return cls(
            dest=np.asarray(dest, dtype=np.float64),
            kind=np.full(n, kind, dtype=np.int8),
            tcode=np.asarray(tcode, dtype=np.int8),
            a=np.asarray(a, dtype=np.float64),
            b=(
                np.zeros(n, dtype=np.float64)
                if b is None
                else np.asarray(b, dtype=np.float64)
            ),
            c=(
                np.zeros(n, dtype=np.float64)
                if c is None
                else np.asarray(c, dtype=np.float64)
            ),
            origin=(
                np.full(n, np.nan, dtype=np.float64)
                if origin is None
                else np.asarray(origin, dtype=np.float64)
            ),
            seq=np.full(n, -1, dtype=np.int64),
            due=np.zeros(n, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["WireRows"]) -> "WireRows":
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            **{
                f.name: np.concatenate([getattr(p, f.name) for p in parts])
                for f in fields(cls)
            }
        )

    def take(self, sel: np.ndarray) -> "WireRows":
        """Rows selected by a boolean mask or an index array."""
        return WireRows(
            **{f.name: getattr(self, f.name)[sel] for f in fields(self)}
        )

    def repeat(self, repeats: np.ndarray) -> "WireRows":
        """Each row repeated ``repeats[i]`` times, adjacently (in order)."""
        return WireRows(
            **{
                f.name: np.repeat(getattr(self, f.name), repeats)
                for f in fields(self)
            }
        )


# ----------------------------------------------------------------------
# Per-injector array executors
# ----------------------------------------------------------------------
def _apply_loss(
    inj: MessageLoss, rows: WireRows, extra: np.ndarray
) -> tuple[WireRows, np.ndarray]:
    n = len(rows)
    keep = inj.rng.random(n) >= inj.rate
    lost = int(n - keep.sum())
    if lost:
        inj.dropped += lost
        rows = rows.take(keep)
        extra = extra[keep]
    return rows, extra


def _apply_duplication(
    inj: MessageDuplication, rows: WireRows, extra: np.ndarray
) -> tuple[WireRows, np.ndarray]:
    n = len(rows)
    dup = inj.rng.random(n) < inj.rate
    hits = int(dup.sum())
    if hits:
        inj.duplicated += hits * inj.copies
        repeats = np.where(dup, 1 + inj.copies, 1)
        rows = rows.repeat(repeats)
        extra = np.repeat(extra, repeats)
    return rows, extra


def _content_hash_delay(rows: WireRows, max_delay: int) -> np.ndarray:
    """SplitMix64-style content hash of each row, modulo ``max_delay+1``.

    Engine-specific stand-in for the reference's CRC-32-of-repr schedule
    (see module docstring); keyed on the same content — destination,
    frame kind, type, payload, and guard identity — so a given frame gets
    a stable delay across retransmits, like the reference."""
    h = rows.dest.view(np.uint64).copy()
    for col in (
        rows.kind.astype(np.uint64),
        rows.tcode.astype(np.uint64),
        rows.a.view(np.uint64),
        rows.b.view(np.uint64),
        rows.c.view(np.uint64),
        rows.origin.view(np.uint64),
        rows.seq.view(np.uint64),
    ):
        h = h + np.uint64(0x9E3779B97F4A7C15) + col
        h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return (h % np.uint64(max_delay + 1)).astype(np.int64)


def _apply_delay(
    inj: MessageDelay, rows: WireRows, extra: np.ndarray
) -> tuple[WireRows, np.ndarray]:
    n = len(rows)
    if inj.mode == "hash":
        if inj.max_delay == 0:
            return rows, extra
        delays = _content_hash_delay(rows, inj.max_delay)
    else:
        # The scalar path always consumes one draw per frame — even with
        # max_delay == 0 — so the batched draw must too, to keep the
        # generator streams aligned.
        delays = inj.rng.integers(0, inj.max_delay + 1, size=n)
    inj.delayed += int((delays > 0).sum())
    return rows, extra + delays


_EXECUTORS = {
    MessageLoss: _apply_loss,
    MessageDuplication: _apply_duplication,
    MessageDelay: _apply_delay,
}


def supports_batched_wire(injector: FaultInjector) -> bool:
    """Whether *injector* has a vectorized executor (exact type match —
    subclasses may override ``on_wire`` arbitrarily, so they fall back to
    a wired reference host)."""
    return type(injector) in _EXECUTORS


def apply_wire_faults(
    rows: WireRows, injectors: Iterable[FaultInjector]
) -> tuple[WireRows, np.ndarray]:
    """Run *rows* through the injector chain; returns surviving rows and
    their accumulated extra delays (int64, aligned with the rows).

    The chain is applied injector-major in order, exactly like
    ``ScalarWire._transmit``'s rewrite loop; each stage sees the rows
    the previous stage emitted, in the same order.
    """
    extra = np.zeros(len(rows), dtype=np.int64)
    for inj in injectors:
        executor = _EXECUTORS.get(type(inj))
        if executor is None:
            raise TypeError(
                f"{inj.name} has no vectorized wire executor; run custom "
                "injectors on a wired reference host "
                "(make_simulator(engine='reference', wire=True))"
            )
        if len(rows) == 0:
            break
        rows, extra = executor(inj, rows, extra)
    return rows, extra
