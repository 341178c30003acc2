"""Unbounded, non-FIFO message channels (paper §II-B).

"We assume that the channel's capacity is unbounded and no messages are
lost, but the order of the receipts does not have to match the order of
transmission."

Two delivery semantics are provided:

* **multiset** (``dedup=False``) — every sent message is delivered exactly
  once; duplicates are preserved.  This is the paper's literal model.
* **coalescing set** (``dedup=True``, the default for experiments) —
  identical pending messages are merged.  All protocol handlers are
  idempotent with respect to identical payloads (receiving ``lin(x)`` twice
  in a row has the same effect on stored state as receiving it once), so
  coalescing preserves reachability of every protocol state while keeping
  channel sizes bounded by the number of distinct payloads.  DESIGN.md §4.7
  records this as an explicitly-tested optimization.

Delivery order is randomized by the scheduler, which models the non-FIFO
assumption; :meth:`Channel.drain` returns a random permutation of the
pending messages.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from typing import Generic, TypeVar

import numpy as np

__all__ = ["Channel"]

#: What a channel carries: a :class:`~repro.core.messages.Message` on the
#: reference network, a tuple message on a scalar SoA host.
M = TypeVar("M", bound=Hashable)


class Channel(Generic[M]):
    """The incoming-message channel ``p.C`` of a single node."""

    __slots__ = ("_dedup", "_messages", "_set")

    def __init__(self, *, dedup: bool = True) -> None:
        self._dedup = dedup
        self._messages: list[M] = []
        # Mirror set used only in dedup mode for O(1) membership checks.
        self._set: set[M] | None = set() if dedup else None

    @property
    def dedup(self) -> bool:
        """Whether identical pending messages are coalesced."""
        return self._dedup

    def put(self, message: M) -> bool:
        """Enqueue *message*.

        Returns ``True`` if the message was added, ``False`` if it was
        coalesced with an identical pending message (dedup mode only).
        """
        if self._set is not None:
            if message in self._set:
                return False
            self._set.add(message)
        self._messages.append(message)
        return True

    def drain(self, rng: np.random.Generator) -> list[M]:
        """Remove and return *all* pending messages in random order.

        The random permutation realizes the non-FIFO channel: any pending
        message may be received before any other.  Fair receipt holds
        trivially because the whole channel is drained.
        """
        msgs = self._messages
        if not msgs:
            return []
        self._messages = []
        if self._set is not None:
            self._set = set()
        if len(msgs) > 1:
            order = rng.permutation(len(msgs))
            msgs = [msgs[i] for i in order]
        return msgs

    def pop_random(self, rng: np.random.Generator) -> M:
        """Remove and return one uniformly random pending message.

        Used by the asynchronous scheduler.  Raises :class:`IndexError` on
        an empty channel.
        """
        if not self._messages:
            raise IndexError("pop from empty channel")
        i = int(rng.integers(len(self._messages)))
        # Swap-remove keeps this O(1).
        self._messages[i], self._messages[-1] = self._messages[-1], self._messages[i]
        msg = self._messages.pop()
        if self._set is not None:
            self._set.discard(msg)
        return msg

    def peek_all(self) -> list[M]:
        """Return the pending messages without removing them.

        Used by the connectivity views (LCC/RCC include identifiers carried
        by in-flight messages, Definition 4.2).
        """
        return list(self._messages)

    def remove_matching(self, predicate: Callable[[M], bool]) -> int:
        """Remove every pending message satisfying *predicate*; return count.

        Used by :meth:`Network.purge_identifier` (churn) and the chaos
        campaign's pointer-scrub faults: a departed or corrupted identifier
        must vanish from channels as well as from stored state.
        """
        kept = [m for m in self._messages if not predicate(m)]
        removed = len(self._messages) - len(kept)
        if removed:
            self._messages = kept
            if self._set is not None:
                self._set = set(kept)
        return removed

    def clear(self) -> None:
        """Discard every pending message (used when a node leaves)."""
        self._messages.clear()
        if self._set is not None:
            self._set = set()

    def __len__(self) -> int:
        return len(self._messages)

    def __bool__(self) -> bool:
        return bool(self._messages)

    def __iter__(self) -> Iterator[M]:
        return iter(self._messages)

    def __repr__(self) -> str:
        return f"Channel({len(self._messages)} pending, dedup={self._dedup})"
