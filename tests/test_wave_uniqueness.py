"""Property tests: the unique-destination wave precondition of the inbox.

Every vectorized kernel in :mod:`repro.sim.fast.kernels` relies on the
wave grouping produced by :func:`repro.sim.fast.buffers.build_inbox`:
within one wave (``rank`` value) each destination slot appears at most
once, so same-column fancy stores cannot collide.  These tests pin that
invariant for arbitrary staged traffic, coalesced by the flush, and
exercise the debug-only runtime assert behind ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import NodeState
from repro.sim.fast.buffers import (
    N_TYPES,
    RESLRL,
    _wave_check_enabled,
    build_inbox,
)
from repro.sim.fast.soa import SoAState

#: Small id pool → frequent destination collisions, which is exactly the
#: regime where wave ranks matter (several messages per node per round).
ID_POOL = tuple(round(0.05 + 0.9 * k / 11, 6) for k in range(12))

row_strategy = st.tuples(
    st.integers(min_value=0, max_value=N_TYPES - 1),  # tcode
    st.sampled_from(ID_POOL),  # dest (always resolvable)
    st.sampled_from(ID_POOL),  # a
    st.sampled_from(ID_POOL),  # b (reslrl only)
    st.sampled_from(ID_POOL),  # c (reslrl only)
)

#: Identifiers no node of :func:`make_soa` holds: rows addressed to them
#: are dropped at the flush (between, below and above the live ids).
DEAD_IDS = (0.01, 0.5, 0.99)
#: Payload values whose *bit patterns* the dedup must tell apart where
#: float ``==`` would not (``0.0`` is also the b/c filler).
ZEROS = (0.0, -0.0)

#: Anything the wire can carry: dead destinations, ``0.0``/``-0.0``
#: payloads, and the ±∞ sentinels a ``reslrl`` reports for a missing
#: neighbour.  The small pools make exact duplicates frequent.
wire_row_strategy = st.tuples(
    st.integers(min_value=0, max_value=N_TYPES - 1),
    st.sampled_from(ID_POOL + DEAD_IDS),
    st.sampled_from(ID_POOL + ZEROS),
    st.sampled_from(ID_POOL + ZEROS + (-np.inf, np.inf)),
    st.sampled_from(ID_POOL + ZEROS + (-np.inf, np.inf)),
)


def make_soa() -> SoAState:
    return SoAState.from_states(NodeState(id=v) for v in ID_POOL)


def make_chunks(rows: list[tuple], chunk_rows: int = 1) -> list[list[tuple]]:
    """Stage *rows* as per-type outbox chunks of up to *chunk_rows* rows.

    Each type's rows keep their relative order; the ``origin`` column
    numbers the rows in staging order (the fault-free flush ignores it,
    mid-round compaction must carry the first staged copy's).
    """
    by_type: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    for position, row in enumerate(rows):
        by_type[row[0]].append((*row[1:], float(position)))
    chunks: list[list[tuple]] = [[] for _ in range(N_TYPES)]
    for tcode, typed in enumerate(by_type):
        for start in range(0, len(typed), chunk_rows):
            dest, a, b, c, origin = (
                np.array(column, dtype=np.float64)
                for column in zip(*typed[start : start + chunk_rows])
            )
            if tcode == RESLRL:
                chunks[tcode].append((dest, a, b, c, origin))
            else:
                chunks[tcode].append((dest, a, None, None, origin))
    return chunks


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_waves_have_unique_destinations(rows, seed) -> None:
    """Within every wave each destination appears at most once, and each
    destination's ranks are the contiguous prefix 0..k-1 (sequential
    per-node delivery across waves)."""
    soa = make_soa()
    inbox, dropped = build_inbox(
        make_chunks(rows), soa.lookup, np.random.default_rng(seed)
    )
    assert dropped == 0
    assert inbox is not None
    for wave in range(inbox.n_waves):
        dests = inbox.dest_idx[inbox.rank == wave]
        assert len(np.unique(dests)) == len(dests)
    for slot in np.unique(inbox.dest_idx):
        ranks = np.sort(inbox.rank[inbox.dest_idx == slot])
        assert np.array_equal(ranks, np.arange(len(ranks)))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_debug_assert_accepts_valid_inboxes(rows, seed) -> None:
    """With ``REPRO_SANITIZE=1`` the in-band assert runs and passes on
    every inbox ``build_inbox`` can construct (the invariant holds by
    construction, so the assert must never fire on real traffic)."""
    soa = make_soa()
    previous = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = "1"
    try:
        assert _wave_check_enabled()
        inbox, _ = build_inbox(
            make_chunks(rows), soa.lookup, np.random.default_rng(seed)
        )
    finally:
        if previous is None:
            del os.environ["REPRO_SANITIZE"]
        else:
            os.environ["REPRO_SANITIZE"] = previous
    assert inbox is not None


def test_wave_check_env_parsing(monkeypatch) -> None:
    for value, expected in (
        ("", False),
        ("0", False),
        ("false", False),
        ("False", False),
        ("1", True),
        ("yes", True),
    ):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert _wave_check_enabled() is expected
    monkeypatch.delenv("REPRO_SANITIZE")
    assert not _wave_check_enabled()
