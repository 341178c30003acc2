"""A round's buffers die with their round, and a round fits its budget.

The batched engine keeps no cache of flush temporaries between rounds:
after a churn storm has settled, the memory a run still holds is the
state it grew — the SoA columns and the rows staged for the next round —
not the largest inbox the storm ever assembled.  While a round runs, what
it allocates peaks at a bounded number of bytes per row it starts from.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.churn.experiments import stable_simulator
from repro.sim.host import make_simulator
from repro.topology.generators import line_soa

#: Bytes a round may allocate at its peak per row staged at its start.
ROUND_BYTES_PER_ROW = 72


def column_bytes(soa) -> int:
    """Bytes of every array the SoA state holds (columns and lookup tables)."""
    arrays = (getattr(soa, name, None) for name in type(soa).__slots__)
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def staged_bytes(outbox) -> int:
    """Bytes of the rows staged for the next round."""
    return sum(
        col.nbytes
        for chunks in outbox._chunks
        for chunk in chunks
        for col in chunk
        if col is not None
    )


def test_flash_crowd_leaves_only_the_state_it_grew() -> None:
    """A 1 024-node flash crowd on a warmed 2 048-node overlay, then 30
    rounds: what is still allocated since the storm is at most twice the
    columns plus the staged rows (the slack covers the id index and the
    small objects a round leaves).  With a cache that kept every flush
    buffer it grew the run held 9.1 MiB here, against a 3.2 MiB bound."""
    rng = np.random.default_rng(11)
    sim = stable_simulator(2048, rng, engine="fast")
    host = sim.host
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ids = np.asarray(host.ids, dtype=np.float64)
        joined = host.join_batch(
            rng.random(1024), ids[rng.integers(0, len(ids), size=1024)]
        )
        sim.run(30)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert joined == 1024
    state = column_bytes(host.soa) + staged_bytes(host.outbox)
    assert held <= 2 * state, (held >> 10, state >> 10)


def round_peaks(sim, rounds: int) -> list[float]:
    """Per round, the traced peak of what the round allocates (tracing
    starts at the round's first line) over the rows staged at its start."""
    outbox = sim.host.outbox
    peaks = []
    for _ in range(rounds):
        staged = outbox.pending_total()
        tracemalloc.start()
        try:
            sim.run(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append(peak / staged)
    return peaks


@pytest.mark.parametrize("leg", ["stationary", "line"])
def test_round_peak_bytes_per_staged_row(leg) -> None:
    """The bytes budget of a batched round at n = 2048, seed 7: traced with
    ``tracemalloc`` from the round's start, its peak over the rows the
    outbox stages at that start is at most 72 B, every round, over 20
    rounds of a warmed stable overlay (``stable_simulator``) and 40 rounds
    of a shuffled line after 10 warm-up rounds (the duplicate-heavy cold
    mix).  The staged rows themselves are allocated before tracing starts.
    With ``b``/``c`` carried on every row at full length, token columns
    sized to the whole inbox and int64 index scratch, the peak read ~111
    and ~112 B; carried on ``reslrl`` rows only, ~54 and ~61 B."""
    rng = np.random.default_rng(7)
    if leg == "stationary":
        sim = stable_simulator(2048, rng, engine="fast")
        peaks = round_peaks(sim, 20)
    else:
        sim = make_simulator(line_soa(2048, rng), engine="fast", rng=rng)
        sim.run(10)
        peaks = round_peaks(sim, 40)
    assert max(peaks) <= ROUND_BYTES_PER_ROW, [round(p, 1) for p in peaks]
