"""A round's buffers die with their round.

The batched engine keeps no cache of flush temporaries between rounds:
after a churn storm has settled, the memory a run still holds is the
state it grew — the SoA columns and the rows staged for the next round —
not the largest inbox the storm ever assembled.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.churn.experiments import stable_simulator


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
