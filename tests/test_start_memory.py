"""A column start never becomes a ``NodeState`` list.

The shuffled line is built as id-sorted ``SoAState`` columns and handed to
the batched engine through the column door, so a cold set-up at scale
holds no per-node Python objects.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.state import NodeState
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import line_soa

N = 1 << 16


def test_a_line_start_through_the_column_door_stays_in_columns(monkeypatch) -> None:
    """A 2^16 line start, built and passed through
    ``FastSimulator.from_states``: no ``NodeState`` is constructed, no
    allocation is traced to ``repro/core/state.py``, the start holds at
    most 64 B a node traced (its six columns and the mask, near 49) and
    the traced peak stays at or below 256 B a node (the start's build
    peaks near 162; the start plus the engine's own copy holds near 98).
    The constructor count is what catches a list coming back: the list
    path, ``line_topology`` and ``from_states(list)``, peaks near 430 B a
    node traced."""
    built: list[int] = []
    post_init = NodeState.__post_init__

    def counting(self: NodeState) -> None:
        built.append(1)
        post_init(self)

    monkeypatch.setattr(NodeState, "__post_init__", counting)
    tracemalloc.start(8)
    try:
        start = line_soa(N, np.random.default_rng(7))
        held = tracemalloc.get_traced_memory()[0]
        sim = FastSimulator.from_states(start, rng=7)
        peak = tracemalloc.get_traced_memory()[1]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(sim.engine) == N
    assert not built, f"{len(built)} NodeState objects constructed"
    in_state = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/core/state.py", all_frames=True)]
    )
    assert not in_state.traces, in_state.statistics("lineno")[:3]
    assert held <= 64 * N, f"the start holds {held / N:.0f} B/node"
    assert peak <= 256 * N, f"{peak / N:.0f} B/node"
