"""Reference oracles for the initial-configuration builders.

The per-value identifier draw, the networkx encoding of the shuffled line
and the per-node sorted and stable rings, as they were before the column
builders (:func:`repro.ids.generate_ids`,
:func:`repro.topology.generators.line_soa`,
:func:`repro.graphs.build.wire_sorted_ring_soa`,
:func:`repro.graphs.build.stable_ring_soa`) replaced them with numpy
code.  They are kept here, and only here, as the executable definition of
"the same states from the same draws": ``tests/test_start_columns.py``
requires the builders to equal them column for column and to leave the
generator in the same state.  Not collected by pytest (no ``test_``
prefix); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.core.state import NodeState
from repro.graphs.build import MATURE_AGE
from repro.ids import NEG_INF, POS_INF, evenly_spaced_ids, sort_unique
from repro.topology.encode import assert_weakly_connected, encode_graph

__all__ = [
    "generate_ids_reference",
    "line_states_reference",
    "stable_ring_states_reference",
    "wire_sorted_ring_reference",
]


def generate_ids_reference(n: int, rng: np.random.Generator) -> list[float]:
    """*n* distinct ids in ``[0, 1)``, one value at a time: a draw is kept
    unless an earlier one holds its value or it lies outside ``[0, 1)``;
    the missing ones are redrawn as one batch per round."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    seen: set[float] = set()
    out: list[float] = []
    while len(out) < n:
        for v in rng.random(n - len(out)):
            f = float(v)
            if f not in seen and 0.0 <= f < 1.0:
                seen.add(f)
                out.append(f)
    return out


def line_states_reference(
    n: int, rng: np.random.Generator, *, shuffle_ids: bool = True
) -> list[NodeState]:
    """The shuffled line through the general graph encoder: a networkx
    path, its breadth-first spanning tree, one scalar slot draw per edge."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    ids = generate_ids_reference(n, rng)
    states = encode_graph(nx.path_graph(n), ids, rng, shuffle_ids=shuffle_ids)
    assert_weakly_connected(states)
    return states


def wire_sorted_ring_reference(ids: Sequence[float]) -> list[NodeState]:
    """The sorted ring with at-home tokens, one ``NodeState`` at a time."""
    ordered = sort_unique(ids)
    n = len(ordered)
    states: list[NodeState] = []
    for i, nid in enumerate(ordered):
        states.append(
            NodeState(
                id=nid,
                l=ordered[i - 1] if i > 0 else NEG_INF,
                r=ordered[i + 1] if i < n - 1 else POS_INF,
                lrl=nid,
                ring=None,
            )
        )
    if n >= 2:
        states[0].ring = ordered[-1]
        states[-1].ring = ordered[0]
    return states


def stable_ring_states_reference(
    n: int,
    *,
    lrl: str = "self",
    rng: np.random.Generator | None = None,
    ids: Sequence[float] | None = None,
) -> list[NodeState]:
    """The legitimate sorted ring, long-range links set per node."""
    ordered = sort_unique(ids) if ids is not None else evenly_spaced_ids(n)
    n = len(ordered)
    states = wire_sorted_ring_reference(ordered)
    if lrl == "self":
        return states
    if rng is None:
        raise ValueError(f"lrl={lrl!r} requires an rng")
    if lrl == "harmonic":
        from repro.moveforget.harmonic import sample_harmonic_offsets

        offsets = sample_harmonic_offsets(n, n, rng)
        for i, state in enumerate(states):
            state.lrl = ordered[(i + int(offsets[i])) % n]
            state.age = MATURE_AGE
    elif lrl == "uniform":
        targets = rng.integers(0, n, size=n)
        for i, state in enumerate(states):
            state.lrl = ordered[int(targets[i])]
            state.age = MATURE_AGE
    else:
        raise ValueError(f"unknown lrl mode {lrl!r}")
    return states
