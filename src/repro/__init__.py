"""repro — a reproduction of *A Self-Stabilization Process for Small-World
Networks* (Kniesburges, Koutsopoulos, Scheideler, IPDPS Workshops 2012).

The package implements the paper's distributed self-stabilizing protocol
that converges from any weakly connected initial state to a sorted ring
augmented with move-and-forget long-range links — a 1-dimensional
small-world network with polylogarithmic greedy routing.

Quickstart::

    import numpy as np
    from repro import (
        ProtocolConfig, build_network, Simulator,
        random_tree_topology, phase_predicates,
    )

    rng = np.random.default_rng(7)
    states = random_tree_topology(64, rng)
    net = build_network(states)
    sim = Simulator(net, rng)
    phases = sim.run_phases(phase_predicates(), max_rounds=2000)
    print(phases.first_round)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduced results.

The top-level namespace is populated lazily (PEP 562): importing
``repro`` itself pulls in nothing heavy, so stdlib-only subsystems such
as :mod:`repro.analysis.lint` stay importable in environments without
the scientific stack (e.g. the fast repro-lint CI job).  The first
*attribute* access — ``repro.Simulator``, ``from repro import Node`` —
triggers the real import.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Lazy export table: public name -> providing module.  Attribute access
#: imports the module on first use and caches the value in ``globals()``.
_EXPORTS: dict[str, str] = {
    "Message": "repro.core",
    "MessageType": "repro.core",
    "Node": "repro.core",
    "NodeState": "repro.core",
    "ProtocolConfig": "repro.core",
    "build_network": "repro.core.protocol",
    "is_sorted_list": "repro.graphs",
    "is_sorted_ring": "repro.graphs",
    "phase_predicates": "repro.graphs",
    "stable_ring_states": "repro.graphs",
    "NEG_INF": "repro.ids",
    "POS_INF": "repro.ids",
    "AsyncScheduler": "repro.sim",
    "Network": "repro.sim",
    "Simulator": "repro.sim",
    "make_simulator": "repro.sim.host",
    "SynchronousScheduler": "repro.sim",
    "TOPOLOGIES": "repro.topology",
    "clique_topology": "repro.topology",
    "corrupted_ring_topology": "repro.topology",
    "gnp_topology": "repro.topology",
    "line_topology": "repro.topology",
    "lollipop_topology": "repro.topology",
    "random_tree_topology": "repro.topology",
    "star_topology": "repro.topology",
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
