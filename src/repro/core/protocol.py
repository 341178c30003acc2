"""Protocol configuration and network assembly helpers.

:class:`ProtocolConfig` bundles the protocol's single numeric parameter ε
(paper §III-D) with the ablation switches used by the experiments:

* ``lrl_shortcuts`` — whether ``linearize`` and the probing forwarders may
  route through the long-range link (the paper's Algorithm 2/5/6 shortcut
  branches).  Turning this off yields the plain linearization of Onus,
  Richa, Scheideler [19], the baseline of experiment E10.
* ``move_and_forget`` — whether the long-range-link machinery runs at all
  (``inclrl``/``reslrl``/Algorithm 4).  Turning this off yields a pure
  sorted-ring protocol.
* ``probing`` — whether nodes emit probing messages (Algorithm 10).  The
  paper's Phase 1 (Theorem 4.3) relies on probing to fold long-range and
  ring links into list-link paths; the failure-injection tests show what
  breaks without it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.forget import DEFAULT_EPSILON
from repro.core.state import NodeState
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.network import Network

__all__ = ["ProtocolConfig", "build_network"]


@dataclass
class ProtocolConfig:
    """Tunable knobs of the self-stabilizing small-world protocol.

    The defaults are the paper's protocol; every switch exists only so the
    experiments can ablate one mechanism at a time.
    """

    #: The ε of the forget probability φ(α); any fixed ε > 0 is legal.
    epsilon: float = DEFAULT_EPSILON
    #: Allow Algorithm 2/5/6 to forward through the long-range link.
    lrl_shortcuts: bool = True
    #: Run the move-and-forget machinery (Algorithms 3, 4, and the
    #: ``inclrl`` send of Algorithm 9).
    move_and_forget: bool = True
    #: Emit probing messages (Algorithm 10).
    probing: bool = True
    #: Optional structured event trace (white-box tests).
    trace: Trace | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def build_network(
    states: Iterable[NodeState],
    config: ProtocolConfig | None = None,
    *,
    dedup: bool = True,
    keep_history: bool = False,
    wire: bool = False,
    guard: "GuardPolicy | None" = None,
) -> "Network":
    """Assemble a :class:`~repro.sim.network.Network` of protocol nodes.

    Parameters
    ----------
    states:
        Initial per-node states (e.g. from :mod:`repro.topology`).
    config:
        Shared protocol configuration; defaults to the paper's protocol.
    dedup, keep_history, wire, guard:
        Forwarded to the network constructor (``wire``/``guard``: the
        fault-injectable chaos wire, :attr:`Network.wire`).
    """
    from repro.core.node import Node
    from repro.sim.network import Network

    cfg = config or ProtocolConfig()
    return Network(
        (Node(state, cfg) for state in states),
        dedup=dedup,
        keep_history=keep_history,
        wire=wire,
        guard=guard,
    )


def fresh_rng(seed: int | None = None) -> np.random.Generator:
    """Tiny convenience wrapper so callers never touch ``numpy.random`` directly."""
    return np.random.default_rng(seed)
