"""Runtime recovery monitors: health probes evaluated once per round.

Monitors answer a single question — *is the system healthy right now?* —
and the campaign driver (:mod:`repro.sim.chaos.campaign`) turns the
resulting boolean time series into recovery metrics: time-to-detect is the
lag from a fault burst's start to the first unhealthy observation, and
time-to-reconverge is the lag from the burst's end to the first round where
*every* monitor reports healthy again (recorded in
:class:`~repro.sim.metrics.BurstRecord`).

The monitors are read-only observers asking the host
(:class:`repro.sim.host.Host`) about the same connectivity graphs the
analysis uses (:mod:`repro.graphs.views`), so "healthy" means exactly what
the paper's theorems talk about — e.g. the :class:`PartitionDetector` counts
weak components of the channel-connectivity graph *including* in-flight and
retransmit-buffered identifiers, so a guarded handoff in retry keeps its
component attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.invariants import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.host import Host

__all__ = [
    "RecoveryMonitor",
    "WeakConnectivityWatchdog",
    "PartitionDetector",
    "SafetyProbe",
    "ConvergenceProbe",
]


class RecoveryMonitor:
    """Base class: a named, stateless health predicate over a network."""

    #: Short identifier used in campaign traces and burst records.
    name: str = "monitor"

    def healthy(self, network: "Host") -> bool:
        """Whether the monitored property holds right now."""
        raise NotImplementedError

    def detail(self, network: "Host") -> str:
        """A one-line diagnostic for trace events (may be expensive)."""
        return "healthy" if self.healthy(network) else "unhealthy"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class WeakConnectivityWatchdog(RecoveryMonitor):
    """Watches the property self-stabilization cannot restore.

    Healthy iff the full channel-connectivity graph (stored links plus
    every in-flight identifier, including the guard's retransmit buffer)
    is weakly connected.  Once this monitor goes unhealthy with no frames
    left in transit, the split is permanent — no later round can repair it
    (paper §II-B: weak connectivity is an *assumption*, not a recovered
    property).
    """

    name = "weak-connectivity"

    def __init__(self, *, live_only: bool = True) -> None:
        #: Ignore dangling references to departed identifiers (churn).
        self.live_only = live_only

    def healthy(self, network: "Host") -> bool:
        return network.cc_components(live_only=self.live_only) == 1

    def detail(self, network: "Host") -> str:
        if len(network) == 0:
            return "empty network"
        return f"components={network.cc_components(live_only=self.live_only)}"


class PartitionDetector(RecoveryMonitor):
    """Reports the weak-component count of the channel-connectivity graph.

    Functionally the same graph as the watchdog, but exposed as a count so
    campaigns can distinguish a clean 2-way split from shattering — and so
    :meth:`components` can be asserted on directly in tests.
    """

    name = "partition"

    def __init__(self, *, live_only: bool = True) -> None:
        self.live_only = live_only

    def components(self, network: "Host") -> int:
        """Number of weakly connected components (0 for an empty network)."""
        return network.cc_components(live_only=self.live_only)

    def healthy(self, network: "Host") -> bool:
        return self.components(network) == 1

    def detail(self, network: "Host") -> str:
        return f"components={self.components(network)}"


class SafetyProbe(RecoveryMonitor):
    """Healthy iff every model invariant of §III holds (see
    :func:`repro.sim.invariants.check_network_invariants`).

    Membership clauses are off by default because fault campaigns break
    them by design (churn leaves dangling references until purges run);
    the structural clauses (``l < id < r``, non-negative ages, dedup
    integrity) must hold even mid-burst.
    """

    name = "safety"

    def __init__(self, *, check_membership: bool = False) -> None:
        self.check_membership = check_membership
        #: Message of the most recent violation (None while healthy).
        self.last_violation: str | None = None

    def healthy(self, network: "Host") -> bool:
        try:
            network.check_invariants(check_membership=self.check_membership)
        except InvariantViolation as violation:
            self.last_violation = str(violation)
            return False
        self.last_violation = None
        return True

    def detail(self, network: "Host") -> str:
        if self.healthy(network):
            return "invariants hold"
        return f"violation: {self.last_violation}"


class ConvergenceProbe(RecoveryMonitor):
    """Healthy iff the network is back in its converged target state.

    Defaults to the sorted-ring predicate (phase 3, Definition 4.17) —
    the strongest pointwise-checkable target; pass ``phase="list"`` or
    ``phase="lcc"`` for the weaker phase-1/2 targets.
    """

    name = "convergence"

    def __init__(self, *, phase: str = "ring") -> None:
        if phase not in ("lcc", "list", "ring"):
            raise ValueError(f"unknown convergence phase {phase!r}")
        self.phase = phase
        self.name = f"convergence-{phase}"

    def healthy(self, network: "Host") -> bool:
        if self.phase == "lcc":
            return network.lcc_weakly_connected()
        if self.phase == "list":
            return network.is_sorted_list()
        return network.is_sorted_ring()

    def detail(self, network: "Host") -> str:
        return f"{self.phase}:{'ok' if self.healthy(network) else 'not-yet'}"
