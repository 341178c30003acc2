"""Storm recovery at production scale: the cost curve behind Theorem 4.24.

:func:`storm_recovery_trial` prices one *storm* — a batched membership
event from :mod:`repro.churn.storms` — on a stable n-node overlay:

1. build a warmed-up simulator (any engine; ``engine="fast"`` reaches
   n ≈ 50k) and measure the steady-state maintenance message rate;
2. schedule the storm at round 0 on a :class:`~repro.churn.storms.ChurnPlan`
   and run it under a :class:`~repro.sim.chaos.campaign.ChaosCampaign`
   with a sorted-ring :class:`~repro.sim.chaos.monitors.ConvergenceProbe`
   (campaign events mirror into :mod:`repro.obs` when an observer is
   ambient);
3. stop at the first all-healthy round after every storm window closed,
   and report rounds-to-reconverge plus the *net* extra messages, total
   and per membership event.

Theorem 4.24 prices one update at ``O(ln^{2+ε} n)`` rounds; a storm of
``k`` events that recovers in polylog rounds with per-event message cost
growing no faster than polylog is the at-scale extrapolation this curve
(``BENCH_churn_scale.json``) tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.churn.experiments import (
    AnySimulator,
    stable_simulator,
    steady_state_rate,
)
from repro.churn.storms import STORMS, ChurnPlan, ChurnStorm
from repro.core.protocol import ProtocolConfig
from repro.sim.chaos.campaign import ChaosCampaign
from repro.sim.chaos.monitors import ConvergenceProbe

__all__ = ["StormRecovery", "storm_recovery_trial", "recovery_cap"]


@dataclass(frozen=True)
class StormRecovery:
    """Cost of recovering from one membership storm."""

    n: int
    storm: str
    #: Membership events (joins + leaves) the storm performed.
    events: int
    #: Rounds from the storm's start until the sorted ring held again
    #: (== the campaign's executed rounds with the recovered-early stop).
    rounds: int
    total_messages: int
    #: Messages beyond steady-state maintenance over those rounds.
    extra_messages: float
    baseline_rate: float
    #: Whether the ring actually reconverged within the round cap.
    recovered: bool

    @property
    def per_event_messages(self) -> float:
        """Net extra messages per membership event."""
        return self.extra_messages / self.events if self.events else 0.0


def recovery_cap(n: int) -> int:
    """Default round cap: generous multiple of the claimed polylog cost."""
    import math

    return max(300, 12 * int(math.log(n) ** 2))


def storm_recovery_trial(
    n: int,
    *,
    storm: str,
    seed: int = 0,
    engine: str = "reference",
    config: ProtocolConfig | None = None,
    max_rounds: int | None = None,
    sim: AnySimulator | None = None,
) -> StormRecovery:
    """Price one named storm (see :data:`repro.churn.storms.STORMS`).

    Pass a pre-built *sim* to reuse a warmed-up host (the scale benchmark
    amortizes the n ≈ 50k warm-up across the three storm legs); otherwise
    one is built from ``(seed, n, storm)``.
    """
    if storm not in STORMS:
        raise ValueError(
            f"unknown storm {storm!r}; expected one of {sorted(STORMS)}"
        )
    if sim is None:
        # Imported lazily: repro.experiments imports this module back
        # through the E17 driver.
        from repro.experiments.common import seed_rng

        sim = stable_simulator(
            n, seed_rng(seed, n, storm), config, engine=engine
        )
    host = sim.host
    rate = steady_state_rate(sim)
    plan = ChurnPlan(seed=seed)
    STORMS[storm](plan, 0)
    monitor = ConvergenceProbe(phase="ring")
    campaign = ChaosCampaign(sim, plan, (monitor,))
    before = host.stats.total
    cap = max_rounds if max_rounds is not None else recovery_cap(n)
    result = campaign.run(cap, stop_when_healthy=True)
    total = int(host.stats.total - before)
    extra = total - rate * result.rounds
    events = sum(
        sf.injector.events
        for sf in plan
        if isinstance(sf.injector, ChurnStorm)
    )
    return StormRecovery(
        n=len(host),
        storm=storm,
        events=events,
        rounds=result.rounds,
        total_messages=total,
        extra_messages=float(max(extra, 0.0)),
        baseline_rate=rate,
        recovered=result.healthy,
    )
