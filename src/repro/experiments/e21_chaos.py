"""E21 — chaos campaigns: loss splits the overlay, guarded handoffs don't.

The paper's channels are lossless (§II-B) — a *load-bearing* assumption:
connectivity preservation hands displaced identifiers over inside single
``lin`` messages, so one lost message can disconnect the overlay, and weak
connectivity is the one property self-stabilization cannot restore (every
post-split configuration is a legal initial state of a different,
disconnected system).

This experiment runs the same fixed-seed fault campaign — a sustained
``loss_rate`` burst during cold convergence from a random tree — twice per
seed: once over the bare chaos wire (baseline) and once with the
guarded-handoff transport (bounded retransmit-until-acked delivery for the
connectivity-critical message types).  Runtime monitors report
time-to-detect and time-to-reconverge per burst.  The claims reproduced:

* some baseline campaigns end in a **permanent partition** (the monitors
  watch the channel-connectivity graph, so the verdict is exact);
* under the guard every campaign converges — loss costs rounds and
  retransmissions, never connectivity;
* the guard's overhead (acks + retransmits) stays a small multiple of the
  guarded traffic.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocol import ProtocolConfig
from repro.experiments.common import ExperimentResult, seed_rng
from repro.sim.chaos.campaign import CampaignResult, ChaosCampaign
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.chaos.injectors import MessageLoss
from repro.sim.chaos.monitors import (
    ConvergenceProbe,
    PartitionDetector,
    WeakConnectivityWatchdog,
)
from repro.sim.chaos.plan import FaultPlan
from repro.sim.host import make_simulator
from repro.topology.generators import random_tree_topology

__all__ = ["run", "run_campaign"]


def run_campaign(
    *,
    n: int,
    campaign_seed: int,
    loss_rate: float,
    burst_stop: int,
    rounds: int,
    guard: bool,
    engine: str = "reference",
) -> tuple[Any, CampaignResult]:
    """One fixed-seed campaign; baseline and guarded runs share everything
    (initial configuration, fault plan, simulator seed) except the
    transport, so outcome differences are attributable to the guard alone.

    Returns the host the campaign ran on (a :class:`repro.sim.host.Host`
    with a wire: it carries the stats and guard counters) and the result.
    *engine* is any of :data:`repro.sim.host.ENGINES` that has a wire:
    ``"fast"`` runs the same campaign on the vectorized chaos engine
    (:mod:`repro.sim.fast.chaos`); same plan DSL, same monitors, same trace
    format — recovery metrics are distributionally comparable to the
    reference (docs/CHAOS.md).
    """
    rng = seed_rng("e21", campaign_seed, n)
    simulator = make_simulator(
        random_tree_topology(n, rng),
        ProtocolConfig(),
        engine=engine,
        rng=rng,
        wire=True,
        guard=GuardPolicy() if guard else None,
    )
    plan = FaultPlan(seed=campaign_seed).schedule(
        MessageLoss(rate=loss_rate), start=0, stop=burst_stop, label="loss-burst"
    )
    monitors = (
        WeakConnectivityWatchdog(),
        PartitionDetector(),
        ConvergenceProbe(),
    )
    campaign = ChaosCampaign(simulator, plan, monitors)
    # A permanent partition cannot heal, so there is nothing to learn from
    # the remaining rounds.
    result = campaign.run(rounds, stop_on_partition=True)
    return simulator.host, result


def run(
    *,
    n: int = 256,
    loss_rate: float = 0.2,
    burst_stop: int = 100,
    rounds: int = 200,
    campaign_seeds: tuple[int, ...] = (0, 1, 2, 3),
    seed: int = 21,
    engine: str = "reference",
) -> ExperimentResult:
    """One row per (campaign seed, transport): outcome and recovery times."""
    result = ExperimentResult(
        experiment="e21",
        title="Chaos campaigns: message loss vs the guarded-handoff transport",
        claim="Section II-B assumes lossless channels; under loss the "
        "overlay can split permanently, and bounded retransmit-until-acked "
        "delivery of the critical handoffs restores convergence",
        params={
            "n": n,
            "loss_rate": loss_rate,
            "burst_stop": burst_stop,
            "rounds": rounds,
            "campaign_seeds": campaign_seeds,
            "seed": seed,
            "engine": engine,
        },
    )
    baseline_splits = 0
    guarded_splits = 0
    guarded_converged = 0
    for campaign_seed in campaign_seeds:
        for guard in (False, True):
            network, campaign = run_campaign(
                n=n,
                campaign_seed=campaign_seed,
                loss_rate=loss_rate,
                burst_stop=burst_stop,
                rounds=rounds,
                guard=guard,
                engine=engine,
            )
            burst = campaign.recovery.bursts[0]
            split = campaign.partition_round is not None
            if split:
                if guard:
                    guarded_splits += 1
                else:
                    baseline_splits += 1
            elif guard and campaign.healthy:
                guarded_converged += 1
            guard_stats = network.guard.stats if network.guard else None
            result.rows.append(
                {
                    "campaign_seed": campaign_seed,
                    "transport": "guarded" if guard else "baseline",
                    "outcome": (
                        f"SPLIT@{campaign.partition_round}"
                        if split
                        else ("converged" if campaign.healthy else "degraded")
                    ),
                    "rounds": campaign.rounds,
                    "time_to_detect": (
                        burst.time_to_detect
                        if burst.time_to_detect is not None
                        else -1
                    ),
                    "time_to_reconverge": (
                        burst.time_to_reconverge
                        if burst.time_to_reconverge is not None
                        else -1
                    ),
                    "messages": network.stats.total,
                    "overhead_frames": (
                        guard_stats.overhead_frames() if guard_stats else 0
                    ),
                    "abandoned": guard_stats.abandoned if guard_stats else 0,
                }
            )
    result.note(
        f"baseline: {baseline_splits}/{len(campaign_seeds)} campaigns ended "
        f"in a permanent partition (lossless channels are load-bearing)"
    )
    result.note(
        f"guarded: {guarded_converged}/{len(campaign_seeds)} campaigns "
        f"converged, {guarded_splits} split - the guard turns permanent "
        f"disconnection into delayed convergence"
    )
    return result
