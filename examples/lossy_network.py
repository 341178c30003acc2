#!/usr/bin/env python
"""Beyond the model: where message loss is survivable — and where it is not.

The paper assumes lossless channels.  This example shows both sides of
what that assumption buys:

* the regular action re-advertises all *stored* links every round, so
  moderate loss rates only slow convergence down;
* but connectivity preservation during linearization hands identifiers
  over *inside single messages* (a displaced neighbor, a re-injected
  forgotten endpoint).  Lose that one message and the identifier is gone —
  at high loss rates the network demonstrably splits into components that
  can never find each other again.

Each loss rate is a :class:`~repro.sim.chaos.plan.FaultPlan` scheduling a
:class:`~repro.sim.chaos.injectors.MessageLoss` injector over the whole
run, driven by a :class:`~repro.sim.chaos.campaign.ChaosCampaign` whose
monitors watch for partitions and convergence — the verdict column is the
monitors' own judgement, not a timeout guess.

Run:  python examples/lossy_network.py [n] [seed]
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_rows
from repro.core.protocol import ProtocolConfig, build_network
from repro.sim.chaos import (
    ChaosCampaign,
    ConvergenceProbe,
    FaultPlan,
    MessageLoss,
    PartitionDetector,
)
from repro.sim.engine import Simulator
from repro.topology.generators import random_tree_topology


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    rows = []
    for loss in (0.0, 0.1, 0.2, 0.3, 0.5, 0.7):
        import numpy as np

        rng = np.random.default_rng(seed)
        states = random_tree_topology(n, rng)
        network = build_network(states, ProtocolConfig(), wire=True)
        simulator = Simulator(network, rng)

        plan = FaultPlan(seed=seed)
        injector = MessageLoss(rate=loss)
        if loss > 0.0:
            plan.schedule(injector, start=0, label=f"loss-{loss}")
        campaign = ChaosCampaign(
            simulator,
            plan,
            monitors=(PartitionDetector(), ConvergenceProbe()),
        )
        result = campaign.run(
            60 * n, stop_on_partition=True, stop_when_healthy=True
        )

        if result.partition_round is not None:
            detector = PartitionDetector()
            outcome = (
                f"SPLIT into {detector.components(network)} components "
                f"@ round {result.partition_round}"
            )
        elif result.healthy:
            healthy = result.trace.of_kind("healthy")
            ring_round = next(
                (
                    e.round_index
                    for e in healthy
                    if e.label.startswith("convergence")
                ),
                result.rounds,
            )
            outcome = f"converged @ round {ring_round}"
        else:
            outcome = "still converging"
        rows.append(
            {
                "loss_rate": loss,
                "outcome": outcome,
                "rounds": result.rounds,
                "messages_lost": injector.dropped,
            }
        )
    print(
        format_rows(
            rows,
            title=f"Message loss sweep (n={n}, same initial state each row):",
        )
    )
    print(
        "\nModerate loss only slows stabilization; at high rates a "
        "displaced identifier's only copy eventually rides a lost message "
        "and the network partitions permanently - the lossless channel is "
        "a load-bearing model assumption, not a convenience.  (See "
        "examples/chaos_campaign.py for the guarded-handoff transport that "
        "survives this.)"
    )


if __name__ == "__main__":
    main()
