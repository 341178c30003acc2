"""Recovery-cost measurement for join/leave events (Theorem 4.24).

A recovery trial starts from a *stable* network (sorted ring, harmonic
long-range links), applies one topology update, and runs until the
sorted-ring invariant holds again over the new node set.  Reported costs:

* ``rounds`` — synchronous rounds to re-stabilization (the paper's
  "steps", claimed ``O(ln^{2+ε} n)``);
* ``extra_messages`` — total messages sent during recovery minus the
  steady-state maintenance traffic (measured per-network before the
  event), i.e. the *net* message cost attributable to the update.  The
  protocol's regular action sends Θ(n) maintenance messages per round
  regardless, so raw totals would measure the maintenance rate, not the
  recovery.

Every trial is **host-generic** (any engine of
:data:`repro.sim.host.ENGINES`): the batched engine runs the same
measurement at sizes the reference stack cannot reach — that is what the
storm-scale benchmark (:mod:`repro.churn.scale`,
``BENCH_churn_scale.json``) builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.graphs.build import stable_ring_states
from repro.ids import generate_ids
from repro.sim.engine import BaseSimulator
from repro.sim.host import Host, make_simulator

__all__ = [
    "RecoveryResult",
    "measure_recovery",
    "join_recovery_trial",
    "leave_recovery_trial",
    "stable_simulator",
    "steady_state_rate",
]

#: Either driver: the reference Simulator or a FastSimulator.
AnySimulator = BaseSimulator[Host]


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one recovery trial."""

    n: int
    rounds: int
    total_messages: int
    extra_messages: float
    baseline_rate: float


def steady_state_rate(sim: AnySimulator, rounds: int = 10) -> float:
    """Messages per round in the stable state (maintenance traffic)."""
    before = sim.host.stats.total
    sim.run(rounds)
    return float(sim.host.stats.total - before) / rounds


def measure_recovery(
    sim: AnySimulator,
    *,
    max_rounds: int,
    baseline_rate: float,
    what: str = "recovery",
) -> RecoveryResult:
    """Run *sim* until the sorted ring holds again; return the cost."""
    host = sim.host
    before = host.stats.total
    rounds = sim.run_until(
        lambda h: h.is_sorted_ring(), max_rounds=max_rounds, what=what
    )
    total = int(host.stats.total - before)
    extra = total - baseline_rate * rounds
    return RecoveryResult(
        n=len(host),
        rounds=rounds,
        total_messages=total,
        extra_messages=float(max(extra, 0.0)),
        baseline_rate=baseline_rate,
    )


def stable_simulator(
    n: int,
    rng: np.random.Generator,
    config: ProtocolConfig | None = None,
    *,
    engine: str = "reference",
) -> AnySimulator:
    """A warmed-up simulator over a stable n-node ring, on any engine."""
    states = stable_ring_states(n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng))
    sim = make_simulator(states, config, engine=engine, rng=rng)
    # Warm up until the in-flight probe population reaches steady state —
    # probes live for E[path length] ≈ ln^2 n rounds, so measuring the
    # baseline message rate any earlier would undercount it and inflate the
    # "extra messages" attributed to the churn event.
    sim.run(10 + int(math.log(n) ** 2))
    return sim


def join_recovery_trial(
    n: int,
    rng: np.random.Generator,
    *,
    config: ProtocolConfig | None = None,
    max_rounds: int | None = None,
    engine: str = "reference",
) -> RecoveryResult:
    """One join event on a stable n-node network (experiment E6)."""
    if n < 4:
        raise ValueError("n must be at least 4")
    sim = stable_simulator(n, rng, config, engine=engine)
    rate = steady_state_rate(sim)
    host = sim.host
    ids = host.ids
    new_id = generate_ids(1, rng)[0]
    while new_id in host:  # pragma: no cover - measure-zero collision
        new_id = generate_ids(1, rng)[0]
    host.join(new_id, ids[int(rng.integers(len(ids)))])
    cap = max_rounds if max_rounds is not None else max(200, 4 * n)
    return measure_recovery(
        sim, max_rounds=cap, baseline_rate=rate, what=f"join recovery (n={n})"
    )


def leave_recovery_trial(
    n: int,
    rng: np.random.Generator,
    *,
    config: ProtocolConfig | None = None,
    max_rounds: int | None = None,
    extremal: bool = False,
    engine: str = "reference",
) -> RecoveryResult:
    """One leave event on a stable n-node network (experiment E7).

    By default a random *non-extremal* node leaves (the paper's gap-closing
    scenario); ``extremal=True`` removes the minimum instead, which also
    forces the ring edges to re-form.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    sim = stable_simulator(n, rng, config, engine=engine)
    rate = steady_state_rate(sim)
    ids = sim.host.ids
    if extremal:
        victim = ids[0]
    else:
        victim = ids[int(rng.integers(1, len(ids) - 1))]
    sim.host.leave(victim)
    cap = max_rounds if max_rounds is not None else max(200, 4 * n)
    return measure_recovery(
        sim, max_rounds=cap, baseline_rate=rate, what=f"leave recovery (n={n})"
    )
