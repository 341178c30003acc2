"""E17 — sustained churn: availability under a continuous update stream.

Theorem 4.24 prices one update at O(ln^{2+ε} n) rounds; if updates arrive
slower than recovery completes, the structure should be intact most of the
time, and degrade gracefully as churn approaches the recovery rate.  This
experiment sweeps the per-round join/leave probability and reports

* sorted-ring availability (fraction of rounds fully stable),
* mean fraction of correctly linked consecutive pairs (distance from
  perfect),
* greedy-routing success and hops over the actual stored links.

The paper's positioning ("designed for a large and highly dynamical
setting", §I) predicts the pair fraction and routing success stay high
well past the point where perfect-ring availability drops — the overlay
degrades locally, not globally.

Two extensions push this to production scale (docs/CHAOS.md "Churn at
scale"):

* ``engine=`` takes any of :data:`repro.sim.host.ENGINES`; ``"fast"``
  runs the sweep on the batched engine, reaching n ≈ 50k;
* ``storms=("flash_crowd", "correlated_departure", "partition_heal")``
  adds one row per named storm (:mod:`repro.churn.storms`): a batched
  membership event on a stable n-node overlay, priced by rounds to
  reconverge and net extra messages per event
  (:func:`repro.churn.scale.storm_recovery_trial`).
"""

from __future__ import annotations

from repro.churn.scale import storm_recovery_trial
from repro.churn.sequences import ChurnWorkload
from repro.churn.storms import STORMS
from repro.core.protocol import ProtocolConfig
from repro.experiments.common import ExperimentResult, seed_rng
from repro.graphs.build import stable_ring_states
from repro.ids import generate_ids
from repro.sim.host import make_simulator

__all__ = ["run"]


def _norm_tuple(value: object) -> tuple:
    """CLI-friendly tuple normalization: ``""`` → ``()``, scalar → 1-tuple."""
    if value is None or value == "":
        return ()
    if isinstance(value, (str, int, float)):
        return (value,)
    return tuple(value)  # type: ignore[arg-type]


def run(
    *,
    n: int = 128,
    rates: tuple[float, ...] = (0.02, 0.05, 0.1, 0.25, 0.5, 1.0),
    rounds: int = 400,
    trials: int = 2,
    seed: int = 17,
    engine: str = "reference",
    storms: tuple[str, ...] = (),
) -> ExperimentResult:
    """One row per churn rate (per-round join AND leave probability), plus
    one row per named storm leg when *storms* is non-empty."""
    rates = _norm_tuple(rates)
    storms = _norm_tuple(storms)
    for storm in storms:
        if storm not in STORMS:
            raise ValueError(
                f"unknown storm {storm!r}; expected one of {sorted(STORMS)}"
            )
    result = ExperimentResult(
        experiment="e17",
        title="Availability under sustained churn",
        claim="Section I / Theorem 4.24: built for a highly dynamical "
        "setting - updates costing O(ln^{2+eps} n) rounds imply graceful "
        "degradation as the churn rate rises",
        params={
            "n": n,
            "rates": rates,
            "rounds": rounds,
            "trials": trials,
            "seed": seed,
            "engine": engine,
            "storms": storms,
        },
    )
    for rate in rates:
        ring_avail, pair_frac, route_ok, route_hops, events = [], [], [], [], []
        for t in range(trials):
            rng = seed_rng(seed, rate, t)
            states = stable_ring_states(
                n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng)
            )
            sim = make_simulator(states, ProtocolConfig(), engine=engine, rng=rng)
            sim.run(10)
            workload = ChurnWorkload(
                sim, rng, join_probability=rate, leave_probability=rate
            )
            report = workload.run(rounds)
            ring_avail.append(report.ring_availability)
            pair_frac.append(report.mean_pair_fraction)
            route_ok.append(report.routing_success_rate)
            route_hops.append(report.mean_routing_hops)
            events.append(report.joins + report.leaves)
        result.rows.append(
            {
                "rate": rate,
                "events_mean": float(sum(events) / trials),
                "ring_availability": float(sum(ring_avail) / trials),
                "pair_fraction": float(sum(pair_frac) / trials),
                "routing_success": float(sum(route_ok) / trials),
                "routing_hops": float(sum(route_hops) / trials),
            }
        )
    if rates:
        low = result.rows[0]
        high = result.rows[-1]
        result.note(
            f"at rate {low['rate']}: ring availability "
            f"{low['ring_availability']:.0%}, routing success "
            f"{low['routing_success']:.0%}"
        )
        result.note(
            f"at rate {high['rate']} (one join + one leave per round): "
            f"perfect-ring availability {high['ring_availability']:.0%} but "
            f"pair fraction {high['pair_fraction']:.0%} and routing success "
            f"{high['routing_success']:.0%} - degradation is local, not "
            "global"
        )
    for storm in storms:
        res = storm_recovery_trial(n, storm=storm, seed=seed, engine=engine)
        result.rows.append(
            {
                "storm": storm,
                "n": res.n,
                "events": res.events,
                "recovery_rounds": res.rounds,
                "extra_messages": res.extra_messages,
                "per_event_messages": res.per_event_messages,
                "recovered": res.recovered,
            }
        )
        result.note(
            f"storm {storm} (n={res.n}): {res.events} events, reconverged "
            f"in {res.rounds} rounds"
            f"{'' if res.recovered else ' (NOT recovered within cap)'}, "
            f"{res.per_event_messages:.1f} extra msgs/event"
        )
    return result
