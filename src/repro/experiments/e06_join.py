"""E6 — join recovery cost (Theorem 4.24, first part).

"The number of steps needed to integrate a new node u inserted in the
network at a node v into its stable state position is at most
O(ln^{2+ε} n)."

Each trial joins one fresh node at a uniformly random contact of a stable
network and measures rounds and net extra messages until the sorted-ring
invariant covers the new node.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.scaling import compare_scaling
from repro.analysis.stats import summarize
from repro.churn.experiments import join_recovery_trial
from repro.experiments.common import ExperimentResult, seed_rng

__all__ = ["run"]


def run(
    *,
    sizes: tuple[int, ...] = (64, 128, 256, 512, 1024),
    trials: int = 5,
    seed: int = 6,
    engine: str = "reference",
) -> ExperimentResult:
    """One row per n: recovery rounds and extra messages, trial-averaged.

    *engine* is any of :data:`repro.sim.host.ENGINES`; the fast engines
    produce structurally conformant rows (the batched RNG draws in a
    different order, so the numbers are statistical twins, not
    bit-identical).
    """
    result = ExperimentResult(
        experiment="e06",
        title="Recovery cost of a node join",
        claim="Theorem 4.24: join integrates in O(ln^{2+eps} n) steps",
        params={"sizes": sizes, "trials": trials, "seed": seed, "engine": engine},
    )
    for n in sizes:
        rounds, extra = [], []
        for t in range(trials):
            rng = seed_rng(seed, n, t)
            res = join_recovery_trial(n, rng, engine=engine)
            rounds.append(res.rounds)
            extra.append(res.extra_messages)
        s = summarize(np.array(rounds, dtype=float))
        result.rows.append(
            {
                "n": n,
                "rounds_mean": s["mean"],
                "rounds_ci95": s["ci95"],
                "rounds_max": s["max"],
                "extra_msgs_mean": float(np.mean(extra)),
                "ln21_n": float(np.log(n) ** 2.1),
            }
        )
    xs = np.array([r["n"] for r in result.rows], dtype=float)
    ys = np.array([max(r["rounds_mean"], 0.5) for r in result.rows])
    if len(xs) < 3:
        result.note("no scaling fit: a fit needs at least 3 sizes")
        return result
    fits = compare_scaling(xs, ys)
    poly = fits["polylog"]
    result.note(
        f"polylog fit: rounds ~= {poly.a:.2f} * ln(n)^{poly.b:.2f} "
        f"(R^2={poly.r_squared:.3f}); winner: {fits['winner']}"
    )
    return result
