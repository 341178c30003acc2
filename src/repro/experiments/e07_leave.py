"""E7 — leave recovery cost (Theorem 4.24, second part).

"The number of steps needed for a network to recover to its stable state
after a node u leaves the network is at most O(ln^{2+ε} n)."

Two scenarios per size: an interior node leaving (the paper's gap-closing
argument — a long-range link crossing the gap turns a failing probe into
the repair edge) and the minimum leaving (which additionally forces both
ring edges to re-form through the resring search).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.scaling import compare_scaling
from repro.analysis.stats import summarize
from repro.churn.experiments import leave_recovery_trial
from repro.experiments.common import ExperimentResult, seed_rng

__all__ = ["run"]


def run(
    *,
    sizes: tuple[int, ...] = (64, 128, 256, 512, 1024),
    trials: int = 5,
    seed: int = 7,
    engine: str = "reference",
) -> ExperimentResult:
    """One row per (n, scenario): recovery rounds, trial-averaged.

    *engine* is any of :data:`repro.sim.host.ENGINES`; the fast engines
    produce structurally conformant rows (the batched RNG draws in a
    different order, so the numbers are statistical twins, not
    bit-identical).
    """
    result = ExperimentResult(
        experiment="e07",
        title="Recovery cost of a node departure",
        claim="Theorem 4.24: the network recovers from a leave in "
        "O(ln^{2+eps} n) steps",
        params={"sizes": sizes, "trials": trials, "seed": seed, "engine": engine},
    )
    for scenario, extremal in (("interior", False), ("extremal_min", True)):
        for n in sizes:
            rounds, extra = [], []
            for t in range(trials):
                rng = seed_rng(seed, scenario, n, t)
                res = leave_recovery_trial(n, rng, extremal=extremal, engine=engine)
                rounds.append(res.rounds)
                extra.append(res.extra_messages)
            s = summarize(np.array(rounds, dtype=float))
            result.rows.append(
                {
                    "scenario": scenario,
                    "n": n,
                    "rounds_mean": s["mean"],
                    "rounds_ci95": s["ci95"],
                    "rounds_max": s["max"],
                    "extra_msgs_mean": float(np.mean(extra)),
                    "ln21_n": float(np.log(n) ** 2.1),
                }
            )
    for scenario in ("interior", "extremal_min"):
        rows = [r for r in result.rows if r["scenario"] == scenario]
        xs = np.array([r["n"] for r in rows], dtype=float)
        ys = np.array([max(r["rounds_mean"], 0.5) for r in rows])
        if len(xs) < 3:
            result.note(f"{scenario}: no scaling fit: a fit needs at least 3 sizes")
            continue
        fits = compare_scaling(xs, ys)
        poly = fits["polylog"]
        power = fits["power"]
        result.note(
            f"{scenario}: polylog b={poly.b:.2f} (R^2={poly.r_squared:.3f}), "
            f"power b={power.b:.2f} (R^2={power.r_squared:.3f}), "
            f"winner: {fits['winner']}"
        )
    return result
