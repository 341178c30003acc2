"""E3 — probing cost in the stable state (Lemma 4.23).

"If the network is at a stable state, a probing message does not take more
than O(ln^{2+ε} d) hops to reach its destination, where d is the distance
between the node and its long-range link."

We build the stable state directly (sorted ring + harmonic links, Fact
4.21), walk every node's probe with the serving walker
(:func:`repro.serve.routing.route_batch`, Algorithms 5/6) over the stable
line in rank space, and fit mean hops against distance: the polylog model
should win with exponent ≈ 2 + ε, and the ring-only replay (shortcuts
disabled) shows the linear baseline the shortcuts beat.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.scaling import compare_scaling
from repro.baselines.kleinberg import kleinberg_lrl_ranks
from repro.experiments.common import ExperimentResult, seed_rng
from repro.routing.stats import hops_by_distance
from repro.serve.routing import RouteView, route_batch

__all__ = ["run"]


def run(
    *,
    n: int = 2**14,
    trials: int = 4,
    seed: int = 3,
    bins_per_decade: int = 3,
) -> ExperimentResult:
    """One row per distance bin: probe hops with and without shortcuts."""
    result = ExperimentResult(
        experiment="e03",
        title="Probing hop count vs link distance in the stable state",
        claim="Lemma 4.23: probing takes O(ln^{2+eps} d) hops",
        params={"n": n, "trials": trials, "seed": seed},
    )
    all_hops: list[np.ndarray] = []
    all_d: list[np.ndarray] = []
    for t in range(trials):
        rng = seed_rng(seed, t)
        lrl = kleinberg_lrl_ranks(n, rng)
        src = np.arange(n, dtype=np.int64)
        # Probe targets in *line* (identifier) space: each node probes its
        # own lrl, exactly as Algorithm 10 emits them.
        dst = lrl.copy()
        away = dst != src
        # Algorithm 10: the origin emits to its ring neighbor, never through
        # its own link (which *is* the target); Algorithms 5/6 forward on.
        first = src[away] + np.sign(dst[away] - src[away])
        hops = route_batch(RouteView.from_ranks(lrl), first, dst[away]).hops + 1
        all_hops.append(hops)
        all_d.append(np.abs(dst[away] - src[away]))
    hops = np.concatenate(all_hops)
    d = np.concatenate(all_d)
    for row in hops_by_distance(hops, d, bins_per_decade=bins_per_decade):
        # Ring-only lower bound for this bin is the distance itself.
        row["ring_only_hops"] = float(np.sqrt(row["d_lo"] * row["d_hi"]))
        result.rows.append(row)

    # Scaling fit over bin means (d > e so ln ln d is defined and the
    # asymptotic regime applies).
    xs = np.array([np.sqrt(r["d_lo"] * r["d_hi"]) for r in result.rows])
    ys = np.array([r["mean_hops"] for r in result.rows])
    keep = xs > 3
    fits = compare_scaling(xs[keep], ys[keep])
    poly = fits["polylog"]
    power = fits["power"]
    result.note(
        f"polylog fit: hops ~= {poly.a:.2f} * ln(d)^{poly.b:.2f} "
        f"(R^2={poly.r_squared:.3f}); paper predicts exponent 2+eps"
    )
    result.note(
        f"power fit: hops ~= {power.a:.2f} * d^{power.b:.2f} "
        f"(R^2={power.r_squared:.3f}); winner: {fits['winner']}"
    )
    return result
