"""E22 — production-scale cold convergence and routing (`repro.sim.fast`).

The batched struct-of-arrays engine exists to make the paper's asymptotic
claims *measurable*: Theorem 4.1's convergence bound and Fact 4.21's
O(ln^{2+ε} n) greedy routing only separate from their constants at scales
the object-per-node reference engine cannot reach (it tops out around
N≈1–2k).  This experiment runs cold convergence — a fully shuffled line,
the hardest standard seed topology — at N up to ~50k on the batched
engine, and at small N times the reference engine on the *identical*
workload to report a measured speedup.

Columns per size: rounds to the sorted ring, total protocol messages,
wall-clock seconds for the batched engine, reference seconds and the
speedup factor (sizes ≤ ``reference_max_n`` only), and over the same
random rank pairs on the overlay's links: mean greedy hops (``route_hops``,
Kleinberg's rule, against the ring-only ``ring_hops``) and mean probe hops
with the count of lost probes (``probe_hops``/``probe_lost``, Algorithms
5/6 on the serving walker, the hops Lemma 4.23 bounds), plus ln²n for
eyeballing the polylog claims.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.experiments.common import ExperimentResult, seed_rng
from repro.obs.profile import reset_peak_rss, section_peak_rss_bytes
from repro.routing.greedy import greedy_route_hops
from repro.serve.routing import RouteView, route_batch
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.engine import BaseSimulator
from repro.sim.host import Host, make_simulator
from repro.topology.generators import topology_soa

__all__ = ["run"]


def _stabilize_faulted(
    sim: BaseSimulator[Host],
    *,
    loss_rate: float,
    burst_stop: int,
    plan_seed: int,
    max_rounds: int,
) -> int:
    """Drive a simulator whose host has a wire through a loss burst to the
    sorted ring; returns the convergence round (or ``max_rounds``)."""
    from repro.sim.chaos.injectors import MessageLoss
    from repro.sim.chaos.plan import FaultPlan

    host: Any = sim.host
    plan = FaultPlan(seed=plan_seed).schedule(
        MessageLoss(rate=loss_rate), start=0, stop=burst_stop, label="loss-burst"
    )
    for r in range(max_rounds):
        host.wire.set_wire_faults(plan.active_wire_faults(r))
        sim.step_round()
        # The ring cannot settle while frames are still being dropped, so
        # only poll the predicate once the burst window has closed.
        if r + 1 >= burst_stop and (r + 1) % 8 == 0:
            if host.is_sorted_ring():
                return r + 1
    return max_rounds


def run(
    *,
    sizes: tuple[int, ...] = (2048, 8192, 49152),
    topology: str = "line",
    queries: int = 2000,
    reference_max_n: int = 2048,
    seed: int = 7,
    max_rounds_factor: int = 60,
    loss_rate: float = 0.0,
    burst_stop: int = 60,
    engine: str = "fast",
) -> ExperimentResult:
    """Run the scale sweep; one row per size.

    ``engine`` selects the primary engine, any of
    :data:`repro.sim.host.ENGINES`: ``"fast"`` (the batched default) or
    ``"reference"`` (the per-node engine, for the cross-engine
    conformance matrix at small n).  The timing column
    ``fast_s`` always reports the primary engine's wall clock, and the
    ``peak_rss_mb`` column the row's own peak RSS: the process high-water
    mark is reset before the primary engine is built and read as soon as
    it has converged, so neither an earlier, larger row nor the reference
    leg shows up in it.  Where the kernel refuses the reset the cell is
    blank, not the process-lifetime peak.

    ``reference_max_n`` caps the sizes at which the reference engine is
    *additionally* run for the measured-speedup column (it needs minutes
    per round in the tens of thousands); the column is blank above the
    cap and when the primary engine is already the reference.

    ``loss_rate > 0`` switches to the **faulted variant**: cold
    convergence through a message-loss burst (rounds ``[0, burst_stop)``)
    over the chaos wire with the guarded-handoff transport
    (docs/CHAOS.md).  The reference comparison leg is skipped — at these
    sizes the scalar chaos wire needs minutes per round — so the speedup
    columns are blank and guard-overhead columns appear instead.
    """
    result = ExperimentResult(
        experiment="e22",
        title="Cold convergence and greedy routing at production scale "
        "(batched engine)",
        claim="Theorem 4.1 / Fact 4.21 / Lemma 4.23: polylog convergence "
        "rounds, O(ln^{2+eps} n) greedy hops (route_hops) and O(ln^{2+eps} d) "
        "probe hops (probe_hops, Algorithms 5/6), measured at N up to ~50k",
        params={
            "sizes": sizes,
            "topology": topology,
            "queries": queries,
            "reference_max_n": reference_max_n,
            "seed": seed,
            "loss_rate": loss_rate,
            "engine": engine,
        },
    )
    if loss_rate:
        result.params["burst_stop"] = burst_stop
    config = ProtocolConfig()
    for n in sizes:
        # One id-sorted column start per size.  The primary simulator
        # runs over its own copy, so the start is dropped once it is built;
        # the reference leg, at small n only, gets it as a NodeState list.
        start = topology_soa(topology, n, seed_rng(seed, topology, n))
        run_reference = n <= reference_max_n and not loss_rate and engine != "reference"
        reference_states = start.to_states() if run_reference else None
        max_rounds = max_rounds_factor * max(int(np.log2(n)) ** 2, 1)

        measured_rss = reset_peak_rss()
        fast = make_simulator(
            start,
            config,
            engine=engine,
            rng=seed_rng(seed, "fast", n),
            guard=GuardPolicy() if loss_rate else None,
        )
        del start
        t0 = time.perf_counter()
        if loss_rate:
            fast_rounds = _stabilize_faulted(
                fast,
                loss_rate=loss_rate,
                burst_stop=burst_stop,
                plan_seed=seed,
                max_rounds=max_rounds,
            )
        else:
            fast_rounds = fast.run_until(
                lambda host: host.is_sorted_ring(),
                max_rounds=max_rounds,
                check_every=8,
                what=f"sorted ring ({engine})",
            )
        fast_seconds = time.perf_counter() - t0
        rss = section_peak_rss_bytes() if measured_rss else None

        ref_seconds = None
        ref_rounds = None
        if reference_states is not None:
            reference = make_simulator(
                reference_states, config, rng=seed_rng(seed, "ref", n)
            )
            t0 = time.perf_counter()
            ref_rounds = reference.run_until(
                lambda host: host.is_sorted_ring(),
                max_rounds=max_rounds,
                check_every=8,
                what="sorted ring (reference)",
            )
            ref_seconds = time.perf_counter() - t0

        # Let move-and-forget keep mixing past first convergence: at the
        # round the ring first closes the long-range links are still near
        # their cold-start values, so routing there measures the sorted
        # ring, not the small world.  Doubling the horizon is cheap and
        # shows the finite-horizon shortcut payoff (E5's "process" curve).
        query_rng = seed_rng(seed, "queries", n)
        src = query_rng.integers(0, n, size=queries)
        dst = query_rng.integers(0, n, size=queries)
        fast.run(fast_rounds)
        messages = fast.host.stats.total
        view = RouteView.from_states(fast.host.state_snapshot())
        hops = float(greedy_route_hops(n, view.lrl_rank, src, dst).mean())
        ring_hops = float(greedy_route_hops(n, None, src, dst).mean())
        probes = route_batch(view, src, dst)

        row: dict[str, object] = {
            "n": n,
            "rounds": fast_rounds,
            "messages": messages,
            "fast_s": round(fast_seconds, 3),
            "ref_s": round(ref_seconds, 3) if ref_seconds is not None else "",
            "ref_rounds": ref_rounds if ref_rounds is not None else "",
            "speedup": (
                round(ref_seconds / fast_seconds, 1)
                if ref_seconds is not None
                else ""
            ),
            "route_hops": round(hops, 2),
            "ring_hops": round(ring_hops, 2),
            "probe_hops": round(float(probes.hops[probes.ok].mean()), 2),
            "probe_lost": int((~probes.ok).sum()),
            "ln2_n": round(float(np.log(n) ** 2), 1),
            "peak_rss_mb": (
                round(rss / 1e6, 1) if rss is not None else ""
            ),
        }
        if loss_rate:
            guard_stats = fast.host.wire.guard.stats  # type: ignore[union-attr]
            row["overhead_frames"] = guard_stats.overhead_frames()
            row["abandoned"] = guard_stats.abandoned
        result.rows.append(row)

    measured = [r for r in result.rows if r["speedup"] != ""]
    if loss_rate:
        worst = max(int(str(r["abandoned"])) for r in result.rows)
        result.note(
            f"faulted variant: loss_rate={loss_rate} for rounds "
            f"[0, {burst_stop}) over the guarded chaos wire (engine={engine}) - "
            f"every size converged with {worst} abandoned handoffs"
        )
    if measured:
        best = max(float(str(r["speedup"])) for r in measured)
        result.note(
            f"batched-engine speedup over the reference engine on identical "
            f"cold-convergence workloads: up to {best:.1f}x "
            f"(sizes <= {reference_max_n})"
        )
    largest = result.rows[-1]
    result.note(
        f"largest run: n={largest['n']} converged in {largest['rounds']} "
        f"rounds ({largest['fast_s']}s wall clock); greedy routing "
        f"{largest['route_hops']} hops vs {largest['ring_hops']} ring-only, "
        f"probes {largest['probe_hops']} hops with {largest['probe_lost']} "
        f"lost (ln^2 n = {largest['ln2_n']})"
    )
    result.note(
        "route_hops (greedy: the ring-distance minimum over l, r and lrl) "
        "and probe_hops (probr/probl: one direction along the line, never "
        "past the target) both measure the finite-horizon move-and-forget "
        "state (2x the convergence horizon) — greedy beats the ring-only "
        "baseline and keeps improving with horizon toward E5's harmonic curve"
    )
    return result
