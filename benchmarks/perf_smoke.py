"""Seconds-scale perf-regression smoke: batched engine vs reference.

Runs the identical cold-convergence workload (shuffled line, fixed seed)
on both engines and gates on the *ratio* ``fast_seconds / ref_seconds`` —
a machine-independent number, unlike absolute wall clock.  The recorded
baseline lives in ``benchmarks/perf_baseline.json``; the gate fails when
the measured ratio regresses more than 25% past the baseline (the fast
engine getting slower relative to the reference), and prints-but-passes
when it improves enough that the baseline should be re-recorded.

A second, independent gate pins the observability layer's cost contract
(docs/OBSERVABILITY.md): with no observer active a simulator's round loop
must stay within ``OBS_SLACK`` (5%) of the bare engine loop, on both
engines (reference, batched).  The engines hold no telemetry
code — an observer times their layers from outside, and only while it is
attached — so what this gate times is the simulator's own attach point
(the round's ``SimHandle`` check) and anything that ever creeps back onto
the round path.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py            # both gates
    PYTHONPATH=src python benchmarks/perf_smoke.py --record   # new baseline

CI runs the gates on every push (docs/PERF.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import sys
import time

import numpy as np

BASELINE = pathlib.Path(__file__).parent / "perf_baseline.json"
OBS_BENCH = pathlib.Path(__file__).parent.parent / "BENCH_obs_overhead.json"

#: The workload: small enough for seconds-scale CI, large enough that the
#: batched engine's per-round overhead is amortized (at n below ~256 the
#: two engines tie and the ratio is noise).
N = 768
SEED = 2024
REPEATS = 3
SLACK = 1.25

#: Obs-disabled overhead gate: an unobserved simulator's round loop must
#: stay within 5% of the bare engine loop.  Fixed round counts so
#: both variants do byte-identical protocol work; sizes chosen so each
#: measurement is a few hundred milliseconds (min-of-repeats kills most
#: scheduler noise at that scale).
OBS_SLACK = 1.05
OBS_REPEATS = 5
OBS_FAST_N, OBS_FAST_ROUNDS = 512, 300
OBS_REF_N, OBS_REF_ROUNDS = 192, 80

#: Chaos-at-scale gate (docs/CHAOS.md "Faults at scale"): a fixed-round
#: guarded loss-burst campaign at n=2048 on the batched engine's wire
#: must beat the wired reference network by at least ``CHAOS_MIN_SPEEDUP``
#: wall-clock.  An absolute floor, not a baseline ratio: the batched wire
#: was built to make fault injection usable at E22 sizes, and 5x is the
#: point below which the port stops paying for its complexity.  The
#: reference leg takes ~15s, so this is the slowest gate; ``--skip-chaos``
#: drops it for quick local runs.
CHAOS_N = 2048
CHAOS_ROUNDS = 40
CHAOS_LOSS = 0.2
CHAOS_BURST_STOP = 30
CHAOS_SEED = 77
CHAOS_MIN_SPEEDUP = 5.0
CHAOS_BENCH = pathlib.Path(__file__).parent.parent / "BENCH_chaos_scale.json"


def _workload_states():
    from repro.topology.generators import TOPOLOGIES

    return TOPOLOGIES["line"](N, np.random.default_rng(SEED))


def _time_reference(states) -> float:
    from repro.core.protocol import ProtocolConfig, build_network
    from repro.graphs.predicates import is_sorted_ring
    from repro.sim.engine import Simulator

    net = build_network([s.copy() for s in states], ProtocolConfig())
    sim = Simulator(net, rng=np.random.default_rng(SEED))
    start = time.perf_counter()
    sim.run_until(
        lambda network: is_sorted_ring(network.states()),
        max_rounds=60 * N,
        check_every=8,
    )
    return time.perf_counter() - start


def _time_fast(states) -> float:
    from repro.core.protocol import ProtocolConfig
    from repro.sim.fast import FastSimulator, fast_is_sorted_ring

    sim = FastSimulator.from_states(
        [s.copy() for s in states],
        ProtocolConfig(),
        rng=np.random.default_rng(SEED),
    )
    start = time.perf_counter()
    sim.run_until(fast_is_sorted_ring, max_rounds=60 * N, check_every=8)
    return time.perf_counter() - start


def measure() -> dict[str, float]:
    """Best-of-``REPEATS`` timings for both engines on the shared workload."""
    states = _workload_states()
    ref = min(_time_reference(states) for _ in range(REPEATS))
    fast = min(_time_fast(states) for _ in range(REPEATS))
    return {
        "ref_seconds": round(ref, 4),
        "fast_seconds": round(fast, 4),
        "ratio": round(fast / ref, 4),
    }


@contextlib.contextmanager
def _gc_quiesced():
    """Run a timed section collector-free.

    The obs legs compare a sub-microsecond per-round delta against
    millisecond rounds; one generational collection landing inside one
    variant but not its interleaved twin swamps that delta and flakes
    the 5% gate (seen on the single-CPU CI box in an allocation-heavy
    leg).  Collect up front, time without the collector, restore.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _obs_fast(bare: bool) -> float:
    """Fixed-round batched run; ``bare`` bypasses the step_round hook."""
    from repro.core.protocol import ProtocolConfig
    from repro.sim.fast import FastSimulator
    from repro.topology.generators import TOPOLOGIES

    states = TOPOLOGIES["line"](OBS_FAST_N, np.random.default_rng(SEED))
    sim = FastSimulator.from_states(
        states, ProtocolConfig(), rng=np.random.default_rng(SEED)
    )
    engine, rng = sim.engine, sim.rng
    with _gc_quiesced():
        start = time.perf_counter()
        if bare:
            for _ in range(OBS_FAST_ROUNDS):
                engine.execute_round(rng)
                engine.stats.end_round()
        else:
            sim.run(OBS_FAST_ROUNDS)
        return time.perf_counter() - start


def _obs_reference(bare: bool) -> float:
    """Fixed-round reference run; ``bare`` bypasses the step_round hook."""
    from repro.core.protocol import ProtocolConfig, build_network
    from repro.sim.engine import Simulator
    from repro.topology.generators import TOPOLOGIES

    states = TOPOLOGIES["line"](OBS_REF_N, np.random.default_rng(SEED))
    net = build_network(states, ProtocolConfig())
    sim = Simulator(net, rng=np.random.default_rng(SEED))
    scheduler, rng = sim.scheduler, sim.rng
    with _gc_quiesced():
        start = time.perf_counter()
        if bare:
            for _ in range(OBS_REF_ROUNDS):
                scheduler.execute_round(net, rng)
                net.stats.end_round()
        else:
            sim.run(OBS_REF_ROUNDS)
        return time.perf_counter() - start


def measure_obs_overhead() -> dict[str, float]:
    """Unobserved simulator vs bare engine round loops, on both engines.

    No observer is active in this process, so the hooked path is the
    production obs-disabled path: the simulator's ``step_round``, whose
    one ``is None`` check on the observer handle is all the round carries
    (docs/OBSERVABILITY.md's cost contract).

    Bare/hooked repeats are *interleaved*, and the gated ratio is the
    **median of per-repeat hooked/bare pairs**: the true per-round delta
    is sub-microsecond against millisecond rounds, so any measured gap
    beyond noise is a real hot-path regression.  Pairing temporally
    adjacent runs cancels slow drift (turbo, co-tenants) that hits both
    variants of a pair equally, and the median discards the repeats a
    scheduler spike lands in — min-of-mins across unpaired samples does
    neither, and flaked on the single-CPU CI box.  Which variant runs
    first alternates from pair to pair, so a box that speeds up or slows
    down within a pair does not always favour the same side.  The
    recorded ``*_seconds`` columns stay best-case (min) wall clocks.
    """
    import statistics

    legs = {"fast": _obs_fast, "ref": _obs_reference}
    bare: dict[str, list[float]] = {leg: [] for leg in legs}
    hooked: dict[str, list[float]] = {leg: [] for leg in legs}
    for repeat in range(OBS_REPEATS):
        for leg, run in legs.items():
            # Even pairs run bare first, odd pairs hooked first.
            for is_bare in (repeat % 2 == 0, repeat % 2 == 1):
                (bare if is_bare else hooked)[leg].append(run(bare=is_bare))
    result: dict[str, float] = {}
    for leg in legs:
        result[f"{leg}_bare_seconds"] = round(min(bare[leg]), 4)
        result[f"{leg}_hooked_seconds"] = round(min(hooked[leg]), 4)
        result[f"{leg}_ratio"] = round(
            statistics.median(
                h / b for b, h in zip(bare[leg], hooked[leg])
            ),
            4,
        )
    return result


def _chaos_plan():
    from repro.sim.chaos.injectors import MessageLoss
    from repro.sim.chaos.plan import FaultPlan

    return FaultPlan(seed=CHAOS_SEED).schedule(
        MessageLoss(rate=CHAOS_LOSS),
        start=0,
        stop=CHAOS_BURST_STOP,
        label="loss-burst",
    )


def _chaos_states():
    from repro.topology.generators import TOPOLOGIES

    return TOPOLOGIES["random_tree"](CHAOS_N, np.random.default_rng(CHAOS_SEED))


def _time_chaos_reference(states) -> float:
    from repro.core.protocol import ProtocolConfig, build_network
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.engine import Simulator

    net = build_network(
        [s.copy() for s in states],
        ProtocolConfig(),
        wire=True,
        guard=GuardPolicy(),
    )
    sim = Simulator(net, rng=np.random.default_rng(CHAOS_SEED + 1))
    plan = _chaos_plan()
    start = time.perf_counter()
    for r in range(CHAOS_ROUNDS):
        net.wire.set_wire_faults(plan.active_wire_faults(r))
        sim.step_round()
    return time.perf_counter() - start


def _time_chaos_fast(states) -> float:
    from repro.core.protocol import ProtocolConfig
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.fast import FastSimulator

    sim = FastSimulator.from_states(
        [s.copy() for s in states],
        ProtocolConfig(),
        wire=True,
        guard=GuardPolicy(),
        rng=np.random.default_rng(CHAOS_SEED + 1),
    )
    plan = _chaos_plan()
    start = time.perf_counter()
    for r in range(CHAOS_ROUNDS):
        sim.engine.wire.set_wire_faults(plan.active_wire_faults(r))
        sim.step_round()
    return time.perf_counter() - start


def measure_chaos() -> dict[str, float]:
    """Identical guarded loss-burst campaign on both chaos transports.

    Best-of-``REPEATS`` for the fast engine; a single reference run (its
    leg dominates the gate's wall clock, and at ~15s one run is already
    far from the noise floor).
    """
    states = _chaos_states()
    fast = min(_time_chaos_fast(states) for _ in range(REPEATS))
    ref = _time_chaos_reference(states)
    return {
        "ref_chaos_seconds": round(ref, 4),
        "fast_chaos_seconds": round(fast, 4),
        "chaos_speedup": round(ref / fast, 1),
    }


def record_chaos_bench(result: dict[str, float]) -> None:
    """Machine-stamp the measured speedup into ``BENCH_chaos_scale.json``."""
    import platform

    entry = {
        "bench": "chaos_scale",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "gate": f"reference/fast speedup >= {CHAOS_MIN_SPEEDUP}",
        "workload": {
            "n": CHAOS_N,
            "rounds": CHAOS_ROUNDS,
            "topology": "random_tree",
            "loss_rate": CHAOS_LOSS,
            "burst_stop": CHAOS_BURST_STOP,
            "guard": True,
            "seed": CHAOS_SEED,
        },
        **result,
    }
    CHAOS_BENCH.write_text(json.dumps([entry], indent=2) + "\n")


def record_obs_bench(result: dict[str, float]) -> None:
    """Machine-stamp the measured overhead into ``BENCH_obs_overhead.json``."""
    import platform

    entry = {
        "bench": "obs_overhead",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "gate": f"hooked/bare ratio <= {OBS_SLACK}",
        "workloads": {
            "fast": {"n": OBS_FAST_N, "rounds": OBS_FAST_ROUNDS, "seed": SEED},
            "reference": {"n": OBS_REF_N, "rounds": OBS_REF_ROUNDS, "seed": SEED},
        },
        **result,
    }
    OBS_BENCH.write_text(json.dumps([entry], indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the measured ratio as the new baseline and exit",
    )
    parser.add_argument(
        "--skip-obs",
        action="store_true",
        help="skip the obs-disabled overhead gate (engine-ratio gate only)",
    )
    parser.add_argument(
        "--skip-chaos",
        action="store_true",
        help="skip the chaos-at-scale speedup gate (its reference leg is "
        "the slowest part of the smoke)",
    )
    args = parser.parse_args(argv)

    chaos_failed = False
    if not args.skip_chaos:
        chaos = measure_chaos()
        print(
            f"perf-smoke[chaos]: n={CHAOS_N} "
            f"reference={chaos['ref_chaos_seconds']}s "
            f"fast={chaos['fast_chaos_seconds']}s "
            f"speedup={chaos['chaos_speedup']}x "
            f"(floor {CHAOS_MIN_SPEEDUP}x)"
        )
        chaos_failed = chaos["chaos_speedup"] < CHAOS_MIN_SPEEDUP
        if chaos_failed:
            print(
                "perf-smoke[chaos]: the batched engine's wire no longer "
                f"beats the wired reference network {CHAOS_MIN_SPEEDUP}x on "
                "the guarded loss-burst workload; the batched wire has a "
                "scalar bottleneck (docs/CHAOS.md)"
            )
        if args.record:
            record_chaos_bench(chaos)
            print(f"perf-smoke[chaos]: recorded to {CHAOS_BENCH}")

    obs_failed = False
    if not args.skip_obs:
        obs = measure_obs_overhead()
        print(
            f"perf-smoke[obs]: fast hooked={obs['fast_hooked_seconds']}s "
            f"bare={obs['fast_bare_seconds']}s ratio={obs['fast_ratio']}  "
            f"reference hooked={obs['ref_hooked_seconds']}s "
            f"bare={obs['ref_bare_seconds']}s ratio={obs['ref_ratio']}"
        )
        obs_failed = max(obs["fast_ratio"], obs["ref_ratio"]) > OBS_SLACK
        if obs_failed:
            print(
                "perf-smoke[obs]: disabled observability costs more than "
                f"{int((OBS_SLACK - 1) * 100)}%; the obs-disabled hot path "
                "must stay a single None-check per round "
                "(docs/OBSERVABILITY.md)"
            )
        if args.record:
            record_obs_bench(obs)
            print(f"perf-smoke[obs]: recorded to {OBS_BENCH}")

    result = measure()
    print(
        f"perf-smoke: n={N} reference={result['ref_seconds']}s "
        f"fast={result['fast_seconds']}s ratio={result['ratio']}"
    )

    if args.record:
        BASELINE.write_text(
            json.dumps({"workload": {"n": N, "seed": SEED}, **result}, indent=2)
            + "\n"
        )
        print(f"perf-smoke: baseline recorded to {BASELINE}")
        return 1 if (obs_failed or chaos_failed) else 0

    if not BASELINE.exists():
        print("perf-smoke: no baseline recorded; run with --record first")
        return 2
    baseline = json.loads(BASELINE.read_text())
    limit = baseline["ratio"] * SLACK
    verdict = "OK" if result["ratio"] <= limit else "REGRESSION"
    print(
        f"perf-smoke: baseline ratio={baseline['ratio']} "
        f"limit={limit:.4f} -> {verdict}"
    )
    if verdict == "REGRESSION":
        print(
            "perf-smoke: the batched engine slowed down more than "
            f"{int((SLACK - 1) * 100)}% relative to the reference engine; "
            "investigate before merging (or re-record a justified baseline)"
        )
        return 1
    if result["ratio"] < baseline["ratio"] / SLACK:
        print(
            "perf-smoke: ratio improved well past the baseline — consider "
            "re-recording with --record"
        )
    return 1 if (obs_failed or chaos_failed) else 0


if __name__ == "__main__":
    sys.exit(main())
