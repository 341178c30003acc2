"""Round-phase attribution benchmark for the sharded engine.

Runs a fixed-round sharded workload under an in-process observer, builds
the run manifest, and feeds it through :func:`repro.obs.phases
.phase_report` — the same pipeline ``repro obs phases DIR`` applies to a
recorded run.  The phases are self times, folded by the observer's layer
tracer at the boundaries of ``repro.obs.spans.LAYERS``, so the row's
split is exclusive: ``dispatch``/``exchange``/``flush``/``merge``/``rng``
hold each layer's own time (``dispatch`` no longer contains the kernels
it runs), and ``kernel_s`` sums the kernel phases (``linearize``, ...,
``regular``) over every shard.  The row carries the headline
*attribution* fraction: how much of the measured ``round_seconds`` wall
clock landed in a named phase.

The acceptance gate (docs/PERF.md) demands attribution ≥ 95% — below
that, material time is hiding between the wrapped layer boundaries.  ``--record`` appends the row to
``BENCH_shard_phases.json`` so ``benchmarks/trajectory.py`` tracks the
phase mix over time; ``--check`` exits 1 when the gate fails.

Usage::

    PYTHONPATH=src python benchmarks/shard_phases.py --check
    PYTHONPATH=src python benchmarks/shard_phases.py --n 32768 --record
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BENCH = pathlib.Path(__file__).parent.parent / "BENCH_shard_phases.json"

#: CI-sized defaults; the recorded acceptance run uses ``--n 32768``.
N = 2048
ROUNDS = 40
SHARDS = 4
SEED = 909
MIN_ATTRIBUTION = 0.95

#: The recorded per-phase columns, in ``<phase>_s`` row-field order; every
#: other phase is a kernel.
PHASE_COLUMNS = ("dispatch", "exchange", "flush", "merge", "rng")


def measure_phases(
    n: int = N,
    rounds: int = ROUNDS,
    shards: int = SHARDS,
    seed: int = SEED,
) -> dict[str, float]:
    """One observed sharded run → one ``BENCH_shard_phases`` row."""
    from repro.core.protocol import ProtocolConfig
    from repro.obs.manifest import build_manifest
    from repro.obs.observer import Observer
    from repro.obs.phases import phase_report
    from repro.obs.runtime import activated
    from repro.sim.fast import FastSimulator
    from repro.topology.generators import TOPOLOGIES

    states = TOPOLOGIES["line"](n, np.random.default_rng(seed))
    observer = Observer(
        experiment="shard_phases",
        params={"n": n, "rounds": rounds, "shards": shards},
        exporters=(),
    )
    with activated(observer):
        sim = FastSimulator.from_states(
            states,
            ProtocolConfig(),
            mode="sharded",
            shards=shards,
            rng=np.random.default_rng(seed),
        )
        start = time.perf_counter()
        sim.run(rounds)
        elapsed = time.perf_counter() - start
    observer.close()
    report = phase_report(build_manifest(observer))
    engines = report["engines"]
    assert isinstance(engines, dict)
    body = engines.get("sharded")
    if not isinstance(body, dict):
        raise RuntimeError(
            "no sharded phase data recorded — the observer did not attach "
            "the engine (repro.obs.observer.attach_simulator)"
        )
    breakdown = body["phases"]
    kernel_s = sum(
        float(timing["seconds"])
        for phase, timing in breakdown.items()
        if phase not in PHASE_COLUMNS
    )
    row: dict[str, float] = {
        "engine": "sharded",  # type: ignore[dict-item]
        "n": n,
        "rounds": rounds,
        "shards": shards,
        "seed": seed,
        "elapsed_s": round(elapsed, 4),
        "wall_s": round(body["wall_s"], 4),
        "attributed_s": round(body["attributed_s"], 4),
        "attribution": round(body["attribution"] or 0.0, 4),
        "kernel_s": round(kernel_s, 4),
    }
    for phase in PHASE_COLUMNS:
        timing = breakdown.get(phase, {})
        row[f"{phase}_s"] = round(float(timing.get("seconds", 0.0)), 4)
    return row


def record(row: dict[str, float]) -> None:
    """Append *row* to the ``BENCH_shard_phases.json`` trajectory."""
    import platform

    entries = []
    if BENCH.exists():
        entries = json.loads(BENCH.read_text())
    entries.append(
        {
            "bench": "shard_phases",
            "machine": platform.machine(),
            "python": platform.python_version(),
            "gate": f"attribution >= {MIN_ATTRIBUTION}",
            "rows": [row],
        }
    )
    BENCH.write_text(json.dumps(entries, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument(
        "--record",
        action="store_true",
        help=f"append the measured row to {BENCH.name}",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when attribution falls below --min-attribution",
    )
    parser.add_argument(
        "--min-attribution", type=float, default=MIN_ATTRIBUTION
    )
    args = parser.parse_args(argv)

    row = measure_phases(
        n=args.n,
        rounds=args.rounds,
        shards=args.shards,
        seed=args.seed,
    )
    split = "  ".join(
        f"{phase}={row[f'{phase}_s']}s" for phase in PHASE_COLUMNS
    )
    print(
        f"shard-phases: n={args.n} rounds={args.rounds} "
        f"shards={args.shards} "
        f"wall={row['wall_s']}s attributed={row['attributed_s']}s "
        f"({row['attribution'] * 100:.1f}%)"
    )
    print(f"shard-phases: {split}  shard-kernel={row['kernel_s']}s")
    if args.record:
        record(row)
        print(f"shard-phases: recorded to {BENCH}")
    if args.check and row["attribution"] < args.min_attribution:
        print(
            f"shard-phases: attribution {row['attribution']} below "
            f"{args.min_attribution}; wall-clock is hiding between the "
            "layer boundaries the observer wraps (repro.obs.spans.LAYERS)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
