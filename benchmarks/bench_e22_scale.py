"""E22 — production-scale convergence on the batched engine (docs/PERF.md).

Besides the standard ``benchmarks/results/e22.txt`` table this bench
appends a machine-readable entry to ``BENCH_e22_scale.json`` at the repo
root — the perf *trajectory* file: one entry per recorded run, so the
speedup and wall-clock numbers have a history instead of a single
overwritten snapshot.
"""

import json
import pathlib
import platform

from _harness import run_and_report

TRAJECTORY = pathlib.Path(__file__).parent.parent / "BENCH_e22_scale.json"


def _append_trajectory(bench: str, result) -> None:
    entries = []
    if TRAJECTORY.exists():
        entries = json.loads(TRAJECTORY.read_text())
    entries.append(
        {
            "bench": bench,
            "machine": platform.machine(),
            "python": platform.python_version(),
            "params": {k: str(v) for k, v in result.params.items()},
            "rows": result.rows,
        }
    )
    TRAJECTORY.write_text(json.dumps(entries, indent=2) + "\n")


def test_e22_scale(benchmark):
    result = run_and_report(
        benchmark,
        "e22",
        sizes=(2048, 8192, 49152),
        queries=2000,
        # The reference engine needs minutes per data point beyond 2048;
        # one shared size is enough for the measured-speedup column.
        reference_max_n=2048,
    )
    by_n = {r["n"]: r for r in result.rows}

    # Acceptance gate of the fast-engine PR: >= 10x over the reference
    # engine on the identical cold-convergence workload at n=2048.
    assert by_n[2048]["speedup"] != "" and float(by_n[2048]["speedup"]) >= 10.0
    # Scale headline: ~50k nodes converge in minutes, rounds stay polylog.
    assert by_n[49152]["rounds"] < 0.02 * 49152
    # The long-range links must buy routing something over the bare ring.
    assert all(r["route_hops"] < r["ring_hops"] for r in result.rows)

    _append_trajectory("e22_scale", result)


def test_e22_scale_faulted(benchmark):
    """Faulted variant (docs/CHAOS.md): cold convergence through a 20%
    loss burst on the guarded chaos transport, now up to the n=49,152
    row."""
    result = run_and_report(
        benchmark,
        "e22",
        tag="faulted",
        sizes=(2048, 8192, 49152),
        queries=2000,
        reference_max_n=0,
        loss_rate=0.2,
        burst_stop=60,
    )
    # Recovery-cost shape: every size converges, no handoff abandoned.
    assert all(r["abandoned"] == 0 for r in result.rows)
    assert all(r["route_hops"] < r["ring_hops"] for r in result.rows)

    _append_trajectory("e22_scale_faulted", result)
