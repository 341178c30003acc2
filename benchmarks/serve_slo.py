"""Serving SLO bench: Zipf load + live storm against the overlay service.

The recorded run (``--record`` → ``BENCH_serve.json``) is the
acceptance workload for the serving layer: boot an overlay at
production scale from the converged small-world state (Fact 4.21),
drive >= 10^6 Zipf-skewed lookups through the in-process request path
while the engine keeps running rounds, and fire one canonical storm
from the ``STORMS`` registry midway — the second half of the traffic is
served against the recovering overlay.  Reported per phase: p50/p99
hops, p50/p99 request latency (individually timed samples), throughput
and rounds-per-second while loaded.  The converged phase must honor the
Lemma 4.23 hop bound (``repro.serve.slo.hop_bound``); CI's trajectory
gate then tracks ``p50_hops``/``p99_hops`` against history.

Defaults are CI-sized; the recorded entry uses::

    python benchmarks/serve_slo.py --n 49152 --lookups 1000000 --record
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from collections.abc import Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve.load import run_load
from repro.serve.service import build_service
from repro.serve.slo import build_slo_summary, validate_slo_summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "BENCH_serve.json")

#: Converged-phase share of the total lookup budget.
CONVERGED_SHARE = 0.6


def run_bench(
    *,
    n: int,
    lookups: int,
    engine: str,
    shards: int,
    storm: str,
    zipf_s: float,
    batch: int,
    latency_samples: int,
    seed: int,
) -> tuple[dict[str, object], dict[str, object]]:
    """One full serve-SLO run; returns (summary, trajectory row)."""
    service = build_service(
        n=n,
        topology="stable",
        engine=engine,
        shards=shards,
        seed=seed,
        check_every=4,
    )
    service.start()
    try:
        if not service.host.wait_converged(timeout=600):
            raise RuntimeError("overlay failed to report convergence")
        converged_budget = max(1, int(lookups * CONVERGED_SHARE))
        converged = run_load(
            service,
            lookups=converged_budget,
            zipf_s=zipf_s,
            batch=batch,
            latency_samples=latency_samples,
            seed=seed,
            phase="converged",
        )
        service.host.fire_storm(storm, seed=seed).result(timeout=120)
        stormy = run_load(
            service,
            lookups=max(1, lookups - converged.lookups),
            zipf_s=zipf_s,
            batch=batch,
            latency_samples=latency_samples,
            seed=seed + 1,
            phase="storm",
        )
    finally:
        service.stop()
    summary = build_slo_summary(
        n=n,
        engine=engine,
        zipf_s=zipf_s,
        storm=storm,
        phases=[converged.row(), stormy.row()],
    )
    bound = summary["phases"][0]["hop_bound"]  # type: ignore[index]
    row: dict[str, object] = {
        "n": n,
        "engine": engine,
        "storm": storm,
        "zipf_s": zipf_s,
        "lookups": converged.lookups + stormy.lookups,
        "p50_hops": converged.p50_hops,
        "p99_hops": converged.p99_hops,
        "hop_bound": bound,
        "lost": converged.lost,
        "unknown": converged.unknown,
        "p50_latency_us": round(converged.p50_latency_s * 1e6, 2),
        "p99_latency_us": round(converged.p99_latency_s * 1e6, 2),
        "throughput_lps": round(converged.throughput_lps, 1),
        "rounds_per_sec": round(converged.rounds_per_sec, 3),
        "storm_p99_hops": stormy.p99_hops,
        "storm_p99_latency_us": round(stormy.p99_latency_s * 1e6, 2),
        "storm_lost": stormy.lost,
        "storm_unknown": stormy.unknown,
    }
    return summary, row


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2048)
    parser.add_argument("--lookups", type=int, default=20_000)
    parser.add_argument("--engine", choices=("fast", "sharded"), default="fast")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--storm", default="flash_crowd")
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument("--batch", type=int, default=8192)
    parser.add_argument("--latency-samples", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--record", action="store_true", help=f"append the run to {BENCH}"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when the summary is invalid or converged loss > 1%%",
    )
    args = parser.parse_args(argv)

    summary, row = run_bench(
        n=args.n,
        lookups=args.lookups,
        engine=args.engine,
        shards=args.shards,
        storm=args.storm,
        zipf_s=args.zipf,
        batch=args.batch,
        latency_samples=args.latency_samples,
        seed=args.seed,
    )
    print(json.dumps(summary, indent=2))
    problems = validate_slo_summary(summary)
    for problem in problems:
        print(f"SLO: {problem}", file=sys.stderr)
    converged_row = summary["phases"][0]  # type: ignore[index]
    loss_rate = (
        (converged_row["lost"] + converged_row["unknown"])
        / converged_row["lookups"]
    )
    print(
        f"serve_slo: n={args.n} engine={args.engine} storm={args.storm} "
        f"p99_hops={row['p99_hops']} (bound {row['hop_bound']}) "
        f"p99_latency_us={row['p99_latency_us']} "
        f"throughput={row['throughput_lps']}/s "
        f"rounds_per_sec={row['rounds_per_sec']} loss={loss_rate:.4%}"
    )

    if args.record:
        entries = []
        if os.path.exists(BENCH):
            with open(BENCH, encoding="utf-8") as handle:
                entries = json.load(handle)
        entries.append(
            {
                "bench": "serve_slo",
                "machine": platform.machine(),
                "python": platform.python_version(),
                "params": {
                    "n": args.n,
                    "lookups": args.lookups,
                    "engine": args.engine,
                    "storm": args.storm,
                    "zipf_s": args.zipf,
                    "seed": args.seed,
                },
                "summary": summary,
                "rows": [row],
            }
        )
        with open(BENCH, "w", encoding="utf-8") as handle:
            json.dump(entries, handle, indent=1)
            handle.write("\n")
        print(f"recorded -> {BENCH}")

    if args.check and (problems or loss_rate > 0.01):
        print("serve_slo: SLO gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
