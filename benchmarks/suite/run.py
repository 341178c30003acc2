"""One benchmark suite for the overlay: run it, print every metric, check outputs.

Usage (from the root of a checkout)::

    python3 benchmarks/suite/run.py                       # all four workloads
    python3 benchmarks/suite/run.py --workload serve_zipf --seed 8
    python3 benchmarks/suite/run.py --trace 1 --out traced.json
    python3 benchmarks/suite/run.py --smoke               # small sizes, < 60 s

With ``--workload`` the process *is* the workload: it repeats the
workload's set-up and fixed work :data:`REPEATS` times (``--seconds`` other
than ``run_seconds`` scales that count), prints every metric by name with
its unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  Without
``--workload`` it starts one such child process per workload, so that
``peak_rss_mb`` is the high-water mark of that workload alone, and checks
the sharded bit-identity contract across the two cold workloads.

A failed output check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no src/repro under {ROOT}; run from a full checkout")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from layers import layer_metrics, percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import FULL, SMOKE, Repeat  # noqa: E402

SUITE_VERSION = 1
DEFAULT_SEED = 7
#: Repeats of set-up + fixed work in an untraced run of ``run_seconds``:
#: what fits the driver's budget (92 runs in 3420 s) at n = 8192, where one
#: repeat takes about 11 / 14 / 23 / 22 s.  The count follows ``--seconds``
#: and nothing else, so a parent and a change always get the same one.
REPEATS = {
    "cold_converge": 2,
    "cold_converge_sharded": 2,
    "storm_recover": 1,
    "serve_zipf": 1,
}
#: The traced run fails under this share of the timed phase covered by
#: spans (engine workloads), and flags a traced/untraced ratio above this.
MIN_ATTRIBUTED_SHARE = 0.95
MAX_TRACE_OVERHEAD = 1.15

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def peak_rss_mb() -> float:
    """``VmHWM`` of this process: the workload's own high-water mark."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def provenance(seed: int, traced: bool, smoke: bool) -> dict[str, Any]:
    """What a number needs beside it to be compared with the next one."""

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "suite_version": SUITE_VERSION,
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def _pool(repeats: Sequence[Repeat], key: str) -> np.ndarray:
    parts = [np.asarray(r.samples[key]) for r in repeats if key in r.samples]
    return np.concatenate(parts) if parts else np.empty(0)


def end_to_end(repeats: Sequence[Repeat]) -> dict[str, list[float]]:
    """Samples of the end-to-end metrics every workload reports.

    The reported value is their median.  The rate is *per probe*: each
    repeat's operations per second times the seconds ``speed.probe()`` took
    around its timed phase, so that a minute in which the box runs a
    quarter slower does not read as a regression.  ``setup_s`` is plain
    seconds, as its name says.
    """
    return {
        "setup_s": [s for r in repeats for s in r.setups],
        "ops_per_probe": [rate * r.probe_s for r in repeats for rate in r.rates],
        "peak_rss_mb": [peak_rss_mb()],
    }


def _block_medians(samples: np.ndarray, blocks: int) -> list[float]:
    """Medians of *blocks* consecutive parts: how far the median wanders."""
    if not samples.size:
        return [0.0]
    return [float(np.median(part)) for part in np.array_split(samples, blocks)]


def harness_samples(repeats: Sequence[Repeat]) -> dict[str, list[float]]:
    """What else the harness measures, tracing or not: raw wall clock.

    The metrics of ISSUE 16 by their own names.  Some exist on one workload
    only (0 elsewhere) and ``rounds`` follows the seed, so they sit on the
    per-layer list; ``compare.py`` gates the serve-only ones.
    """
    singles = _pool(repeats, "single_us")
    return {
        "probe_s": [r.probe_s for r in repeats],
        "wall_s": [r.wall_s for r in repeats],
        "msgs_per_s": [r.messages / r.engine_s for r in repeats],
        "rounds": [r.rounds for r in repeats],
        "rounds_per_s": [r.engine_rounds / r.engine_s for r in repeats],
        "lookups_per_s": list(_pool(repeats, "zipf_lps")) or [0.0],
        "uniform_lookups_per_s": list(_pool(repeats, "uniform_lps")) or [0.0],
        "lookup_p50_us": _block_medians(singles, 5),
        "lookup_p99_us": [percentile(singles, 99)],
        "http_p50_us": _block_medians(_pool(repeats, "http_us"), 4),
        "hops_p99": [_hops_percentile(repeats, 99)],
        "fail_share": [
            sum(r.failed for r in repeats) / sum(r.attempted for r in repeats)
        ],
        "ring_closed": [r.values.get("ring_closed", 1.0) for r in repeats],
    }


def _hops_percentile(repeats: Sequence[Repeat], q: float) -> float:
    """Percentile of the hop counts, from the repeats' hop histograms."""
    histograms = [r.samples["hops"] for r in repeats if "hops" in r.samples]
    if not histograms:
        return 0.0
    total = np.zeros(max(len(h) for h in histograms), dtype=np.int64)
    for histogram in histograms:
        total[: len(histogram)] += histogram
    reached = np.cumsum(total) >= q / 100.0 * total.sum()
    return float(np.argmax(reached))


def measure(
    name: str, *, seed: int, seconds: float, traced: bool, smoke: bool
) -> dict[str, Any]:
    """Run workload *name* in this process; return its result document."""
    size = SMOKE if smoke else FULL
    run_repeat = workloads.WORKLOADS[name]
    if traced:
        # Repeat 1 runs bare: it is the traced repeat's reference for
        # trace.overhead_ratio, from the same process.
        count = 2
    elif smoke:
        count = 1
    else:
        count = max(1, round(REPEATS[name] * seconds / SPEC["run_seconds"]))
    repeats: list[Repeat] = []
    tracer: Tracer | None = None
    try:
        for i in range(count):
            if traced and i:
                tracer = Tracer()
                tracer.install()
            repeats.append(run_repeat(seed, size, tracer))
            gc.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = [p for r in repeats for p in r.problems]
    notes: list[str] = []
    first = repeats[0]
    if first.digest:
        for i, other in enumerate(repeats[1:], start=2):
            for what in ("rounds", "messages", "digest"):
                if getattr(other, what) != getattr(first, what):
                    problems.append(
                        f"repeat {i} disagrees with repeat 1 on {what}: "
                        f"{getattr(other, what)} != {getattr(first, what)}"
                    )

    measured = repeats[-1:] if traced else repeats
    samples = end_to_end(measured)
    samples.update(harness_samples(measured))
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    if tracer is not None:
        metrics.update(layer_metrics(tracer, repeats[-1], repeats[0]))
        if first.digest and metrics["trace.attributed_share"] < MIN_ATTRIBUTED_SHARE:
            problems.append(
                f"spans attribute {metrics['trace.attributed_share']:.3f} of the "
                f"timed phase, under {MIN_ATTRIBUTED_SHARE}"
            )
        if metrics["trace.overhead_ratio"] > MAX_TRACE_OVERHEAD:
            # One bare repeat against one traced repeat: on a shared box
            # this ratio moves more between runs than the wrappers cost,
            # so it is reported and flagged, not failed.
            notes.append(
                f"traced/untraced = {metrics['trace.overhead_ratio']:.3f}, "
                f"over {MAX_TRACE_OVERHEAD}"
            )
    unknown = sorted(set(metrics) - set(UNITS))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    wanted = PER_LAYER if traced else END_TO_END
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise RuntimeError(f"metrics of BENCHMARK.json not measured: {missing}")
    for metric in END_TO_END:
        if not (math.isfinite(metrics[metric]) and metrics[metric] > 0):
            problems.append(f"{metric} = {metrics[metric]!r} is not a positive number")

    return {
        "workload": name,
        "correct": not problems,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "problems": problems,
        "notes": notes,
        "repeats": len(measured),
        "rounds": first.rounds,
        "messages": first.messages,
        "digest": first.digest,
        "metrics": {
            key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()
        },
        "samples": samples,
        "provenance": provenance(seed, traced, smoke),
    }


def report(result: dict[str, Any]) -> None:
    """Print every metric of *result* by name, with its unit."""
    name = result["workload"]
    mode = "traced" if result["provenance"]["traced"] else "untraced"
    print(f"== {name} ({mode}, seed {result['provenance']['seed']}, "
          f"{result['repeats']} repeat(s), {result['attempted']} attempted, "
          f"{result['failed']} failed)")
    for key, metric in result["metrics"].items():
        samples = result["samples"].get(key, ())
        note = f"  (median of {len(samples)})" if len(samples) > 1 else ""
        print(f"{name:22s} {key:36s} {metric['value']:>16.6g} {metric['unit']}{note}")
    for note in result["notes"]:
        print(f"{name}: NOTE: {note}")
    for problem in result["problems"]:
        print(f"{name}: CHECK FAILED: {problem}")


def contract_line(result: dict[str, Any], traced: bool) -> str:
    """The last line of a one-workload run (the driver's contract)."""
    names = PER_LAYER if traced else END_TO_END
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in names},
        }
    )


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> list[dict[str, Any]]:
    results = []
    with tempfile.TemporaryDirectory(prefix="suite-") as tmp:
        for name in workloads.WORKLOADS:
            out = os.path.join(tmp, f"{name}.json")
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", out,
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # Everything but the child's contract line.
            sys.stdout.write("".join(child.stdout.splitlines(keepends=True)[:-1]))
            sys.stdout.flush()
            if not os.path.exists(out):
                raise RuntimeError(f"{name}: child exited {child.returncode} with no result")
            with open(out, encoding="utf-8") as handle:
                results.extend(json.load(handle)["results"])
    by_name = {r["workload"]: r for r in results}
    batched, sharded = by_name["cold_converge"], by_name["cold_converge_sharded"]
    for what in ("rounds", "messages", "digest"):
        if batched[what] != sharded[what]:
            sharded["correct"] = False
            sharded["problems"].append(
                f"sharded run is not bit-identical to the batched one: "
                f"{what} {sharded[what]} != {batched[what]}"
            )
            print(f"cold_converge_sharded: CHECK FAILED: {sharded['problems'][-1]}")
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="the driver's run length; scales the fixed repeat counts",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: one bare and one traced repeat, per-layer metrics",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="small sizes, one repeat")
    parser.add_argument("--out", help="write the result document to this file")
    args = parser.parse_args(argv)

    if args.workload is None:
        results = run_all(args)
    else:
        results = [
            measure(
                args.workload,
                seed=args.seed,
                seconds=args.seconds,
                traced=bool(args.trace),
                smoke=args.smoke,
            )
        ]
        report(results[0])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"suite_version": SUITE_VERSION, "results": results}, handle, indent=1)
            handle.write("\n")
    if args.workload is None:
        failed = [r["workload"] for r in results if not r["correct"]]
        print(f"suite: {len(results) - len(failed)}/{len(results)} workloads correct"
              + (f"; FAILED: {', '.join(failed)}" if failed else ""))
    else:
        print(contract_line(results[0], bool(args.trace)))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
