"""Compare two result files of the suite, one row per (workload, metric).

Usage::

    python3 benchmarks/suite/compare.py A.json B.json

A is the parent (or the first set), B the change (or the second set); both
are ``run.py --out`` documents.  For every workload and every end-to-end
metric of ``BENCHMARK.json`` — and, for ``serve_zipf``, the client- and
engine-side metrics of :data:`SERVE_ONLY` — the table gives both sides'
values (the median over runs when a file holds several for one workload),
how much worse B is as a share of A (negative: better), the metric's bound
and a verdict:

``ok``          B is not worse than A by more than the bound;
``worse``       it is — the exit code becomes 1;
``unresolved``  the spread between one side's own samples is wider than
                the bound, so the two values cannot be told apart at that
                resolution (``ok`` or ``worse`` all the same when every
                sample of B lies on one side of every sample of A).

Every time and rate is first put in units of its own run's ``probe_s``
(seconds ÷ probe, rates × probe), so each side is normalised by the box
speed it was measured at; the table prints those values.  A side's samples
are the per-repeat or per-segment values ``run.py`` records beside each
metric, pooled over the file's runs of the workload.  The spread is the
distance between the quartiles over the median (with fewer than four
samples: between the extremes).  For results with the same seed the exact
part is compared too: rounds, messages and the final-state digest must be
equal, and B may not fail more operations than A.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from collections.abc import Sequence
from typing import Any

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Metrics of ISSUE 16 that only ``serve_zipf`` has.  ``BENCHMARK.json``
#: cannot bound them (every workload reports every end-to-end metric, never
#: 0), so they are gated here, with the issue's bounds.  ``lookup_p99_us``
#: and ``rounds_per_s`` are left out, as the issue allows: over ten seeds
#: they spread by 18-100% and 9-14% of their median.
SERVE_ONLY = [
    {"name": "uniform_lookups_per_s", "better": "higher", "bound": 0.10},
    {"name": "lookup_p50_us", "better": "lower", "bound": 0.10},
    {"name": "http_p50_us", "better": "lower", "bound": 0.15},
    {"name": "hops_p99", "better": "lower", "bound": 0.05},
]
#: Seconds by which ``setup_s`` may move before its bound applies: a cold
#: set-up takes 0.13 s, and a quarter of that is not a regression.
SETUP_SLACK_S = 0.25

__all__ = ["compare", "main", "spread", "verdict"]


def spread(values: Sequence[float]) -> float:
    """Quartile distance (extremes under four values) over the median."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return abs(width / statistics.median(values))


def verdict(
    value_a: float,
    value_b: float,
    a: Sequence[float],
    b: Sequence[float],
    *,
    better: str,
    bound: float,
) -> tuple[float, str]:
    """``(share of A's value by which B's is worse, verdict)``.

    *a* and *b* are the two sides' own samples, which give the spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (value_b - value_a) / abs(value_a) if value_a else 0.0
    word = "worse" if worse_by > bound else "ok"
    if max(spread(a), spread(b)) > bound:
        # Too noisy to tell, unless the two sides' samples do not overlap.
        apart = max(b) < min(a) or min(b) > max(a)
        return worse_by, word if apart else "unresolved"
    return worse_by, word


def _per_probe(run: dict[str, Any], name: str) -> tuple[float, list[float]]:
    """Metric *name* of one run and its samples, in units of the run's probe."""
    unit = UNITS[name]
    probe_s = run["metrics"]["probe_s"]["value"]
    if unit in ("s", "ms", "us"):
        factor = 1.0 / probe_s
    elif unit == "1/s":
        factor = probe_s
    else:
        factor = 1.0
    samples = run["samples"].get(name) or [run["metrics"][name]["value"]]
    return run["metrics"][name]["value"] * factor, [v * factor for v in samples]


def _by_workload(doc: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    grouped: dict[str, list[dict[str, Any]]] = {}
    for result in doc["results"]:
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def compare(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> tuple[list[str], bool]:
    """The table's lines, and whether any row reads ``worse``."""
    side_a, side_b = _by_workload(doc_a), _by_workload(doc_b)
    lines = [
        "times and rates in units of each run's own probe_s",
        f"{'workload':22s} {'metric':22s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'bound':>6s}  verdict",
    ]
    any_worse = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            lines.append(f"{workload:22s} missing on side {'A' if not runs_a else 'B'}")
            any_worse = True
            continue
        gated = SPEC["end_to_end"] + (SERVE_ONLY if workload == "serve_zipf" else [])
        for metric in gated:
            name = metric["name"]
            values_a, samples_a = zip(*(_per_probe(r, name) for r in runs_a))
            values_b, samples_b = zip(*(_per_probe(r, name) for r in runs_b))
            value_a, value_b = statistics.median(values_a), statistics.median(values_b)
            worse_by, word = verdict(
                value_a,
                value_b,
                [v for samples in samples_a for v in samples],
                [v for samples in samples_b for v in samples],
                better=metric["better"],
                bound=metric["bound"],
            )
            if name == "setup_s" and word != "ok":
                raw_a = statistics.median(r["metrics"][name]["value"] for r in runs_a)
                raw_b = statistics.median(r["metrics"][name]["value"] for r in runs_b)
                if raw_b - raw_a <= SETUP_SLACK_S:
                    word = "ok"
            any_worse |= word == "worse"
            lines.append(
                f"{workload:22s} {name:22s} {value_a:12.6g} {value_b:12.6g} "
                f"{worse_by:+9.1%} {metric['bound']:6.0%}  {word}"
            )
        failed_a = sum(r["failed"] for r in runs_a)
        failed_b = sum(r["failed"] for r in runs_b)
        word = "worse" if failed_b > failed_a else "ok"
        any_worse |= word == "worse"
        lines.append(
            f"{workload:22s} {'failed':22s} {failed_a:12d} {failed_b:12d} "
            f"{'':9s} {'exact':>6s}  {word}"
        )
        seeds_b = {r["provenance"]["seed"]: r for r in runs_b}
        for run_a in runs_a:
            run_b = seeds_b.get(run_a["provenance"]["seed"])
            if run_b is None or not run_a["digest"]:
                continue
            same = all(
                run_a[key] == run_b[key] for key in ("rounds", "messages", "digest")
            )
            any_worse |= not same
            lines.append(
                f"{workload:22s} {'rounds':22s} {run_a['rounds']:12d} "
                f"{run_b['rounds']:12d} {'':9s} {'exact':>6s}  "
                f"{'ok' if same else 'worse'} (seed {run_a['provenance']['seed']}: "
                f"rounds, messages, state digest)"
            )
    return lines, any_worse


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    lines, any_worse = compare(*docs)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
