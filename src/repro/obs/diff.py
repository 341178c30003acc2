"""``repro obs diff`` — compare two run manifests metric by metric.

Takes two ``manifest.json`` files (or obs directories) and reports, per
registry metric sample and per engine phase/kernel timing, the absolute
and relative deltas between the runs — the manifest-level answer to "what
changed between these two archived runs?".  Optional thresholds turn the
report into a gate: any delta beyond ``--rel-threshold`` / the absolute
floor fails the invocation (docs/OBSERVABILITY.md).

Stdlib only, like the rest of ``repro obs`` — archived manifests must be
diffable on machines without the scientific stack.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Sequence

__all__ = ["diff_manifests", "load_manifest", "render_diff"]

#: Sample key: (metric name, canonicalized label pairs, component).
_Key = tuple[str, tuple[tuple[str, str], ...], str]


def load_manifest(target: str) -> dict[str, object]:
    """Load a manifest from a path or an obs directory containing one."""
    path = target
    if os.path.isdir(target):
        path = os.path.join(target, "manifest.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    return manifest


def _label_key(labels: object) -> tuple[tuple[str, str], ...]:
    if not isinstance(labels, dict):
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _metric_values(manifest: dict[str, object]) -> dict[_Key, float]:
    """Flatten a manifest's registry scrape to ``key -> value``.

    Counters and gauges contribute their sample value; histograms
    contribute their ``count`` and ``sum`` (bucket-by-bucket diffs are
    noise at this granularity).
    """
    out: dict[_Key, float] = {}
    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        return out
    for name, body in metrics.items():
        if not isinstance(body, dict):
            continue
        samples = body.get("samples")
        if not isinstance(samples, list):
            continue
        for sample in samples:
            if not isinstance(sample, dict):
                continue
            labels = _label_key(sample.get("labels"))
            if "value" in sample:
                out[(str(name), labels, "value")] = float(sample["value"])  # type: ignore[arg-type]
            else:
                for component in ("count", "sum"):
                    if component in sample:
                        out[(str(name), labels, component)] = float(
                            sample[component]  # type: ignore[arg-type]
                        )
    return out


def _phase_values(manifest: dict[str, object]) -> dict[_Key, float]:
    """Flatten the per-engine phase/kernel timings to ``key -> seconds``."""
    out: dict[_Key, float] = {}
    phases = manifest.get("phases")
    if not isinstance(phases, dict):
        return out
    for engine, body in phases.items():
        if not isinstance(body, dict):
            continue
        for phase, timing in body.items():
            if not isinstance(timing, dict):
                continue
            for component in ("seconds", "calls", "rows"):
                if component in timing:
                    out[(str(phase), ((("engine"), str(engine)),), component)] = float(
                        timing[component]  # type: ignore[arg-type]
                    )
    return out


def _diff_section(
    a: dict[_Key, float],
    b: dict[_Key, float],
    *,
    rel_threshold: float | None,
    abs_threshold: float | None,
) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for key in sorted(set(a) | set(b)):
        name, labels, component = key
        va, vb = a.get(key), b.get(key)
        row: dict[str, object] = {
            "name": name,
            "labels": dict(labels),
            "component": component,
            "a": va,
            "b": vb,
        }
        if va is None or vb is None:
            row["only_in"] = "b" if va is None else "a"
            row["exceeds"] = rel_threshold is not None or abs_threshold is not None
        else:
            delta = vb - va
            # Signed: a drop reads negative, a rise positive; the gates
            # compare its magnitude.
            if va:
                rel = delta / abs(va)
            else:
                rel = math.copysign(float("inf"), delta) if delta else 0.0
            row["delta"] = delta
            row["rel"] = round(rel, 6)
            exceeds = False
            if rel_threshold is not None and abs(rel) > rel_threshold:
                # An absolute floor keeps tiny-count jitter (1 message -> 2)
                # from tripping a purely relative gate.
                if abs_threshold is None or abs(delta) > abs_threshold:
                    exceeds = True
            elif rel_threshold is None and abs_threshold is not None:
                exceeds = abs(delta) > abs_threshold
            row["exceeds"] = exceeds
        rows.append(row)
    return rows


def diff_manifests(
    a: dict[str, object],
    b: dict[str, object],
    *,
    rel_threshold: float | None = None,
    abs_threshold: float | None = None,
) -> dict[str, object]:
    """Structured diff of two manifests.

    Thresholds are gating only — the full delta table is always produced.
    A row's ``rel`` is its signed relative delta, ``(b - a) / |a|``: a
    drop is negative.  With ``rel_threshold`` set, a row exceeds when the
    magnitude of its relative delta is beyond it (and beyond ``abs_threshold`` too, when both are given —
    the absolute floor filters small-count jitter).  With only
    ``abs_threshold`` set, the absolute delta alone gates.  Rows present
    in one manifest only always exceed when any threshold is active.
    """
    metric_rows = _diff_section(
        _metric_values(a),
        _metric_values(b),
        rel_threshold=rel_threshold,
        abs_threshold=abs_threshold,
    )
    phase_rows = _diff_section(
        _phase_values(a),
        _phase_values(b),
        rel_threshold=rel_threshold,
        abs_threshold=abs_threshold,
    )
    exceeded = [r for r in metric_rows + phase_rows if r.get("exceeds")]
    return {
        "a": {
            "experiment": a.get("experiment"),
            "git_rev": a.get("git_rev"),
            "duration_s": a.get("duration_s"),
            "peak_rss_bytes": a.get("peak_rss_bytes"),
        },
        "b": {
            "experiment": b.get("experiment"),
            "git_rev": b.get("git_rev"),
            "duration_s": b.get("duration_s"),
            "peak_rss_bytes": b.get("peak_rss_bytes"),
        },
        "thresholds": {"rel": rel_threshold, "abs": abs_threshold},
        "metrics": metric_rows,
        "phases": phase_rows,
        "exceeded": len(exceeded),
    }


def _fmt_value(value: object) -> str:
    if value is None:
        return "-"
    assert isinstance(value, float)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _render_rows(rows: list[dict[str, object]], *, changed_only: bool) -> list[str]:
    lines: list[str] = []
    for row in rows:
        delta = row.get("delta")
        if changed_only and not delta and "only_in" not in row:
            continue
        labels = row["labels"]
        assert isinstance(labels, dict)
        rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        name = f"{row['name']}{{{rendered}}}" if rendered else str(row["name"])
        component = row["component"]
        if component != "value":
            name += f".{component}"
        mark = " !" if row.get("exceeds") else ""
        if "only_in" in row:
            side = row["only_in"]
            lines.append(f"  {name:<52} only in {side}{mark}")
            continue
        rel = row.get("rel")
        rel_text = f"{float(rel) * 100:+.2f}%" if isinstance(rel, float) else ""
        lines.append(
            f"  {name:<52} {_fmt_value(row['a']):>14} -> "
            f"{_fmt_value(row['b']):>14}  ({rel_text}){mark}"
        )
    return lines


def render_diff(report: dict[str, object], *, changed_only: bool = True) -> str:
    """Human-readable form of a :func:`diff_manifests` report."""
    a, b = report["a"], report["b"]
    assert isinstance(a, dict) and isinstance(b, dict)
    lines = [
        f"a: {a.get('experiment')} @ {a.get('git_rev') or '?'} "
        f"({a.get('duration_s')}s)",
        f"b: {b.get('experiment')} @ {b.get('git_rev') or '?'} "
        f"({b.get('duration_s')}s)",
    ]
    metrics = report["metrics"]
    phases = report["phases"]
    assert isinstance(metrics, list) and isinstance(phases, list)
    metric_lines = _render_rows(metrics, changed_only=changed_only)
    if metric_lines:
        lines.append("metrics:")
        lines.extend(metric_lines)
    phase_lines = _render_rows(phases, changed_only=changed_only)
    if phase_lines:
        lines.append("phases:")
        lines.extend(phase_lines)
    if not metric_lines and not phase_lines:
        lines.append("no metric or phase deltas")
    exceeded = report["exceeded"]
    thresholds = report["thresholds"]
    assert isinstance(thresholds, dict)
    if thresholds.get("rel") is not None or thresholds.get("abs") is not None:
        lines.append(
            f"thresholds: rel={thresholds.get('rel')} abs={thresholds.get('abs')} "
            f"-> {exceeded} delta(s) beyond"
        )
    return "\n".join(lines)


def cmd_diff(args: argparse.Namespace) -> int:
    """CLI handler for ``repro obs diff A B``."""
    try:
        a = load_manifest(args.a)
        b = load_manifest(args.b)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 2
    report = diff_manifests(
        a,
        b,
        rel_threshold=args.rel_threshold,
        abs_threshold=args.abs_threshold,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_diff(report, changed_only=not args.all))
    gating = args.rel_threshold is not None or args.abs_threshold is not None
    exceeded = report["exceeded"]
    assert isinstance(exceeded, int)
    if gating and exceeded:
        if not args.json:
            print(
                f"obs diff: {exceeded} delta(s) beyond thresholds",
                file=sys.stderr,
            )
        return 1
    return 0


def add_diff_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``diff`` subcommand on the ``repro obs`` parser."""
    p = sub.add_parser(
        "diff", help="compare two run manifests metric by metric"
    )
    p.add_argument("a", help="baseline manifest.json or obs directory")
    p.add_argument("b", help="candidate manifest.json or obs directory")
    p.add_argument(
        "--rel-threshold",
        type=float,
        default=None,
        help="fail when any relative delta exceeds this fraction",
    )
    p.add_argument(
        "--abs-threshold",
        type=float,
        default=None,
        help="absolute-delta floor (alone: gate; with --rel-threshold: "
        "ignore small-count jitter below it)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the structured report"
    )
    p.add_argument(
        "--all",
        action="store_true",
        help="show unchanged rows too (text output)",
    )
    p.set_defaults(obs_func=cmd_diff)


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.obs.diff A B``)."""
    parser = argparse.ArgumentParser(
        prog="repro obs diff", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="obs_command", required=True)
    add_diff_parser(sub)
    args = parser.parse_args(["diff", *(argv if argv is not None else sys.argv[1:])])
    result = args.obs_func(args)
    assert isinstance(result, int)
    return result


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
