"""Round-phase attribution: where did the wall-clock of a run go?

``repro obs phases DIR`` reads a finished run's ``manifest.json`` and
answers the question the ROADMAP's 10^6 item asks: how much of the
measured round time is *attributed* to named phases, and how is it
split.  For the sharded engine the coordinator profiler partitions
``execute_round`` into

* ``flush``    — shard-side outbox flush + owner partition (``route_take``);
* ``exchange`` — transposing and delivering the boundary wire chunks
  (``prepare_round``);
* ``rng``      — coordinator-side delivery-key and move-and-forget draws;
* ``dispatch`` — kernel dispatch on the shards (``start_round`` through
  ``finish_round``, including the reslrl pause points);
* ``merge``    — folding per-shard reports into coordinator state;

and the per-shard telemetry (:mod:`repro.obs.shard`) additionally breaks
shard-side time down by kernel.  *Attribution* is the ratio of summed
phase seconds to the ``round_seconds`` histogram's measured wall-clock —
the acceptance gate demands ≥ 95% of sharded wall-clock lands in a named
phase, so nothing material hides between the phases.

Stdlib-only, like the rest of the ``repro obs`` CLI surface.
"""

from __future__ import annotations

import json
import os

__all__ = [
    "SHARDED_PHASES",
    "attribution",
    "load_run_manifest",
    "phase_report",
    "render_phase_report",
]

#: The coordinator-phase partition of the sharded engine's round.
SHARDED_PHASES = ("dispatch", "exchange", "flush", "merge", "rng")


def load_run_manifest(target: str) -> dict[str, object]:
    """Load ``manifest.json`` from a run directory (or a direct path)."""
    path = target
    if os.path.isdir(target):
        path = os.path.join(target, "manifest.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    return manifest


def _round_wall_by_engine(manifest: dict[str, object]) -> dict[str, float]:
    """Measured round wall-clock per engine (round_seconds histogram sums)."""
    out: dict[str, float] = {}
    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        return out
    body = metrics.get("round_seconds")
    if not isinstance(body, dict):
        return out
    for sample in body.get("samples", []):  # type: ignore[union-attr]
        if not isinstance(sample, dict):
            continue
        labels = sample.get("labels")
        engine = labels.get("engine", "?") if isinstance(labels, dict) else "?"
        total = sample.get("sum")
        if isinstance(total, (int, float)):
            out[engine] = out.get(engine, 0.0) + float(total)
    return out


def _shard_kernel_seconds(
    manifest: dict[str, object],
) -> dict[str, dict[str, float]]:
    """``{shard: {phase: seconds}}`` from ``shard_phase_seconds_total``."""
    out: dict[str, dict[str, float]] = {}
    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        return out
    body = metrics.get("shard_phase_seconds_total")
    if not isinstance(body, dict):
        return out
    for sample in body.get("samples", []):  # type: ignore[union-attr]
        if not isinstance(sample, dict):
            continue
        labels = sample.get("labels")
        if not isinstance(labels, dict):
            continue
        shard = str(labels.get("shard", "?"))
        phase = str(labels.get("phase", "?"))
        value = sample.get("value")
        if isinstance(value, (int, float)):
            out.setdefault(shard, {})[phase] = float(value)
    return out


def attribution(
    manifest: dict[str, object], engine: str
) -> tuple[float, float, float | None]:
    """``(wall_s, attributed_s, fraction)`` for one engine kind.

    *fraction* is ``None`` when the run recorded no round wall-clock for
    that engine (nothing to attribute against).
    """
    wall = _round_wall_by_engine(manifest).get(engine, 0.0)
    attributed = 0.0
    phases = manifest.get("phases")
    if isinstance(phases, dict):
        body = phases.get(engine)
        if isinstance(body, dict):
            for timing in body.values():
                if isinstance(timing, dict):
                    seconds = timing.get("seconds")
                    if isinstance(seconds, (int, float)):
                        attributed += float(seconds)
    if wall <= 0.0:
        return wall, attributed, None
    return wall, attributed, attributed / wall


def phase_report(manifest: dict[str, object]) -> dict[str, object]:
    """Aggregate one manifest into the ``repro obs phases`` report dict."""
    engines: dict[str, object] = {}
    walls = _round_wall_by_engine(manifest)
    phases = manifest.get("phases")
    phases = phases if isinstance(phases, dict) else {}
    for engine in sorted(set(walls) | set(phases)):
        wall, attributed, fraction = attribution(manifest, engine)
        body = phases.get(engine)
        breakdown: dict[str, dict[str, float]] = {}
        if isinstance(body, dict):
            for phase, timing in sorted(body.items()):
                if not isinstance(timing, dict):
                    continue
                seconds = float(timing.get("seconds", 0.0) or 0.0)
                breakdown[phase] = {
                    "seconds": seconds,
                    "calls": int(timing.get("calls", 0) or 0),
                    "share": seconds / wall if wall > 0 else 0.0,
                }
        engines[engine] = {
            "wall_s": wall,
            "attributed_s": attributed,
            "attribution": fraction,
            "phases": breakdown,
        }
    return {
        "experiment": manifest.get("experiment", ""),
        "engines": engines,
        "shards": _shard_kernel_seconds(manifest),
    }


def render_phase_report(report: dict[str, object]) -> str:
    """Human-readable rendering of :func:`phase_report`."""
    lines: list[str] = []
    experiment = report.get("experiment") or "(unknown)"
    lines.append(f"run: {experiment}")
    engines = report.get("engines")
    engines = engines if isinstance(engines, dict) else {}
    if not engines:
        lines.append("no per-engine phase data recorded")
    for engine, body in engines.items():
        assert isinstance(body, dict)
        wall = body["wall_s"]
        attributed = body["attributed_s"]
        fraction = body["attribution"]
        pct = f"{fraction * 100:.1f}%" if fraction is not None else "n/a"
        lines.append(
            f"engine={engine}  wall={wall:.3f}s  "
            f"attributed={attributed:.3f}s  ({pct})"
        )
        breakdown = body.get("phases")
        assert isinstance(breakdown, dict)
        for phase, timing in sorted(
            breakdown.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"  {phase:<14} {timing['seconds']:>9.3f}s"
                f"  {timing['share'] * 100:>5.1f}%"
                f"  ({timing['calls']} calls)"
            )
    shards = report.get("shards")
    if isinstance(shards, dict) and shards:
        lines.append("shard-side kernel time (shard_phase_seconds_total):")
        for shard in sorted(shards, key=lambda s: (len(s), s)):
            per_phase = shards[shard]
            assert isinstance(per_phase, dict)
            rendered = "  ".join(
                f"{phase}={seconds:.3f}s"
                for phase, seconds in sorted(
                    per_phase.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"  shard={shard}: {rendered}")
    return "\n".join(lines)
