"""Per-run manifests: what ran, with what inputs, producing what numbers.

Every instrumented run (``repro run <id> obs=DIR``) closes by writing a
``manifest.json`` — the run's identity card: experiment id, the exact
parameter dict (including the seed, so the run is reproducible from the
manifest alone), the git revision of the tree, environment fingerprints,
wall-clock duration, the final metrics-registry scrape, the per-phase /
per-kernel timing snapshot, and peak RSS.

The schema is versioned (:data:`MANIFEST_SCHEMA`) and validated by
:func:`validate_manifest` — which the ``obs-smoke`` CI job and
``repro obs validate`` both run, so manifest drift fails the build rather
than silently producing unreadable archives (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import platform
import subprocess
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

from repro.obs.exporters import Exporter
from repro.obs.profile import peak_rss_bytes

__all__ = [
    "LEGACY_SCHEMAS",
    "MANIFEST_SCHEMA",
    "ManifestExporter",
    "build_manifest",
    "git_revision",
    "validate_manifest",
]

#: Schema identifier embedded in every newly written manifest.
MANIFEST_SCHEMA = "repro.obs/manifest/v2"

#: Older schema ids :func:`validate_manifest` still accepts (read-only).
LEGACY_SCHEMAS = ("repro.obs/manifest/v1",)

#: Required top-level fields and the types a valid manifest carries.
_REQUIRED_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema": str,
    "experiment": str,
    "params": dict,
    "git_rev": (str, type(None)),
    "python": str,
    "platform": str,
    "started_unix": (int, float),
    "duration_s": (int, float),
    "metrics": dict,
    "phases": dict,
    "peak_rss_bytes": (int, type(None)),
    "result": (dict, type(None)),
}

#: Fields added by manifest/v2 on top of the v1 set.
_V2_FIELDS: dict[str, type | tuple[type, ...]] = {
    "live": (dict, type(None)),
}

#: How a run can end.  ``status`` and ``error`` are optional: a manifest
#: without them (every one recorded before they existed) reads as finished.
_RUN_STATUSES = ("finished", "failed", "interrupted")


def git_revision(cwd: str | None = None) -> str | None:
    """The tree's ``HEAD`` commit hash, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def build_manifest(
    observer: "Observer",
    *,
    result: dict[str, object] | None = None,
) -> dict[str, object]:
    """Assemble the manifest dict for a closing observer."""
    phases = {
        engine: profiler.snapshot()
        for engine, profiler in sorted(observer.phase_profilers.items())
        if profiler
    }
    return {
        "schema": MANIFEST_SCHEMA,
        "experiment": observer.experiment,
        "params": dict(observer.params),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_unix": observer.started_unix,
        "duration_s": round(observer.tracer.now(), 3),
        "metrics": observer.registry.scrape(),
        "phases": phases,
        "peak_rss_bytes": peak_rss_bytes(),
        "result": result,
        "live": getattr(observer, "live_summary", None),
        "status": observer.status,
        "error": observer.error,
    }


def validate_manifest(manifest: object) -> list[str]:
    """Check *manifest* against :data:`MANIFEST_SCHEMA`; return problems.

    An empty list means the manifest is valid.  The check is structural
    (required fields, types, schema id, metric-sample shape) — it is the
    contract ``repro obs validate`` and the ``obs-smoke`` CI job enforce.
    """
    problems: list[str] = []
    if not isinstance(manifest, dict):
        return [f"manifest must be a JSON object, got {type(manifest).__name__}"]
    schema = manifest.get("schema")
    required = dict(_REQUIRED_FIELDS)
    if schema not in LEGACY_SCHEMAS:
        # v2 manifests (and anything newer we don't know, which fails on
        # the schema check below anyway) must carry the v2 fields too.
        required.update(_V2_FIELDS)
    for field, expected in required.items():
        if field not in manifest:
            problems.append(f"missing required field {field!r}")
            continue
        if not isinstance(manifest[field], expected):
            problems.append(
                f"field {field!r} has type {type(manifest[field]).__name__}"
            )
    if manifest.get("status", "finished") not in _RUN_STATUSES:
        problems.append(f"unknown status {manifest['status']!r}")
    if not isinstance(manifest.get("error"), (str, type(None))):
        problems.append("field 'error' is neither a string nor null")
    if (
        isinstance(schema, str)
        and schema != MANIFEST_SCHEMA
        and schema not in LEGACY_SCHEMAS
    ):
        problems.append(f"unknown schema {schema!r} (expected {MANIFEST_SCHEMA!r})")
    metrics = manifest.get("metrics")
    if isinstance(metrics, dict):
        for name, body in metrics.items():
            if not isinstance(body, dict):
                problems.append(f"metric {name!r} body is not an object")
                continue
            if body.get("kind") not in ("counter", "gauge", "histogram"):
                problems.append(f"metric {name!r} has unknown kind {body.get('kind')!r}")
            samples = body.get("samples")
            if not isinstance(samples, list):
                problems.append(f"metric {name!r} has no samples list")
                continue
            for sample in samples:
                if not isinstance(sample, dict) or "labels" not in sample:
                    problems.append(f"metric {name!r} has a malformed sample")
                    break
    phases = manifest.get("phases")
    if isinstance(phases, dict):
        for engine, body in phases.items():
            if not isinstance(body, dict):
                problems.append(f"phases[{engine!r}] is not an object")
                continue
            for phase, timing in body.items():
                if not isinstance(timing, dict) or "seconds" not in timing:
                    problems.append(
                        f"phases[{engine!r}][{phase!r}] lacks 'seconds'"
                    )
                    break
    return problems


class ManifestExporter(Exporter):
    """Writes the per-run ``manifest.json`` when the observer closes."""

    def __init__(self, path: str) -> None:
        self.path = path

    def finalize(self, observer: "Observer") -> None:
        manifest = build_manifest(observer, result=observer.result_summary)
        problems = validate_manifest(manifest)
        if problems:  # defensive: a bug here must fail loudly, not archive junk
            raise ValueError(
                "refusing to write an invalid manifest: " + "; ".join(problems)
            )
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, default=str)
            handle.write("\n")
