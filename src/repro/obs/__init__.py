"""``repro.obs`` — the unified observability layer (docs/OBSERVABILITY.md).

One telemetry plane shared by the reference engine, the batched engine,
the chaos subsystem, and every registered experiment:

* :mod:`repro.obs.registry` — metrics registry (counters, gauges,
  histograms with label sets);
* :mod:`repro.obs.spans` — span tracing on a monotonic clock;
* :mod:`repro.obs.profile` — hot-loop phase/kernel profilers + peak RSS;
* :mod:`repro.obs.exporters` / :mod:`repro.obs.manifest` — JSONL event
  stream, Prometheus text exposition, schema-validated run manifests
  (:mod:`repro.obs.bench` re-expresses pytest-benchmark archives in the
  same manifest schema);
* :mod:`repro.obs.observer` / :mod:`repro.obs.runtime` — the per-run
  :class:`Observer` hub and its ambient activation;
* :mod:`repro.obs.live` — the in-run Prometheus scrape endpoint + JSON
  health document (``repro run <id> obs=DIR live=:PORT``);
* :mod:`repro.obs.shard` — cross-shard telemetry aggregation (per-shard
  kernel timings and exchange volumes under ``shard=`` labels);
* :mod:`repro.obs.phases` — round-phase wall-clock attribution
  (``repro obs phases DIR``);
* :mod:`repro.obs.sources` — folds for the pre-existing recorders
  (``MessageStats``, ``Trace``, ``ConvergenceRecorder``, chaos
  ``RecoveryStats``);
* :mod:`repro.obs.harness` / :mod:`repro.obs.cli` — the ``repro run ...
  obs=DIR`` harness and the ``repro obs`` subcommand.

Like the top-level package, the namespace is lazy (PEP 562): importing
``repro.obs`` — or the tiny :mod:`repro.obs.runtime` hook the engines
load — pulls in nothing until an attribute is touched, keeping the
obs-disabled simulation path import-free and fast.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS: dict[str, str] = {
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "Span": "repro.obs.spans",
    "SpanTracer": "repro.obs.spans",
    "PhaseProfiler": "repro.obs.profile",
    "peak_rss_bytes": "repro.obs.profile",
    "Exporter": "repro.obs.exporters",
    "JsonlExporter": "repro.obs.exporters",
    "PrometheusExporter": "repro.obs.exporters",
    "prometheus_text": "repro.obs.exporters",
    "validate_prometheus_text": "repro.obs.exporters",
    "LiveServer": "repro.obs.live",
    "LiveStatus": "repro.obs.live",
    "ShardTelemetrySink": "repro.obs.shard",
    "phase_report": "repro.obs.phases",
    "render_phase_report": "repro.obs.phases",
    "MANIFEST_SCHEMA": "repro.obs.manifest",
    "diff_manifests": "repro.obs.diff",
    "render_diff": "repro.obs.diff",
    "manifest_from_benchmark_json": "repro.obs.bench",
    "write_benchmark_manifest": "repro.obs.bench",
    "ManifestExporter": "repro.obs.manifest",
    "build_manifest": "repro.obs.manifest",
    "validate_manifest": "repro.obs.manifest",
    "Observer": "repro.obs.observer",
    "SimHandle": "repro.obs.observer",
    "CampaignHandle": "repro.obs.observer",
    "activated": "repro.obs.runtime",
    "active": "repro.obs.runtime",
    "fold_convergence": "repro.obs.sources",
    "fold_message_stats": "repro.obs.sources",
    "fold_recovery": "repro.obs.sources",
    "fold_trace": "repro.obs.sources",
    "instrumented_run": "repro.obs.harness",
    "run_observer": "repro.obs.harness",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
