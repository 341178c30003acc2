"""Run harness: instrument one registered experiment, uniformly.

:func:`instrumented_run` is what ``repro run <id> obs=DIR`` calls: it
builds an :class:`~repro.obs.observer.Observer` wired to the standard
per-run artifact set inside *DIR* —

* ``metrics.jsonl`` — the live event stream (``repro obs tail`` follows
  it while the run is in flight);
* ``metrics.prom``  — Prometheus text exposition of the final registry;
* ``manifest.json`` — the schema-validated run manifest;

optionally starts the live scrape endpoint (``live=:PORT`` →
:class:`~repro.obs.live.LiveServer`, with the bound address recorded in
``DIR/live.json`` so ``live=:0`` ephemeral ports stay discoverable),
activates it ambiently (:mod:`repro.obs.runtime`), runs the driver, and
finalizes with the driver's :class:`~repro.experiments.common
.ExperimentResult` folded in as the manifest's ``result`` block.  Every
experiment in the registry goes through this one code path, which is what
makes the paper's message-cost and round-count figures come out of the
same pipeline regardless of driver or engine.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.obs.exporters import JsonlExporter, PrometheusExporter
from repro.obs.manifest import ManifestExporter
from repro.obs.observer import Observer
from repro.obs.runtime import activated

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import ExperimentResult

__all__ = ["ARTIFACTS", "instrumented_run", "run_observer"]

#: The uniform per-run artifact set (file names inside the obs dir).
ARTIFACTS = ("metrics.jsonl", "metrics.prom", "manifest.json")


def run_observer(
    out_dir: str,
    *,
    experiment: str = "",
    params: dict[str, object] | None = None,
    round_events: bool = True,
    live: object | None = None,
) -> Observer:
    """Create *out_dir* and an observer writing the standard artifacts.

    The caller owns the observer's lifecycle: run under
    :func:`~repro.obs.runtime.activated` and call
    :meth:`~repro.obs.observer.Observer.close` when done (the JSONL
    stream's file handle is held open for live flushing until then).

    *live* (a ``:PORT`` / ``HOST:PORT`` spec) additionally starts the
    background scrape endpoint and writes its bound address to
    ``DIR/live.json``; the observer's ``close`` stops the server.
    """
    os.makedirs(out_dir, exist_ok=True)
    stream = open(  # noqa: SIM115 - lifetime is the whole run, closed by close()
        os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8"
    )
    jsonl = JsonlExporter(stream, owns_stream=True)
    observer = Observer(
        experiment=experiment,
        params=params,
        exporters=(
            jsonl,
            PrometheusExporter(os.path.join(out_dir, "metrics.prom")),
            ManifestExporter(os.path.join(out_dir, "manifest.json")),
        ),
        round_events=round_events,
    )
    if live is not None:
        from repro.obs.live import LiveServer

        server = LiveServer(observer, live).start()
        observer.live_server = server
        observer.live_status = server.status
        with open(
            os.path.join(out_dir, "live.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(
                {"address": server.address, "url": server.url}, handle
            )
            handle.write("\n")
        observer.event("live", address=server.address)
    observer.event(
        "start",
        schema="repro.obs/events/v1",
        experiment=experiment,
        params=params or {},
    )
    return observer


def instrumented_run(
    run: "Callable[..., ExperimentResult]",
    params: dict[str, object],
    out_dir: str,
    *,
    experiment: str = "",
    live: object | None = None,
) -> "ExperimentResult":
    """Run one experiment driver under a fully wired observer.

    Writes the :data:`ARTIFACTS` set into *out_dir*; the manifest's
    ``params`` come from the driver's own :class:`ExperimentResult`
    (the complete parameter dict, seed included), not just the overrides
    the caller happened to pass.  *live* forwards to :func:`run_observer`.
    A driver that raises still leaves the artifact set behind, with the
    manifest's ``status`` ``"failed"`` (``"interrupted"`` for Ctrl-C) and
    the exception in ``error``; the exception propagates.
    """
    observer = run_observer(
        out_dir, experiment=experiment, params=params, live=live
    )
    try:
        with activated(observer):
            with observer.tracer.span("experiment", experiment=experiment):
                result = run(**params)
        observer.params = dict(result.params)
        observer.result_summary = {
            "experiment": result.experiment,
            "title": result.title,
            "rows": result.rows,
            "notes": result.notes,
        }
    except BaseException as exc:  # repro-lint: ignore[broad-except] re-raises immediately; only records how the run ended first
        observer.status = "failed" if isinstance(exc, Exception) else "interrupted"
        observer.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        observer.close()
    return result
