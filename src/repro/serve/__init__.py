"""Overlay-as-a-service: serve probe-routing traffic off a converging engine.

The north star calls for a system serving heavy traffic, and the paper's
payoff for serving is Lemma 4.23 — O(ln^(2+ε) d) probe hops on
the converged overlay.  This package turns the batch simulator into that
system (docs/SERVING.md):

* :mod:`repro.serve.routing` — immutable per-round route views over the
  live SoA columns + the vectorized probr/probl hop kernel;
* :mod:`repro.serve.host` — the engine thread: background convergence,
  queued join/leave batches, storms as live fault drills;
* :mod:`repro.serve.service` — the HTTP API, mounted on the
  :mod:`repro.obs.live` endpoint next to ``/metrics`` and ``/health``;
* :mod:`repro.serve.load` — the Zipf load generator (in-process and
  over-the-wire);
* :mod:`repro.serve.slo` — the Lemma 4.23 hop bound as an operational
  SLO, with validated summary documents.

Lazy exports (PEP 562) keep ``import repro.serve`` dependency-light.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "EngineHost",
    "LoadReport",
    "OverlayService",
    "RouteView",
    "build_service",
    "build_slo_summary",
    "hop_bound",
    "route_batch",
    "run_load",
    "run_load_http",
    "validate_slo_summary",
]

_EXPORTS = {
    "EngineHost": "repro.serve.host",
    "LoadReport": "repro.serve.load",
    "OverlayService": "repro.serve.service",
    "RouteView": "repro.serve.routing",
    "build_service": "repro.serve.service",
    "build_slo_summary": "repro.serve.slo",
    "hop_bound": "repro.serve.slo",
    "route_batch": "repro.serve.routing",
    "run_load": "repro.serve.load",
    "run_load_http": "repro.serve.load",
    "validate_slo_summary": "repro.serve.slo",
}


def __getattr__(name: str) -> Any:
    """PEP 562 lazy re-exports of the serving surface."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
