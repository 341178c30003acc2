"""Measurement and statistics toolkit for the experiments.

* :mod:`repro.analysis.smallworld` — clustering coefficient, characteristic
  path length, degree stats, small-world index of overlay graphs.
* :mod:`repro.analysis.distribution` — empirical pmf utilities, log-log
  slope fits, KS distance (E4's harmonic-fit machinery).
* :mod:`repro.analysis.scaling` — polylogarithmic and power-law scaling
  fits with goodness-of-fit comparison (E3/E5/E6/E7's shape checks).
* :mod:`repro.analysis.stats` — summary statistics with confidence
  intervals.
* :mod:`repro.analysis.tables` — ASCII tables for the benchmark harness.
* :mod:`repro.analysis.lint` — the protocol-aware static-analysis pass
  (``repro-lint``), stdlib-only.

Like the top-level package, this namespace resolves its re-exports
lazily (PEP 562): ``import repro.analysis.lint`` must work without
numpy/networkx installed (the repro-lint CI job runs before the scientific
stack), so the measurement modules are only imported on first attribute
access.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Lazy export table: public name -> providing module.
_EXPORTS: dict[str, str] = {
    "empirical_pmf": "repro.analysis.distribution",
    "ks_distance": "repro.analysis.distribution",
    "loglog_slope": "repro.analysis.distribution",
    "compare_scaling": "repro.analysis.scaling",
    "fit_polylog": "repro.analysis.scaling",
    "fit_power": "repro.analysis.scaling",
    "overlay_graph": "repro.analysis.smallworld",
    "smallworld_metrics": "repro.analysis.smallworld",
    "summarize": "repro.analysis.stats",
    "format_table": "repro.analysis.tables",
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
