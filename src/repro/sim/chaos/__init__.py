"""Chaos engineering for the simulator: fault campaigns, monitors, guards.

The paper's model assumes lossless channels and a weakly connected start
(§II) — assumptions reality breaks.  This package makes breaking them a
first-class, reproducible experiment:

* :mod:`repro.sim.chaos.injectors` — composable fault injectors behind one
  :class:`FaultInjector` protocol (loss, duplication, delay/reorder,
  pointer corruption, crash-restart, churn, adversarial scheduling).
* :mod:`repro.sim.chaos.plan` — the :class:`FaultPlan` DSL scheduling
  injectors over round windows with seed-deterministic private randomness.
* :mod:`repro.sim.chaos.network` — :class:`Wire`, the fault surface of a
  host's wire stage, and :class:`ScalarWire`, the stage a
  ``Network(wire=True)`` holds, which applies the active fault chain to
  every frame.
* :mod:`repro.sim.chaos.guard` — the guarded-handoff transport: bounded
  retransmit-until-acked delivery for connectivity-critical messages.
* :mod:`repro.sim.chaos.monitors` — runtime health probes (weak
  connectivity, partitions, safety invariants, convergence).
* :mod:`repro.sim.chaos.campaign` — the :class:`ChaosCampaign` driver
  recording time-to-detect / time-to-reconverge per fault burst into a
  deterministic trace.

Re-exports resolve lazily (PEP 562) so ``import repro.sim.chaos`` stays
cheap and submodules remain individually importable.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Lazy export table: public name -> providing module.
_EXPORTS: dict[str, str] = {
    "CrashRestart": "repro.sim.chaos.injectors",
    "Delivery": "repro.sim.chaos.injectors",
    "FaultInjector": "repro.sim.chaos.injectors",
    "MessageDelay": "repro.sim.chaos.injectors",
    "MessageDuplication": "repro.sim.chaos.injectors",
    "MessageLoss": "repro.sim.chaos.injectors",
    "NodeChurn": "repro.sim.chaos.injectors",
    "PointerCorruption": "repro.sim.chaos.injectors",
    "SchedulerFault": "repro.sim.chaos.injectors",
    "FaultPlan": "repro.sim.chaos.plan",
    "ScheduledFault": "repro.sim.chaos.plan",
    "Window": "repro.sim.chaos.plan",
    "ScalarWire": "repro.sim.chaos.network",
    "Wire": "repro.sim.chaos.network",
    "CRITICAL_TYPES": "repro.sim.chaos.guard",
    "GuardPolicy": "repro.sim.chaos.guard",
    "GuardStats": "repro.sim.chaos.guard",
    "GuardedHandoff": "repro.sim.chaos.guard",
    "ConvergenceProbe": "repro.sim.chaos.monitors",
    "PartitionDetector": "repro.sim.chaos.monitors",
    "RecoveryMonitor": "repro.sim.chaos.monitors",
    "SafetyProbe": "repro.sim.chaos.monitors",
    "WeakConnectivityWatchdog": "repro.sim.chaos.monitors",
    "CampaignEvent": "repro.sim.chaos.campaign",
    "CampaignResult": "repro.sim.chaos.campaign",
    "CampaignTrace": "repro.sim.chaos.campaign",
    "ChaosCampaign": "repro.sim.chaos.campaign",
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
