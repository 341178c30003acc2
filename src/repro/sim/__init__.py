"""Asynchronous message-passing simulation substrate (paper §II).

The paper's computational model is an asynchronous message-passing system:
unbounded, lossless, non-FIFO channels with fair message receipt, and weakly
fair execution of guarded actions.  This package realizes that model as a
discrete-event simulator:

* :mod:`repro.sim.channel` — unbounded non-FIFO channels (multiset or
  coalescing-set semantics).
* :mod:`repro.sim.network` — the set of processes, message routing, and
  instrumentation counters.
* :mod:`repro.sim.schedulers` — synchronous-round and randomized
  asynchronous schedulers, both satisfying the paper's fairness assumptions.
* :mod:`repro.sim.engine` — the :class:`Simulator` driver with
  run-until-predicate convergence detection.
* :mod:`repro.sim.host` — the ``Host`` surface every engine answers
  (``sim.host``) and ``make_simulator``, the one constructor over all of
  them (imported from there, not re-exported: it pulls in the fast engines).
* :mod:`repro.sim.metrics` — message counters and convergence recorders.
* :mod:`repro.sim.trace` — optional structured event traces for debugging
  and white-box tests.
* :mod:`repro.sim.chaos` — fault-injection campaigns, recovery monitors,
  and the guarded-handoff transport (deliberately *outside* the paper's
  model; see ``docs/CHAOS.md``).
"""

from repro.sim.channel import Channel
from repro.sim.engine import Simulator
from repro.sim.metrics import ConvergenceRecorder, MessageStats
from repro.sim.network import Network
from repro.sim.schedulers import AsyncScheduler, Scheduler, SynchronousScheduler

__all__ = [
    "AsyncScheduler",
    "Channel",
    "ConvergenceRecorder",
    "MessageStats",
    "Network",
    "Scheduler",
    "Simulator",
    "SynchronousScheduler",
]
