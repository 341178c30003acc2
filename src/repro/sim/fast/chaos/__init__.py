"""Chaos wire layer for the batched engines (docs/CHAOS.md, docs/PERF.md).

Two engines share the reference fault semantics:

* :class:`ChaosMirrorEngine` — scalar, bit-exact twin of
  :class:`~repro.sim.chaos.ChaosNetwork` rounds (the differential oracle);
* :class:`ChaosFastEngine` — vectorized wire faults
  (:func:`apply_wire_faults` over :class:`WireRows`) and the pending-ack
  guard columns (:class:`BatchedGuard`), distributionally equivalent.

Experiments construct the first through
``make_simulator(engine="fast", wire=True)`` (:mod:`repro.sim.host`); the
mirror stays behind ``FastSimulator.from_states(mode="mirror-chaos")``.
"""

from repro.sim.fast.chaos.batched import BatchedGuard, ChaosFastEngine
from repro.sim.fast.chaos.faults import (
    corrupt_random_pointers_engine,
    crash_restart_many_engine,
)
from repro.sim.fast.chaos.mirror import ChaosMirrorEngine
from repro.sim.fast.chaos.monitors import (
    engine_cc_components,
    engine_check_invariants,
)
from repro.sim.fast.chaos.scheduler import WaveDispatchFault
from repro.sim.fast.chaos.wire import (
    KIND_ACK,
    KIND_ENVELOPE,
    KIND_MESSAGE,
    WireRows,
    apply_wire_faults,
    supports_batched_wire,
)

__all__ = [
    "BatchedGuard",
    "ChaosFastEngine",
    "ChaosMirrorEngine",
    "WireRows",
    "apply_wire_faults",
    "supports_batched_wire",
    "KIND_MESSAGE",
    "KIND_ENVELOPE",
    "KIND_ACK",
    "corrupt_random_pointers_engine",
    "crash_restart_many_engine",
    "WaveDispatchFault",
    "engine_cc_components",
    "engine_check_invariants",
]
