"""Chaos layer of the SoA hosts (docs/CHAOS.md, docs/PERF.md).

:class:`BatchedWire` is the batched engine's wire stage: vectorized wire
faults (:func:`apply_wire_faults` over :class:`WireRows`) and the
pending-ack guard columns (:class:`BatchedGuard`), distributionally
equivalent to the reference wire.  Experiments get it through
``make_simulator(engine="fast", wire=True)`` (:mod:`repro.sim.host`); its
bit-exact oracle is ``tests/reference_mirror.py``.  The rest are the SoA
bodies of the host surface's state faults and monitors, and the batched
scheduler fault.
"""

from repro.sim.fast.chaos.batched import BatchedGuard, BatchedWire
from repro.sim.fast.chaos.faults import (
    corrupt_random_pointers_engine,
    crash_restart_many_engine,
)
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
    "BatchedWire",
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
