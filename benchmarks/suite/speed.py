"""How fast is the box right now: a fixed numpy kernel timed beside the workload.

The suite's home is a shared 2-core VM whose speed moves by 30% and more
for minutes at a time (measured: the same ``cold_converge`` repeat at
n = 8192 took between 10.1 and 15.8 s within two minutes, with user CPU
time tracking wall time and no steal time, so it is the cores that slow
down, not the scheduler taking them away).  A drift slower than a run
cannot be averaged out inside the run, so every repeat times this kernel
right before and right after its timed phase, and the end-to-end rate is
reported *per probe* — operations in the time the kernel takes at that
moment, the same idea as ``benchmarks/perf_smoke.py`` gating a
batched/reference ratio instead of a time.  On twenty identical repeats
the quartile spread of the raw time was 8.3%, of time ÷ probe 4.3%; over
ten seeds of the two cold workloads 10.8% and 15.4% raw, 7.6% and 8.5% per
probe.  The kernel is the engines' own mix — stable integer sorts, gathers,
``searchsorted``, masks, over arrays of about half a megabyte — and shares
no code with them, so speeding the engines up cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["probe"]

_ROWS = 60_000
_rng = np.random.default_rng(0x5EED)
_KEYS = _rng.integers(0, 1 << 60, size=_ROWS)
_INDEX = _rng.integers(0, _ROWS, size=_ROWS)
_VALUES = _rng.random(_ROWS)


def probe() -> float:
    """Seconds the fixed kernel takes right now (about a quarter second)."""
    start = time.perf_counter()
    for _ in range(40):
        order = np.argsort(_KEYS, kind="stable")
        gathered = _VALUES[_INDEX]
        np.searchsorted(_VALUES[order[:1000]].cumsum(), gathered[:20_000])
        np.flatnonzero((gathered > 0.5) & (_VALUES < 0.3))
    return time.perf_counter() - start
