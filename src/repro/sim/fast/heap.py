"""The process's heap policy: glibc keeps what a round frees for the next.

glibc's malloc serves a request above its mmap threshold with a fresh
mapping and hands the top of the heap back to the kernel once more than its
trim threshold lies free there.  Both start at 128 KiB and climb on their
own: freeing an mmapped block raises the mmap threshold to that block's size
and the trim threshold to twice it, up to ``DEFAULT_MMAP_THRESHOLD_MAX``
(32 MiB on 64-bit).  A batched round grows the heap by more than the climb
lets it keep, so every round re-faults its temporaries page by page
(docs/PERF.md "Heap policy").  :func:`apply_heap_policy` sets both
thresholds where that climb ends, once per process; on any other C library
it does nothing.
"""

from __future__ import annotations

import ctypes
import platform

__all__ = [
    "MMAP_THRESHOLD",
    "TRIM_THRESHOLD",
    "applied_heap_policy",
    "apply_heap_policy",
]

#: ``mallopt`` parameter numbers (glibc ``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and twice it: where the
#: dynamic rule leaves both thresholds once a 32 MiB mapping is freed.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_done = False
#: The thresholds this process runs under, or ``None`` where they were not set.
_applied: dict[str, int] | None = None


def apply_heap_policy() -> dict[str, int] | None:
    """Pin glibc's mmap and trim thresholds (first call in a process only)
    and return the thresholds applied, or ``None`` off glibc or where
    ``mallopt`` refused either one."""
    global _done, _applied
    if _done:
        return applied_heap_policy()
    _done = True
    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) and mallopt(
        _M_TRIM_THRESHOLD, TRIM_THRESHOLD
    ):
        _applied = {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}
    return applied_heap_policy()


def applied_heap_policy() -> dict[str, int] | None:
    """The thresholds :func:`apply_heap_policy` set in this process, or
    ``None`` where it has not run or set nothing."""
    return None if _applied is None else dict(_applied)
