"""The heap policy module: once per process, glibc only, refusals recorded.

``repro.sim.fast.heap.apply_heap_policy`` keeps its state in the module;
each test here starts it afresh (``monkeypatch`` restores the process's
own record afterwards) and stands a stub in for the C library, so nothing
here changes this process's allocator.
"""

from __future__ import annotations

import pytest

from repro.sim.fast import heap


class StubLibc:
    """A ``ctypes.CDLL`` stand-in whose ``mallopt`` returns *answer* and
    records each call."""

    def __init__(self, answer: int) -> None:
        self.calls: list[tuple[int, int]] = []

        def mallopt(param: int, value: int) -> int:
            self.calls.append((param, value))
            return answer

        self.mallopt = mallopt


@pytest.fixture
def fresh(monkeypatch):
    """The module as a new process sees it, on glibc."""
    monkeypatch.setattr(heap, "_done", False)
    monkeypatch.setattr(heap, "_applied", None)
    monkeypatch.setattr(heap.platform, "libc_ver", lambda: ("glibc", "2.36"))
    return monkeypatch


def load(monkeypatch, libc: StubLibc) -> list[object]:
    """Hand *libc* to every ``ctypes.CDLL`` load; return the load log."""
    loads: list[object] = []

    def cdll(name):
        loads.append(name)
        return libc

    monkeypatch.setattr(heap.ctypes, "CDLL", cdll)
    return loads


def test_pins_both_thresholds_once(fresh) -> None:
    libc = StubLibc(1)
    loads = load(fresh, libc)
    first = heap.apply_heap_policy()
    assert first == {
        "mmap_threshold": heap.MMAP_THRESHOLD,
        "trim_threshold": heap.TRIM_THRESHOLD,
    }
    assert heap.TRIM_THRESHOLD == 2 * heap.MMAP_THRESHOLD == 64 << 20
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]
    # A second call changes nothing: no load, no mallopt, the same record.
    assert heap.apply_heap_policy() == first
    assert heap.applied_heap_policy() == first
    assert len(loads) == 1 and len(libc.calls) == 2


def test_other_c_library_loads_nothing(fresh) -> None:
    fresh.setattr(heap.platform, "libc_ver", lambda: ("", ""))
    loads = load(fresh, StubLibc(1))
    assert heap.apply_heap_policy() is None
    assert heap.applied_heap_policy() is None
    assert loads == []


@pytest.mark.parametrize("refused", [0, 1])
def test_refused_mallopt_is_recorded_as_not_applied(fresh, refused) -> None:
    """mallopt answers 0 where it refuses a value: the first call refused
    (*refused* = 0), or the first taken and the second refused."""
    calls: list[int] = []

    def mallopt(param: int, value: int) -> int:
        calls.append(param)
        return 0 if len(calls) > refused else 1

    libc = StubLibc(1)
    libc.mallopt = mallopt
    load(fresh, libc)
    assert heap.apply_heap_policy() is None
    assert heap.applied_heap_policy() is None
    assert len(calls) == refused + 1
    # Not retried either.
    assert heap.apply_heap_policy() is None and len(calls) == refused + 1
