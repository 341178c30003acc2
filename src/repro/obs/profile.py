"""Hot-loop profiling: per-phase/per-kernel timing and peak-RSS sampling.

A :class:`PhaseProfiler` is the instrument the engines' inner loops feed:
two plain dicts (seconds and call counts per phase name) updated with one
``perf_counter`` subtraction per timed section.  The reference
:class:`~repro.sim.engine.Simulator` times its scheduler phases (``flush``
/ ``receive`` / ``regular``); the batched engine times ``flush``, each
kernel by name (``linearize``, ``move_forget``, ...), and ``regular``
(docs/OBSERVABILITY.md).

The contract that keeps the engines honest: a profiler is attached only
while an :class:`~repro.obs.observer.Observer` is active; the disabled
path is a single ``is None`` branch per round, gated to ≤ 5% overhead by
``benchmarks/perf_smoke.py``.
"""

from __future__ import annotations

__all__ = ["PhaseProfiler", "peak_rss_bytes", "reset_peak_rss", "section_peak_rss_bytes"]


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per phase name."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, dt: float, calls: int = 1) -> None:
        """Fold one timed section into *phase*."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + dt
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulators into this one."""
        for phase, dt in other.seconds.items():
            self.add(phase, dt, other.calls.get(phase, 0))

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-friendly ``{phase: {"seconds", "calls"}}`` snapshot."""
        return {
            phase: {
                "seconds": round(self.seconds[phase], 6),
                "calls": self.calls.get(phase, 0),
            }
            for phase in sorted(self.seconds)
        }

    def total_seconds(self) -> float:
        """Sum of every phase's accumulated seconds."""
        return sum(self.seconds.values())

    def __bool__(self) -> bool:
        return bool(self.seconds)


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process in bytes, if measurable.

    Uses :func:`resource.getrusage`, which reports ``ru_maxrss`` in
    kilobytes on Linux and bytes on macOS; returns ``None`` on platforms
    without the :mod:`resource` module (Windows).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def reset_peak_rss() -> bool:
    """Restart this process's resident-set high-water mark at its current
    RSS, so :func:`section_peak_rss_bytes` reads the peak of what runs next
    rather than of the whole process life.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux); returns whether the
    kernel took it — where it did not, there is no section peak to read.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def section_peak_rss_bytes() -> int | None:
    """``VmHWM`` — the RSS high-water mark since :func:`reset_peak_rss` —
    in bytes, or ``None`` where ``/proc/self/status`` has none."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None
