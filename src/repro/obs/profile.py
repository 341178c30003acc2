"""Peak resident-set readings: the process high-water mark and a section's.

Time attribution lives in :class:`~repro.obs.spans.LayerTracer`, which
times the round's layers from outside the engines; this module keeps the
memory side: :func:`peak_rss_bytes` for the whole process (the run
manifest, periodic registry samples) and :func:`reset_peak_rss` /
:func:`section_peak_rss_bytes` for one measured section (E22's per-size
peak).
"""

from __future__ import annotations

__all__ = ["peak_rss_bytes", "reset_peak_rss", "section_peak_rss_bytes"]


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
