"""The metrics registry: counters, gauges, and histograms with label sets.

The paper's headline quantitative claims are *measurements* — convergence
in O(log² n) rounds (§IV-F) and recovery costs "counted in the number of
messages sent" (§IV-G) — so the reproduction keeps one uniform place where
every number of that kind accumulates: a :class:`MetricsRegistry` holding
named metrics, each fanned out over a label set (message type, engine,
monitor name, ...).

The design follows the Prometheus data model (metric name + label set →
sample) but is deliberately dependency-free: instruments are plain dicts
keyed by canonicalized label tuples, and the registry renders either a
JSON-friendly scrape (:meth:`MetricsRegistry.scrape`, embedded in run
manifests and JSONL summary events) or a Prometheus text exposition
(:func:`repro.obs.exporters.prometheus_text`).

Instruments are cheap enough for per-round use but are **never** called
from per-message hot paths — the engines keep counting messages in
:class:`~repro.sim.metrics.MessageStats` and the per-round deltas are
folded in at the round boundary (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "DEFAULT_BUCKETS",
]

#: Canonical label form: sorted ``(key, value)`` pairs, values stringified.
LabelKey = tuple[tuple[str, str], ...]

#: One exported sample: ``(labels, value)``.
Sample = tuple[dict[str, str], float]

#: Default histogram bucket upper bounds (seconds-oriented, log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


def _label_key(labels: dict[str, object]) -> LabelKey:
    """Canonicalize a label dict: sorted keys, stringified values."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared name/help plumbing of the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Instrument):
    """A monotonically increasing sum, fanned out over label sets."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add *amount* (must be non-negative) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, total: float, **labels: object) -> None:
        """Set the labeled series to *total*, a running total kept outside
        the registry (the observer's layer totals)."""
        self._values[_label_key(labels)] = float(total)

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0 when never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Sample]:
        """All labeled series as ``(labels, value)`` pairs, sorted."""
        for key in sorted(self._values):
            yield dict(key), self._values[key]

    def total(self) -> float:
        """Sum over every labeled series."""
        return sum(self._values.values())


class Gauge(_Instrument):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Set the labeled series to *value*."""
        self._values[_label_key(labels)] = float(value)

    def max(self, value: float, **labels: object) -> None:
        """Set the labeled series to ``max(current, value)`` (high-water)."""
        key = _label_key(labels)
        current = self._values.get(key)
        if current is None or value > current:
            self._values[key] = float(value)

    def value(self, **labels: object) -> float | None:
        """Current value of one labeled series (``None`` when never set)."""
        return self._values.get(_label_key(labels))

    def samples(self) -> Iterator[Sample]:
        """All labeled series as ``(labels, value)`` pairs, sorted."""
        for key in sorted(self._values):
            yield dict(key), self._values[key]


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics) per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        #: per label set: (per-bucket counts incl. +Inf, total sum, count)
        self._series: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation into the labeled series."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = ([0] * (len(self.bounds) + 1), 0.0, 0)
        counts, total, count = series
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._series[key] = (counts, total + float(value), count + 1)

    def observe_bulk(
        self,
        bucket_counts: Sequence[int],
        total: float,
        count: int,
        **labels: object,
    ) -> None:
        """Fold pre-bucketed observations into the labeled series.

        *bucket_counts* must hold ``len(bounds) + 1`` entries (the last
        one is the +Inf bucket), *total* the sum and *count* the number
        of the folded observations.  This is the bulk twin of
        :meth:`observe` for callers that aggregate with ndarray math —
        the serving layer records 10^6 hop counts per run in O(buckets)
        registry work instead of one Python call per observation.
        """
        if len(bucket_counts) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name} expects {len(self.bounds) + 1} "
                f"bucket counts, got {len(bucket_counts)}"
            )
        if count < 0 or sum(bucket_counts) != count:
            raise ValueError(
                f"histogram {self.name}: bucket counts must sum to count"
            )
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = ([0] * (len(self.bounds) + 1), 0.0, 0)
        counts, running_total, running_count = series
        for i, extra in enumerate(bucket_counts):
            counts[i] += int(extra)
        self._series[key] = (
            counts, running_total + float(total), running_count + int(count)
        )

    def snapshot(self, **labels: object) -> dict[str, object] | None:
        """``{"count", "sum", "buckets"}`` of one series, or ``None``."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return None
        counts, total, count = series
        return {"count": count, "sum": total, "buckets": list(counts)}

    def series(self) -> Iterator[tuple[dict[str, str], dict[str, object]]]:
        """All labeled series with their count/sum/bucket snapshots."""
        for key in sorted(self._series):
            counts, total, count = self._series[key]
            yield dict(key), {
                "count": count,
                "sum": total,
                "buckets": list(counts),
            }


class MetricsRegistry:
    """Named instruments, created on first use and scraped as one unit."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _existing(self, cls: type[_Instrument], name: str) -> _Instrument | None:
        existing = self._instruments.get(name)
        if existing is not None and not isinstance(existing, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{existing.kind}, not {cls.kind}"
            )
        return existing

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named counter."""
        existing = self._existing(Counter, name)
        if isinstance(existing, Counter):
            return existing
        counter = Counter(name, help)
        self._instruments[name] = counter
        return counter

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named gauge."""
        existing = self._existing(Gauge, name)
        if isinstance(existing, Gauge):
            return existing
        gauge = Gauge(name, help)
        self._instruments[name] = gauge
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram."""
        existing = self._existing(Histogram, name)
        if isinstance(existing, Histogram):
            return existing
        histogram = Histogram(name, help, buckets=buckets)
        self._instruments[name] = histogram
        return histogram

    def __iter__(self) -> Iterator[_Instrument]:
        for name in sorted(self._instruments):
            yield self._instruments[name]

    def __len__(self) -> int:
        return len(self._instruments)

    def scrape(self) -> dict[str, object]:
        """JSON-friendly snapshot of every instrument.

        This is the machine-readable form embedded in run manifests and in
        the final ``summary`` JSONL event; the Prometheus text form is
        rendered by :func:`repro.obs.exporters.prometheus_text`.
        """
        out: dict[str, object] = {}
        for instrument in self:
            if isinstance(instrument, (Counter, Gauge)):
                out[instrument.name] = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "samples": [
                        {"labels": labels, "value": value}
                        for labels, value in instrument.samples()
                    ],
                }
            elif isinstance(instrument, Histogram):
                out[instrument.name] = {
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "bounds": list(instrument.bounds),
                    "samples": [
                        {"labels": labels, **snap}
                        for labels, snap in instrument.series()
                    ],
                }
        return out
