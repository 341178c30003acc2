"""The :class:`Observer`: one telemetry hub per instrumented run.

An observer owns the run's :class:`~repro.obs.registry.MetricsRegistry`,
its :class:`~repro.obs.spans.SpanTracer`, one
:class:`~repro.obs.profile.PhaseProfiler` per engine kind, and the
exporter list.  Engines find the ambient observer through
:mod:`repro.obs.runtime` when they are constructed, attach themselves,
and report at their natural choke points:

* round boundary → :meth:`SimHandle.round_end` (per-type message deltas,
  round duration histogram, a ``round`` JSONL event, periodic RSS
  sampling);
* scheduler phases / kernel dispatch → the engine-kind profiler;
* chaos choreography → :meth:`CampaignHandle` events (injector fire,
  monitor flips, detect/reconverge).

The two-sided contract (test-enforced):

* **disabled** — no observer active — costs one ``is None`` branch per
  round (gated ≤ 5% by ``benchmarks/perf_smoke.py``);
* **enabled** — telemetry only *reads* simulation state and never touches
  a simulation RNG, so fixed-seed runs are bit-identical with telemetry
  on or off (``tests/test_obs_nonperturbation.py``).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.obs.exporters import Exporter
from repro.obs.profile import PhaseProfiler, peak_rss_bytes
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.messages import MessageType

__all__ = ["CampaignHandle", "Observer", "SimHandle"]


class Observer:
    """Telemetry hub: registry + tracer + profilers + exporters.

    Parameters
    ----------
    experiment:
        Identifier stamped on events and the manifest (e.g. ``"e01"``).
    params:
        The run's parameter dict (manifest + ``start`` event payload).
    exporters:
        Event/artifact sinks; see :mod:`repro.obs.exporters`.
    round_events:
        Whether to stream one ``round`` JSONL event per simulated round.
    rss_every:
        Sample peak RSS into the registry every that many rounds
        (0 disables sampling between rounds; finalize always samples).
    """

    def __init__(
        self,
        *,
        experiment: str = "",
        params: dict[str, object] | None = None,
        exporters: tuple[Exporter, ...] | list[Exporter] = (),
        round_events: bool = True,
        rss_every: int = 256,
    ) -> None:
        if rss_every < 0:
            raise ValueError("rss_every must be non-negative")
        self.experiment = experiment
        self.params: dict[str, object] = dict(params or {})
        self.exporters = list(exporters)
        self.round_events = round_events
        self.rss_every = rss_every
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(sink=self._on_span)
        #: One hot-loop profiler per engine kind ("reference", "fast", ...).
        self.phase_profilers: dict[str, PhaseProfiler] = {}
        self.started_unix = time.time()
        #: Result summary installed by the harness before finalize.
        self.result_summary: dict[str, object] | None = None
        #: How the run ended — ``finished``, ``failed`` or ``interrupted``
        #: — and the ``"Type: message"`` of what ended it (the harness sets
        #: both before closing a run its driver raised out of).
        self.status = "finished"
        self.error: str | None = None
        #: Live-endpoint wiring (installed by the harness when ``live=``
        #: is requested): the background server, the wave-loop-published
        #: status object, and the manifest's ``live`` block.
        self.live_server: Any = None
        self.live_status: Any = None
        self.live_summary: dict[str, object] | None = None
        self._sim_count = 0
        self._campaign_count = 0
        self._finalized = False
        self._summary: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Event plane
    # ------------------------------------------------------------------
    def emit(self, event: dict[str, object]) -> None:
        """Forward one JSON-serializable event to every exporter."""
        for exporter in self.exporters:
            exporter.emit(event)

    def event(self, kind: str, /, **fields: object) -> None:
        """Emit a timestamped event of the given kind."""
        payload: dict[str, object] = {
            "event": kind,
            "t": round(self.tracer.now(), 6),
        }
        payload.update(fields)
        self.emit(payload)

    def _on_span(self, span: Span) -> None:
        self.event("span", **span.to_dict())

    # ------------------------------------------------------------------
    # Attachment points
    # ------------------------------------------------------------------
    def profiler_for(self, engine: str) -> PhaseProfiler:
        """The hot-loop profiler shared by every engine of one kind."""
        profiler = self.phase_profilers.get(engine)
        if profiler is None:
            profiler = PhaseProfiler()
            self.phase_profilers[engine] = profiler
        return profiler

    def attach_simulator(self, sim: Any) -> "SimHandle":
        """Hook a simulator in: install its profiler, hand back a handle.

        The profiler goes to whatever runs the round: a reference
        :class:`~repro.sim.engine.Simulator`'s scheduler, else the fast
        engine itself (``sim.host``).  Attachment only *writes telemetry
        hooks*; it never touches protocol state.
        """
        host = sim.host
        runner = getattr(sim, "scheduler", host)
        if runner is not host:
            kind = "reference"
        elif hasattr(host, "shard_sink"):
            # The sharded coordinator: beside the phase profiler it takes
            # a ShardTelemetrySink so per-shard deltas piggybacked on
            # finish_round land in the registry under shard= labels.
            kind = "sharded"
            from repro.obs.shard import ShardTelemetrySink

            host.shard_sink = ShardTelemetrySink(self.registry)
        else:
            kind = (
                "mirror"
                if type(host).__name__.endswith("MirrorEngine")
                else "fast"
            )
        if hasattr(runner, "profiler"):
            runner.profiler = self.profiler_for(kind)
        index = self._sim_count
        self._sim_count += 1
        self.event("attach", sim=index, engine=kind)
        return SimHandle(self, index, kind, sim)

    def attach_campaign(self, campaign: Any) -> "CampaignHandle":
        """Hook a chaos campaign in; returns its event handle."""
        index = self._campaign_count
        self._campaign_count += 1
        return CampaignHandle(self, index)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finalize(self, result: dict[str, object] | None = None) -> dict[str, object]:
        """Close the run: summary event, exporter finalize, return summary.

        Idempotent — the second call returns the cached summary without
        re-emitting.
        """
        if self._finalized:
            return self._summary
        if result is not None:
            self.result_summary = result
        if self.live_server is not None:
            # Freeze the live block before the manifest exporter reads it.
            self.live_summary = self.live_server.summary()
        rss = peak_rss_bytes()
        if rss is not None:
            self.registry.gauge(
                "peak_rss_bytes", "peak resident set size of the run process"
            ).max(rss)
        self._summary = {
            "metrics": self.registry.scrape(),
            "phases": {
                engine: profiler.snapshot()
                for engine, profiler in sorted(self.phase_profilers.items())
                if profiler
            },
            "peak_rss_bytes": rss,
            "sims": self._sim_count,
            "duration_s": round(self.tracer.now(), 3),
            "status": self.status,
            "error": self.error,
        }
        self.event("summary", **self._summary)
        for exporter in self.exporters:
            exporter.finalize(self)
        self._finalized = True
        return self._summary

    def close(self) -> None:
        """Finalize (if needed), stop the live server, release handles."""
        self.finalize()
        server, self.live_server = self.live_server, None
        if server is not None:
            server.stop()
        for exporter in self.exporters:
            exporter.close()


class SimHandle:
    """Per-simulator reporting handle (one per attached engine).

    Hot-path shape: one call per *round*, never per message — the engines
    keep counting messages in :class:`~repro.sim.metrics.MessageStats`
    and this handle folds the round's closing counts into the registry.
    """

    __slots__ = (
        "obs", "index", "engine", "sim",
        "_messages", "_rounds", "_round_seconds", "_pending", "_rss",
    )

    def __init__(
        self, obs: Observer, index: int, engine: str, sim: Any = None
    ) -> None:
        self.obs = obs
        self.index = index
        self.engine = engine
        #: The attached simulator — read-only, for the live-status probes.
        self.sim = sim
        registry = obs.registry
        self._messages = registry.counter(
            "messages_total", "protocol messages sent, by type and engine"
        )
        self._rounds = registry.counter(
            "rounds_total", "simulated rounds executed, by engine"
        )
        self._round_seconds = registry.histogram(
            "round_seconds", "wall-clock duration of one simulated round"
        )
        self._pending = registry.gauge(
            "pending_messages", "undelivered (staged) messages after a round"
        )
        self._rss = registry.gauge(
            "peak_rss_bytes", "peak resident set size of the run process"
        )

    def round_end(
        self,
        round_index: int,
        dt: float,
        counts: "dict[MessageType, int]",
        pending: int,
        n: int,
    ) -> None:
        """Fold one finished round into the registry and the event stream."""
        obs = self.obs
        engine = self.engine
        sent: dict[str, int] = {}
        for mtype, count in counts.items():
            if count:
                sent[mtype.value] = count
                self._messages.inc(count, engine=engine, type=mtype.value)
        self._rounds.inc(1, engine=engine)
        self._round_seconds.observe(dt, engine=engine)
        self._pending.set(pending, engine=engine, sim=self.index)
        live = obs.live_status
        if live is not None:
            live.round_end(round_index, n, pending, self.sim)
        if obs.rss_every and round_index % obs.rss_every == 0:
            rss = peak_rss_bytes()
            if rss is not None:
                self._rss.max(rss)
        if obs.round_events:
            obs.event(
                "round",
                sim=self.index,
                engine=engine,
                round=round_index,
                n=n,
                dur_s=round(dt, 6),
                sent=sent,
                pending=pending,
            )


class CampaignHandle:
    """Per-campaign reporting handle (chaos subsystem choke points)."""

    __slots__ = ("obs", "index", "_faults", "_flips", "_bursts")

    def __init__(self, obs: Observer, index: int) -> None:
        self.obs = obs
        self.index = index
        registry = obs.registry
        self._faults = registry.counter(
            "chaos_faults_total", "injector firings, by fault label"
        )
        self._flips = registry.counter(
            "chaos_monitor_flips_total",
            "monitor health transitions, by monitor and direction",
        )
        self._bursts = registry.counter(
            "chaos_burst_events_total",
            "burst lifecycle events (detect/reconverge), by label",
        )

    def window(self, round_index: int, label: str, action: str) -> None:
        """A fault window opened (``action="open"``) or closed."""
        self.obs.event(
            "chaos", kind=f"window-{action}", campaign=self.index,
            round=round_index, label=label,
        )

    def fault(self, round_index: int, label: str, detail: str) -> None:
        """A scheduled injector fired this round."""
        self._faults.inc(1, label=label)
        self.obs.event(
            "chaos", kind="fault", campaign=self.index,
            round=round_index, label=label, detail=detail,
        )

    def monitor_flip(
        self, round_index: int, monitor: str, healthy: bool, detail: str
    ) -> None:
        """A recovery monitor changed health state."""
        to = "healthy" if healthy else "unhealthy"
        self._flips.inc(1, monitor=monitor, to=to)
        self.obs.event(
            "chaos", kind=to, campaign=self.index,
            round=round_index, monitor=monitor, detail=detail,
        )

    def burst(self, round_index: int, label: str, what: str) -> None:
        """A burst record crossed a milestone (``detect``/``reconverge``)."""
        self._bursts.inc(1, label=label, what=what)
        self.obs.event(
            "chaos", kind=what, campaign=self.index,
            round=round_index, label=label,
        )
