"""Campaign driver: run a FaultPlan against a simulator under monitors.

A :class:`ChaosCampaign` owns the per-round choreography of a chaos run:

1. open the fault windows that start this round (window hooks, one
   :class:`~repro.sim.metrics.BurstRecord` per scheduled fault);
2. install the round's active wire-fault chain on the host's wire
   (``host.wire``, when it has one);
3. fire the round hooks of scheduled state faults (corruption, crashes,
   churn);
4. execute one protocol round;
5. close the windows that just ended;
6. evaluate every :class:`~repro.sim.chaos.monitors.RecoveryMonitor`,
   record health *transitions* into the campaign trace, and update the
   open burst records (first unhealthy round → time-to-detect, first
   all-healthy round after a window closed → time-to-reconverge).

Everything recorded is a deterministic function of (plan, seeds): the
injectors draw from plan-derived generators, the monitors are pure reads,
and the trace is append-only with a canonical text form — so two runs of
the same campaign produce byte-identical :meth:`CampaignTrace.to_text`
output, which the regression tests pin.

Round indices in plans, traces, and burst records are *campaign-relative*:
round 0 is the first round :meth:`ChaosCampaign.run` executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.runtime import attach_campaign as _obs_attach
from repro.sim.chaos.monitors import RecoveryMonitor
from repro.sim.chaos.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.metrics import BurstRecord, RecoveryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import CampaignHandle

__all__ = ["CampaignEvent", "CampaignTrace", "CampaignResult", "ChaosCampaign"]


@dataclass(frozen=True, slots=True)
class CampaignEvent:
    """One entry in a campaign trace.

    ``kind`` is one of ``window-open``, ``window-close``, ``fault``,
    ``unhealthy``, ``healthy``, ``detect``, ``reconverge``, ``partition``.
    """

    round_index: int
    kind: str
    label: str
    detail: str = ""


class CampaignTrace:
    """Append-only campaign event log with a canonical text serialization."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[CampaignEvent] = []

    def record(
        self, round_index: int, kind: str, label: str, detail: str = ""
    ) -> None:
        """Append one event."""
        self.events.append(
            CampaignEvent(
                round_index=round_index, kind=kind, label=label, detail=detail
            )
        )

    def of_kind(self, kind: str) -> list[CampaignEvent]:
        """Events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def to_text(self) -> str:
        """Canonical serialization: one tab-separated line per event.

        This is the determinism contract — identical plans and seeds must
        yield byte-identical text across runs and processes.
        """
        lines = [
            f"{e.round_index}\t{e.kind}\t{e.label}\t{e.detail}"
            for e in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self.events)


@dataclass
class CampaignResult:
    """What a campaign run observed."""

    #: Rounds actually executed (< requested on early stop).
    rounds: int
    #: Per-burst detection/recovery records.
    recovery: RecoveryStats
    #: Final health of every monitor, by name.
    final_health: dict[str, bool]
    #: First round the partition/watchdog view went unhealthy while it
    #: never recovered afterwards, else ``None``.  With the connectivity
    #: graphs counting wire frames and retransmit buffers as in-flight, a
    #: disconnected channel-connectivity graph cannot reconnect without
    #: membership changes — observed disconnection at the end of a campaign
    #: is a permanent split.
    partition_round: int | None
    #: The deterministic event log.
    trace: CampaignTrace = field(default_factory=CampaignTrace)

    @property
    def healthy(self) -> bool:
        """Whether every monitor was healthy after the final round."""
        return all(self.final_health.values())


class ChaosCampaign:
    """Drives a simulator through a fault plan under recovery monitors.

    Parameters
    ----------
    simulator:
        The simulator to drive, on any engine of
        :data:`repro.sim.host.ENGINES`.  If the plan schedules any wire
        faults (loss, duplication, delay) its host must have a wire:
        ``make_simulator(..., wire=True)``.
    plan:
        The fault schedule; round windows are campaign-relative.
    monitors:
        Health probes evaluated after every round.  Order matters only for
        trace readability.
    """

    def __init__(
        self,
        simulator: Simulator,
        plan: FaultPlan,
        monitors: tuple[RecoveryMonitor, ...] | list[RecoveryMonitor] = (),
    ) -> None:
        host = simulator.host
        #: The host the campaign observes; wire faults need one with a wire.
        self._host = host
        if host.wire is None and any(
            type(sf.injector).overrides_wire() for sf in plan
        ):
            raise TypeError(
                "plan schedules wire faults but the simulator's host, a "
                f"{type(host).__name__}, has no wire; build it with "
                "make_simulator(..., wire=True)"
            )
        self.simulator = simulator
        self.plan = plan
        self.monitors = tuple(monitors)
        self.recovery = RecoveryStats()
        self.trace = CampaignTrace()
        self._burst_of: dict[str, BurstRecord] = {}
        self._was_healthy: dict[str, bool] = {
            m.name: True for m in self.monitors
        }
        #: Telemetry handle when an observer is ambient (repro.obs).  The
        #: deterministic CampaignTrace stays the source of truth; the
        #: handle only mirrors events into the metrics/JSONL plane.
        self._obs: CampaignHandle | None = _obs_attach(self)

    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        *,
        stop_on_partition: bool = False,
        stop_when_healthy: bool = False,
    ) -> CampaignResult:
        """Execute *rounds* campaign rounds; return the observations.

        With ``stop_on_partition`` the run ends as soon as the
        channel-connectivity graph is observed disconnected — under this
        model that is already permanent (see :class:`CampaignResult`), so
        running on only burns time.

        With ``stop_when_healthy`` the run ends at the first round where
        every monitor is healthy *and* every finite fault window has
        closed (so a healthy pre-burst state never short-circuits the
        campaign) — the recovered-early exit.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        finite_stops = [
            sf.window.stop for sf in self.plan if sf.window.stop is not None
        ]
        partition_round: int | None = None
        executed = 0
        obs = self._obs

        for r in range(rounds):
            # 1. open windows
            for sf in self.plan.starting(r):
                sf.injector.on_window_start(self.simulator)
                self.trace.record(r, "window-open", sf.label, sf.injector.describe())
                self._burst_of[sf.label] = self.recovery.open_burst(
                    sf.label, sf.window.start, sf.window.stop
                )
                if obs is not None:
                    obs.window(r, sf.label, "open")
            # 2. install the wire chain for this round
            if self._host.wire is not None:
                self._host.wire.set_wire_faults(self.plan.active_wire_faults(r))
            # 3. state faults
            for sf in self.plan.firing(r):
                sf.injector.on_round(self.simulator)
                self.trace.record(r, "fault", sf.label, sf.injector.describe())
                if obs is not None:
                    obs.fault(r, sf.label, sf.injector.describe())
            # 4. one protocol round
            self.simulator.step_round()
            executed = r + 1
            # 5. close windows that ended with this round
            for sf in self.plan.ending(r + 1):
                sf.injector.on_window_end(self.simulator)
                self.trace.record(r, "window-close", sf.label)
                if obs is not None:
                    obs.window(r, sf.label, "close")
            # 6. observe
            health = self._observe(r)
            all_healthy = all(health.values())
            self._update_bursts(r, health, all_healthy)
            disconnected = not health.get(
                "weak-connectivity", True
            ) or not health.get("partition", True)
            if disconnected:
                if partition_round is None:
                    partition_round = r
                    self.trace.record(r, "partition", "campaign")
                if stop_on_partition:
                    break
            else:
                # Reconnected (only membership changes can do this) —
                # the earlier observation was not a permanent split.
                partition_round = None
            if (
                stop_when_healthy
                and all_healthy
                and all(r >= stop for stop in finite_stops)
            ):
                break

        if self._host.wire is not None:
            self._host.wire.set_wire_faults(())
        final_health = {
            m.name: self._was_healthy[m.name] for m in self.monitors
        }
        return CampaignResult(
            rounds=executed,
            recovery=self.recovery,
            final_health=final_health,
            partition_round=partition_round,
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    def _observe(self, round_index: int) -> dict[str, bool]:
        """Evaluate every monitor; record transitions into the trace."""
        health: dict[str, bool] = {}
        obs = self._obs
        for monitor in self.monitors:
            ok = monitor.healthy(self._host)
            health[monitor.name] = ok
            if ok != self._was_healthy[monitor.name]:
                detail = monitor.detail(self._host)
                self.trace.record(
                    round_index,
                    "healthy" if ok else "unhealthy",
                    monitor.name,
                    detail,
                )
                if obs is not None:
                    obs.monitor_flip(round_index, monitor.name, ok, detail)
            self._was_healthy[monitor.name] = ok
        return health

    def _update_bursts(
        self, round_index: int, health: dict[str, bool], all_healthy: bool
    ) -> None:
        """Fill detect/reconverge rounds of the open burst records."""
        any_unhealthy = any(not ok for ok in health.values())
        obs = self._obs
        for label, burst in self._burst_of.items():
            if (
                burst.detect_round is None
                and any_unhealthy
                and round_index >= burst.start
                and (burst.stop is None or round_index < burst.stop)
            ):
                burst.detect_round = round_index
                self.trace.record(round_index, "detect", label)
                if obs is not None:
                    obs.burst(round_index, label, "detect")
            if (
                burst.reconverge_round is None
                and burst.detect_round is not None
                and all_healthy
                and burst.stop is not None
                and round_index >= burst.stop
            ):
                burst.reconverge_round = round_index
                self.trace.record(round_index, "reconverge", label)
                if obs is not None:
                    obs.burst(round_index, label, "reconverge")
