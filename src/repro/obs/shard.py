"""Cross-shard telemetry aggregation for the sharded SoA engine.

The ambient :class:`~repro.obs.observer.Observer` times the coordinator's
round loop, not the kernels each shard runs inside it.  So each
:class:`~repro.sim.fast.shard.core.ShardCore` keeps a local
:class:`~repro.obs.profile.PhaseProfiler` plus two row-volume counters
while telemetry is enabled, and piggybacks the per-round *delta* on the
``finish_round`` report the coordinator folds anyway.

Coordinator-side, a :class:`ShardTelemetrySink` folds every shard's delta
into the run's :class:`~repro.obs.registry.MetricsRegistry` under a
``shard=`` label:

* ``shard_phase_seconds_total{shard=,phase=}`` — shard-side wall-clock
  per kernel (``linearize``, ``move_forget``, ...) and per shard phase
  (``shard_route``, ``shard_prepare``, ``regular``);
* ``shard_phase_calls_total{shard=,phase=}`` — row counts through each
  kernel (access volumes);
* ``shard_rows_routed_total{shard=}`` / ``shard_rows_delivered_total``
  — boundary-exchange row volumes (staged out / received in);
* ``shard_live_nodes{shard=}`` — per-shard live population.

The non-perturbation contract extends unchanged: telemetry reads clocks
and counters, never simulation state or RNGs, so sharded trajectories
stay bit-identical with shard telemetry on or off
(``tests/test_obs_live.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry

__all__ = ["ShardTelemetrySink"]


class ShardTelemetrySink:
    """Folds per-shard telemetry deltas into a metrics registry."""

    __slots__ = ("_seconds", "_calls", "_routed", "_delivered", "_live")

    def __init__(self, registry: "MetricsRegistry") -> None:
        self._seconds = registry.counter(
            "shard_phase_seconds_total",
            "shard-side wall-clock per shard kernel/phase",
        )
        self._calls = registry.counter(
            "shard_phase_calls_total",
            "rows processed per shard kernel/phase (access volume)",
        )
        self._routed = registry.counter(
            "shard_rows_routed_total",
            "outbox rows a shard staged for the boundary exchange",
        )
        self._delivered = registry.counter(
            "shard_rows_delivered_total",
            "wire rows a shard received from the boundary exchange",
        )
        self._live = registry.gauge(
            "shard_live_nodes", "live nodes currently owned by each shard"
        )

    def fold(self, shard: int, telemetry: dict[str, object]) -> None:
        """Fold one shard's per-round delta into the registry."""
        seconds = telemetry.get("seconds")
        if isinstance(seconds, dict):
            for phase, dt in seconds.items():
                self._seconds.inc(dt, shard=shard, phase=phase)
        calls = telemetry.get("calls")
        if isinstance(calls, dict):
            for phase, count in calls.items():
                self._calls.inc(count, shard=shard, phase=phase)
        routed = telemetry.get("rows_routed")
        if isinstance(routed, int) and routed:
            self._routed.inc(routed, shard=shard)
        delivered = telemetry.get("rows_in")
        if isinstance(delivered, int) and delivered:
            self._delivered.inc(delivered, shard=shard)

    def live_nodes(self, shard: int, n_live: int) -> None:
        """Record a shard's current live population."""
        self._live.set(n_live, shard=shard)
