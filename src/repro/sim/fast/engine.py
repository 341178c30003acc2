"""The :class:`FastSimulator` driver for the fast engines.

Plugs the batched or the sharded engine into the shared
:class:`~repro.sim.engine.BaseSimulator` round loops, so experiments call
``run`` / ``run_until`` / ``run_phases`` exactly as they do on the
reference :class:`~repro.sim.engine.Simulator` — predicates just receive
the engine instead of a :class:`~repro.sim.network.Network`
(:mod:`repro.sim.fast.predicates` provides the matching phase predicates).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState, StateTuple
from repro.sim.engine import BaseSimulator
from repro.sim.fast.batched import FastEngine
from repro.sim.fast.shard import ShardedEngine
from repro.sim.fast.soa import SoAState

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.network import Network

__all__ = ["FastSimulator"]

#: Any engine the driver can host.
AnyFastEngine = FastEngine | ShardedEngine

#: ``from_states(mode=...)`` → (engine class, the options only it takes).
_ENGINE_OF_MODE: dict[str, tuple[Callable[..., AnyFastEngine], tuple[str, ...]]] = {
    "batched": (FastEngine, ("wire", "guard")),
    "sharded": (ShardedEngine, ("shards",)),
}


class FastSimulator(BaseSimulator[AnyFastEngine]):
    """Drives a fast engine forward, one synchronous round per step.

    Parameters
    ----------
    engine:
        A :class:`~repro.sim.fast.batched.FastEngine` (the fast default) or
        a :class:`~repro.sim.fast.shard.ShardedEngine`; see
        :meth:`from_states` for the convenient path.
    rng:
        Randomness source, exactly as for the reference simulator.
    """

    def __init__(
        self,
        engine: AnyFastEngine,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__(rng)
        self.engine = engine
        self._attach_observer()

    @classmethod
    def from_states(
        cls,
        states: Iterable[NodeState] | SoAState,
        config: ProtocolConfig | None = None,
        *,
        mode: str = "batched",
        wire: bool = False,
        guard: "GuardPolicy | None" = None,
        keep_history: bool = False,
        rng: np.random.Generator | int | None = None,
        sanitize: bool | None = None,
        shards: int = 2,
        workers: int = 0,
    ) -> "FastSimulator":
        """Build an engine of the requested *mode* over *states* and wrap it.

        *states* is a list of reference states or an id-sorted
        :class:`~repro.sim.fast.soa.SoAState` (the column door the
        array-native starts take: ``line_soa``, ``stable_ring_soa``).  The
        engine runs over its own copy either way; the caller's object is
        never aliased, so one start can seed several simulators.

        ``mode="batched"`` (default) gives the vectorized engine; it takes
        ``wire=True`` for a chaos wire stage (``engine.wire``, vectorized
        wire faults) and a :class:`~repro.sim.chaos.guard.GuardPolicy` via
        *guard*, which implies a wire, for the guarded-handoff transport
        (docs/CHAOS.md).  ``mode="sharded"`` partitions the id space over
        *shards* contiguous in-process :class:`ShardCore` blocks; it has
        no wire and replays the batched engine bit-for-bit (docs/PERF.md).
        Both coalesce identical pending messages (DESIGN.md §4.7); the
        multiset channel model is the reference engine's.  *workers* is the
        removed worker-process count: anything but 0 is rejected.

        *sanitize* turns on the flow sanitizer
        (:mod:`repro.sim.fast.sanitize`): per-kernel access recording,
        wave-uniqueness and store-disjointness asserts, and the static
        cross-check.  ``None`` (default) defers to ``REPRO_SANITIZE``.
        Sanitized runs consume no extra draws, so they stay bit-exact.
        """
        if workers:
            raise ValueError(
                f"workers={workers!r}: the worker-process backend was "
                "removed (it lost to in-process shards at every shard "
                "count, docs/PERF.md §8); drop the argument"
            )
        try:
            engine_cls, extra = _ENGINE_OF_MODE[mode]
        except KeyError:
            raise ValueError(
                f"unknown engine mode {mode!r}; expected one of "
                f"{', '.join(map(repr, _ENGINE_OF_MODE))}"
            ) from None
        wire = wire or guard is not None
        if wire and "wire" not in extra:
            raise ValueError(
                f"engine={mode!r} has no wire transport (wire faults and the "
                "guarded handoff need one); use the batched or reference "
                "engine"
            )
        given = {"wire": wire, "guard": guard, "shards": shards}
        engine = engine_cls(
            states,
            config,
            keep_history=keep_history,
            sanitize=sanitize,
            **{name: given[name] for name in extra},
        )
        return cls(engine, rng)

    @property
    def host(self) -> AnyFastEngine:
        return self.engine

    def step_round(self) -> None:
        """Execute exactly one round."""
        obs = self._obs
        if obs is None:
            self.engine.execute_round(self.rng)
            self.engine.stats.end_round()
            self.round_index += 1
            return
        start = time.perf_counter()
        self.engine.execute_round(self.rng)
        counts = self.engine.stats.end_round()
        self.round_index += 1
        obs.round_end(
            self.round_index,
            time.perf_counter() - start,
            counts,
            self.engine.pending_total(),
            len(self.engine),
        )

    def state_snapshot(self) -> dict[float, StateTuple]:
        """Canonical per-node snapshot (differential-harness contract)."""
        return self.engine.state_snapshot()

    def to_network(self, *, keep_history: bool = False) -> "Network":
        """Export the engine into a reference :class:`Network`.

        The export carries the live node states and every in-flight
        message — on a wired engine its wire and retransmit buffer too —
        re-staged via :meth:`Network.stage` so send statistics are not
        double-counted; message counters and the dropped count start fresh
        on the new network, whose channels coalesce as the engine does.
        Useful for running the reference graph views and analysis tools on
        a state the fast engine produced.
        """
        from repro.core.node import Node
        from repro.sim.network import Network

        network = Network(
            (
                Node(state, self.engine.config)
                for state in self.engine.soa.to_states()
            ),
            keep_history=keep_history,
        )
        for dest, message in self.engine.in_flight:
            network.stage(dest, message)
        return network
