"""The :class:`FastSimulator` driver for the fast engines.

Plugs either fast engine into the shared
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
from repro.sim.fast.chaos import ChaosFastEngine, ChaosMirrorEngine
from repro.sim.fast.mirror import MirrorEngine
from repro.sim.fast.shard import ShardedEngine

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.sim.chaos.guard import GuardPolicy
    from repro.sim.network import Network

__all__ = ["FastSimulator"]

#: Any engine the driver can host.
AnyFastEngine = FastEngine | MirrorEngine | ShardedEngine

#: ``from_states(mode=...)`` → (engine class, the options only it takes).
_ENGINE_OF_MODE: dict[str, tuple[Callable[..., AnyFastEngine], tuple[str, ...]]] = {
    "batched": (FastEngine, ()),
    "sharded": (ShardedEngine, ("shards",)),
    "mirror": (MirrorEngine, ()),
    "chaos": (ChaosFastEngine, ("guard",)),
    "mirror-chaos": (ChaosMirrorEngine, ("guard",)),
}


class FastSimulator(BaseSimulator[AnyFastEngine]):
    """Drives a fast engine forward, one synchronous round per step.

    Parameters
    ----------
    engine:
        A :class:`~repro.sim.fast.batched.FastEngine` (the fast default) or
        a :class:`~repro.sim.fast.mirror.MirrorEngine` (the bit-exact
        reference twin); see :meth:`from_states` for the convenient path.
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
        states: Iterable[NodeState],
        config: ProtocolConfig | None = None,
        *,
        mode: str = "batched",
        guard: "GuardPolicy | None" = None,
        dedup: bool = True,
        keep_history: bool = False,
        rng: np.random.Generator | int | None = None,
        sanitize: bool | None = None,
        shards: int = 2,
        workers: int = 0,
    ) -> "FastSimulator":
        """Build an engine of the requested *mode* and wrap it.

        ``mode="batched"`` (default) gives the vectorized engine;
        ``mode="mirror"`` gives the draw-for-draw reference twin used by
        the differential-equivalence tests (docs/PERF.md).  The chaos
        variants — ``mode="chaos"`` (vectorized wire faults) and
        ``mode="mirror-chaos"`` (bit-exact ``ChaosNetwork`` twin) — accept
        a :class:`~repro.sim.chaos.guard.GuardPolicy` via *guard* to
        enable the guarded-handoff transport (docs/CHAOS.md).
        ``mode="sharded"`` partitions the id space over *shards*
        contiguous in-process :class:`ShardCore` blocks; it requires
        ``dedup=True`` and replays the batched engine bit-for-bit
        (docs/PERF.md).  *workers* is the removed worker-process count:
        anything but 0 is rejected.

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
        if guard is not None and "guard" not in extra:
            raise ValueError(
                "guard requires a chaos engine mode ('chaos' or "
                f"'mirror-chaos'), not {mode!r}"
            )
        given = {"guard": guard, "shards": shards}
        engine = engine_cls(
            states,
            config,
            dedup=dedup,
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

        The export carries the live node states and the pending messages
        (re-staged via :meth:`Network.stage` so send statistics are not
        double-counted); message counters and the dropped count start fresh
        on the new network.  Useful for running the reference graph views
        and analysis tools on a state the fast engine produced.
        """
        from repro.core.node import Node
        from repro.sim.network import Network

        network = Network(
            (
                Node(state, self.engine.config)
                for state in self.engine.soa.to_states()
            ),
            dedup=self.engine.dedup,
            keep_history=keep_history,
        )
        for dest, message in self.engine.pending_messages():
            network.stage(dest, message)
        return network
