"""Composable fault injectors: one protocol for every way a network breaks.

The seed repo grew faults ad hoc — a lossy network class
subclassed the network, :mod:`repro.sim.adversary` subclassed the
scheduler, and the corruption/crash helpers were bare functions the tests
called by hand.  This module unifies them behind one :class:`FaultInjector`
interface with two hook families:

* **wire hooks** (:meth:`FaultInjector.on_wire`) fire once per transmission
  attempt and rewrite its delivery set — drop it (loss), clone it
  (duplication), or postpone it (delay/reorder).  The chaos network applies
  the active wire chain to *every* frame on the wire, including the
  guarded-handoff transport's envelopes, acks, and retransmissions: a
  recovery layer that only survived faults it was exempted from would prove
  nothing.
* **round hooks** (:meth:`FaultInjector.on_round`) fire at round boundaries
  of a campaign and mutate simulator state — corrupt pointers, crash
  nodes, churn membership, or swap in an adversarial scheduler.

Every injector draws randomness from a private generator installed by
:meth:`FaultInjector.bind` (the :class:`~repro.sim.chaos.plan.FaultPlan`
derives one per scheduled fault from the plan seed), so identical plans
replay identical campaigns regardless of what the protocol itself does
with the simulator's generator.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import Frame
from repro.sim.network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.engine import Simulator
    from repro.sim.fast.chaos.scheduler import WaveDispatchFault
    from repro.sim.schedulers import Scheduler

__all__ = [
    "Delivery",
    "FaultInjector",
    "MessageLoss",
    "MessageDuplication",
    "MessageDelay",
    "PointerCorruption",
    "CrashRestart",
    "NodeChurn",
    "SchedulerFault",
]

#: One rewritten transmission: ``(extra_delay_ticks, dest, frame)``.
Delivery = tuple[int, float, Frame]


class FaultInjector:
    """Base class of all fault injectors.

    Subclasses override :meth:`on_wire` (message-level faults),
    :meth:`on_round` (state-level faults), or the window hooks.  The
    defaults are no-ops, so an injector only pays for the hooks it uses —
    and the plan can tell which hooks a subclass provides by comparing
    bound methods against this base class.
    """

    def __init__(self) -> None:
        self._rng: np.random.Generator | None = None

    @property
    def name(self) -> str:
        """Stable human-readable identifier (used in traces and labels)."""
        return type(self).__name__

    def bind(self, rng: np.random.Generator) -> None:
        """Install the injector's private randomness source."""
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The bound generator; raises if :meth:`bind` was never called."""
        if self._rng is None:
            raise RuntimeError(
                f"{self.name} was never bound to a generator; schedule it "
                f"on a FaultPlan (or call .bind(rng)) first"
            )
        return self._rng

    # -- wire hooks ----------------------------------------------------
    def on_wire(
        self, dest: float, frame: Frame, network: Network
    ) -> list[Delivery] | None:
        """Rewrite one transmission attempt.

        Return ``None`` to pass the frame through untouched, or a list of
        ``(extra_delay, dest, frame)`` deliveries — empty to drop it,
        several to duplicate it, positive delays to postpone it.
        """
        return None

    # -- round hooks ---------------------------------------------------
    def on_round(self, simulator: "Simulator") -> None:
        """Fire once per scheduled round inside the fault's window."""
        return None

    def on_window_start(self, simulator: "Simulator") -> None:
        """Called when the fault's window opens."""
        return None

    def on_window_end(self, simulator: "Simulator") -> None:
        """Called when the fault's window closes."""
        return None

    # -- reporting ------------------------------------------------------
    def describe(self) -> str:
        """One-line parameter summary for campaign traces."""
        return self.name

    @classmethod
    def overrides_wire(cls) -> bool:
        """Whether this injector type interposes on the wire."""
        return cls.on_wire is not FaultInjector.on_wire

    @classmethod
    def overrides_round(cls) -> bool:
        """Whether this injector type fires at round boundaries."""
        return cls.on_round is not FaultInjector.on_round


class MessageLoss(FaultInjector):
    """Drop each transmission attempt i.i.d. with probability ``rate``.

    Applies per *attempt*: a guarded retransmission is a fresh Bernoulli
    trial, which is exactly why bounded retransmit-until-acked survives
    what a single handoff does not.
    """

    def __init__(self, *, rate: float) -> None:
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"loss rate must be in [0, 1), got {rate}")
        self.rate = rate
        #: Frames destroyed so far.
        self.dropped = 0

    def on_wire(
        self, dest: float, frame: Frame, network: Network
    ) -> list[Delivery] | None:
        if self.rng.random() < self.rate:
            self.dropped += 1
            return []
        return None

    def describe(self) -> str:
        return f"MessageLoss(rate={self.rate})"


class MessageDuplication(FaultInjector):
    """Deliver extra copies of a transmission with probability ``rate``.

    Duplicates stress idempotence: the coalescing channels absorb identical
    protocol messages, and the guarded transport dedups by sequence number.
    """

    def __init__(self, *, rate: float, copies: int = 1) -> None:
        super().__init__()
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"duplication rate must be in [0, 1], got {rate}")
        if copies < 1:
            raise ValueError(f"copies must be positive, got {copies}")
        self.rate = rate
        self.copies = copies
        #: Extra copies injected so far.
        self.duplicated = 0

    def on_wire(
        self, dest: float, frame: Frame, network: Network
    ) -> list[Delivery] | None:
        if self.rng.random() < self.rate:
            self.duplicated += self.copies
            return [(0, dest, frame)] * (1 + self.copies)
        return None

    def describe(self) -> str:
        return f"MessageDuplication(rate={self.rate}, copies={self.copies})"


class MessageDelay(FaultInjector):
    """Postpone each transmission by up to ``max_delay`` extra ticks.

    ``mode="random"`` draws delays uniformly from the injector generator;
    ``mode="hash"`` derives them from the frame content (the deterministic
    maximal-reordering scheme :class:`~repro.sim.adversary.DelayAdversary`
    pioneered — that adversary now delegates to :meth:`delay_for`).
    """

    def __init__(self, *, max_delay: int, mode: str = "random") -> None:
        super().__init__()
        if max_delay < 0:
            raise ValueError(f"max_delay must be non-negative, got {max_delay}")
        if mode not in ("random", "hash"):
            raise ValueError(f"mode must be 'random' or 'hash', got {mode!r}")
        self.max_delay = max_delay
        self.mode = mode
        #: Frames postponed by at least one tick so far.
        self.delayed = 0

    def delay_for(self, dest: float, frame: object) -> int:
        """The content-derived delay of ``mode='hash'`` (0..max_delay)."""
        if self.max_delay == 0:
            return 0
        digest = zlib.crc32(repr((dest, frame)).encode())
        return digest % (self.max_delay + 1)

    def on_wire(
        self, dest: float, frame: Frame, network: Network
    ) -> list[Delivery] | None:
        if self.mode == "hash":
            delay = self.delay_for(dest, frame)
        else:
            delay = int(self.rng.integers(self.max_delay + 1))
        if delay == 0:
            return None
        self.delayed += 1
        return [(delay, dest, frame)]

    def describe(self) -> str:
        return f"MessageDelay(max_delay={self.max_delay}, mode={self.mode!r})"


class PointerCorruption(FaultInjector):
    """Scramble the pointers of a random node fraction (transient fault).

    Asks the host (:func:`repro.sim.faults.corrupt_random_pointers` and its
    draw-for-draw SoA twin): ``l``/``r`` are
    redirected to random order-respecting identifiers, ``lrl``/``ring`` to
    arbitrary ones — the hard invariant ``l < id < r`` survives.
    """

    def __init__(self, *, fraction: float, corrupt_list_links: bool = True) -> None:
        super().__init__()
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.corrupt_list_links = corrupt_list_links
        #: Nodes corrupted so far.
        self.corrupted = 0

    def on_round(self, simulator: "Simulator") -> None:
        self.corrupted += simulator.host.corrupt_random_pointers(
            self.fraction,
            self.rng,
            corrupt_list_links=self.corrupt_list_links,
        )

    def describe(self) -> str:
        return f"PointerCorruption(fraction={self.fraction})"


class CrashRestart(FaultInjector):
    """Crash-restart ``count`` random nodes (state lost, identifier kept).

    Asks the host (:func:`repro.sim.faults.crash_restart` and its SoA twin);
    with ``node_ids`` the victims are fixed instead of sampled.
    """

    def __init__(
        self, *, count: int = 1, node_ids: tuple[float, ...] | None = None
    ) -> None:
        super().__init__()
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        self.count = count
        self.node_ids = node_ids
        #: Restarts performed so far.
        self.crashes = 0

    def on_round(self, simulator: "Simulator") -> None:
        host = simulator.host
        if self.node_ids is not None:
            victims = [nid for nid in self.node_ids if nid in host]
        else:
            ids = host.ids
            k = min(self.count, len(ids))
            picks = self.rng.choice(len(ids), size=k, replace=False)
            victims = [ids[int(i)] for i in picks]
        host.crash_restart(victims)
        self.crashes += len(victims)

    def describe(self) -> str:
        if self.node_ids is not None:
            return f"CrashRestart(node_ids={len(self.node_ids)} fixed)"
        return f"CrashRestart(count={self.count})"


class NodeChurn(FaultInjector):
    """Per-round probabilistic joins and leaves (the host's §IV-G calls).

    Each scheduled round, a join happens with ``join_probability`` (a fresh
    identifier attached to a random contact) and a leave with
    ``leave_probability`` (a random node departs cleanly, references
    purged), never shrinking below ``min_size``.
    """

    def __init__(
        self,
        *,
        join_probability: float = 0.0,
        leave_probability: float = 0.0,
        min_size: int = 4,
    ) -> None:
        super().__init__()
        if not (
            0.0 <= join_probability <= 1.0 and 0.0 <= leave_probability <= 1.0
        ):
            raise ValueError("probabilities must be in [0, 1]")
        if min_size < 4:
            raise ValueError("min_size must be at least 4")
        self.join_probability = join_probability
        self.leave_probability = leave_probability
        self.min_size = min_size
        #: Membership events performed so far.
        self.joins = 0
        self.leaves = 0

    def on_round(self, simulator: "Simulator") -> None:
        host = simulator.host
        if self.rng.random() < self.join_probability:
            new_id = float(self.rng.random())
            while new_id in host:
                new_id = float(self.rng.random())
            ids = host.ids
            host.join(new_id, ids[int(self.rng.integers(len(ids)))])
            self.joins += 1
        if len(host) > self.min_size and self.rng.random() < self.leave_probability:
            ids = host.ids
            host.leave(ids[int(self.rng.integers(len(ids)))])
            self.leaves += 1

    def describe(self) -> str:
        return (
            f"NodeChurn(join={self.join_probability}, "
            f"leave={self.leave_probability})"
        )


class SchedulerFault(FaultInjector):
    """Adversarial scheduling as a windowed fault, on either engine.

    On a **reference simulator** this swaps the ``scheduler=`` argument in
    for the duration of the window (the :mod:`repro.sim.adversary`
    schedulers — bounded delay, starvation — become composable campaign
    faults) and restores the original when the window closes.

    On a **batched-engine host** there is no per-node scheduler to swap —
    dispatch happens wave-by-wave inside ``execute_round`` — so the fault
    installs a :class:`~repro.sim.fast.chaos.scheduler.WaveDispatchFault`
    instead: each round the wave dispatch order is randomly permuted
    (``permute_waves``) and a ``starvation`` fraction of every wave's rows
    is deferred to the next round, the SoA analogue of an adversarial
    scheduler starving individual nodes.

    The mirror engine replays batched rounds scalar and has no wave
    structure to perturb, so a mirror host raises ``TypeError``.
    """

    def __init__(
        self,
        scheduler: "Scheduler | None" = None,
        *,
        permute_waves: bool = True,
        starvation: float = 0.0,
    ) -> None:
        super().__init__()
        if not (0.0 <= starvation < 1.0):
            raise ValueError(f"starvation must be in [0, 1), got {starvation}")
        self.scheduler = scheduler
        self.permute_waves = permute_waves
        self.starvation = starvation
        self._saved: "Scheduler | None" = None
        self._wave_fault: "WaveDispatchFault | None" = None

    def on_window_start(self, simulator: "Simulator") -> None:
        saved = getattr(simulator, "scheduler", None)
        if saved is not None:
            if self.scheduler is None:
                raise TypeError(
                    "SchedulerFault on a reference simulator needs the "
                    "scheduler= argument (the adversarial Scheduler to "
                    "swap in for the window)"
                )
            self._saved = saved
            simulator.scheduler = self.scheduler
            return
        install = getattr(simulator.host, "set_wave_fault", None)
        if install is None:
            raise TypeError(
                "SchedulerFault needs a reference simulator (scheduler "
                "swap) or a batched engine (wave-dispatch fault); the "
                "mirror engine replays rounds scalar and has no wave "
                "structure to perturb"
            )
        from repro.sim.fast.chaos.scheduler import WaveDispatchFault

        fault = WaveDispatchFault(
            self.rng,
            permute_waves=self.permute_waves,
            starvation=self.starvation,
        )
        self._wave_fault = fault
        install(fault)

    def on_window_end(self, simulator: "Simulator") -> None:
        if self._saved is not None:
            simulator.scheduler = self._saved
            self._saved = None
        if self._wave_fault is not None:
            simulator.host.set_wave_fault(None)
            self._wave_fault = None

    def describe(self) -> str:
        if self.scheduler is not None:
            return f"SchedulerFault({type(self.scheduler).__name__})"
        return (
            f"SchedulerFault(permute_waves={self.permute_waves}, "
            f"starvation={self.starvation})"
        )
