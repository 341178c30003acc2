"""Membership storms: batched churn events as composable campaign faults.

Theorem 4.24 prices a *single* membership update; production systems see
correlated bursts — a flash crowd of simultaneous joins, a rack failure
taking out a contiguous identifier range, a partition that heals minutes
later.  This module models those as
:class:`~repro.sim.chaos.injectors.FaultInjector` round hooks, so storms
schedule on the existing :class:`~repro.sim.chaos.plan.FaultPlan`
machinery (windows, per-fault generators, deterministic traces) and
compose freely with wire faults and the other state faults.

Every storm is **host-generic**: it calls the host's ``join_batch`` /
``leave_batch`` (:class:`repro.sim.host.Host`), whose contract on every
engine is *exactly* "sequential scalar ops in ascending id order" — so a
twin-seeded storm produces the identical post-storm topology on all of
them (the cross-engine conformance matrix pins this).

:class:`ChurnPlan` is a :class:`~repro.sim.chaos.plan.FaultPlan` with a
storm vocabulary::

    plan = (
        ChurnPlan(seed=7)
        .flash_crowd(at=5, fraction=0.10)          # 10% of n joins at once
        .correlated_departure(at=40, fraction=0.1) # contiguous range leaves
        .partition_heal(at=80, heal_after=20)      # leave block, rejoin later
    )
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sim.chaos.injectors import FaultInjector
from repro.sim.chaos.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "ChurnStorm",
    "FlashCrowd",
    "CorrelatedDeparture",
    "PartitionHeal",
    "ChurnPlan",
    "STORMS",
    "apply_joins",
    "apply_leaves",
]


def apply_joins(
    simulator: "Simulator", new_ids: np.ndarray, contacts: np.ndarray
) -> int:
    """Join ``new_ids[k]`` via ``contacts[k]``, as if applied one at a
    time in ascending new-identifier order."""
    if len(new_ids) == 0:
        return 0
    return int(simulator.host.join_batch(new_ids, contacts))


def apply_leaves(simulator: "Simulator", victims: np.ndarray) -> int:
    """Depart every id in *victims* (ascending id order)."""
    if len(victims) == 0:
        return 0
    return int(simulator.host.leave_batch(victims))


class ChurnStorm(FaultInjector):
    """Base class for batched membership events (counts its events)."""

    def __init__(self) -> None:
        super().__init__()
        #: Membership events (joins + leaves) this storm performed.
        self.events = 0


class FlashCrowd(ChurnStorm):
    """``⌊fraction·n⌋`` fresh nodes join in a single round (§IV-G en masse).

    Each newcomer draws a fresh uniform identifier and one uniformly
    random *contact* among the pre-storm members.  Identifier collisions
    (with the membership or inside the batch) are measure-zero; colliding
    entries are dropped rather than redrawn, keeping the draw budget fixed
    at two arrays per firing.
    """

    def __init__(self, *, fraction: float = 0.1, min_join: int = 1) -> None:
        super().__init__()
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if min_join < 1:
            raise ValueError(f"min_join must be positive, got {min_join}")
        self.fraction = fraction
        self.min_join = min_join
        #: Nodes joined so far.
        self.joined = 0

    def on_round(self, simulator: "Simulator") -> None:
        ids = np.asarray(simulator.host.ids, dtype=np.float64)
        n = len(ids)
        if n == 0:
            return
        k = max(self.min_join, int(self.fraction * n))
        new_ids = self.rng.random(k)
        contact_pick = self.rng.integers(0, n, size=k)
        # Drop measure-zero collisions (fixed draw budget: no redrawing).
        keep = np.zeros(k, dtype=bool)
        keep[np.unique(new_ids, return_index=True)[1]] = True
        keep &= ~np.isin(new_ids, ids)
        joined = apply_joins(
            simulator, new_ids[keep], ids[contact_pick[keep]]
        )
        self.joined += joined
        self.events += joined

    def describe(self) -> str:
        return f"FlashCrowd(fraction={self.fraction})"


class CorrelatedDeparture(ChurnStorm):
    """A contiguous identifier range departs at once (rack-failure model).

    ``⌊fraction·n⌋`` victims, capped so at least ``min_size`` nodes
    survive; the block start is uniform over the feasible positions.
    Correlated departures are the hard case for the overlay: an interior
    block removes every consecutive-pair link that crossed it, so recovery
    must bridge the whole gap through long-range links.
    """

    def __init__(self, *, fraction: float = 0.1, min_size: int = 8) -> None:
        super().__init__()
        if not (0.0 < fraction < 1.0):
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_size < 4:
            raise ValueError(f"min_size must be at least 4, got {min_size}")
        self.fraction = fraction
        self.min_size = min_size
        #: Nodes departed so far.
        self.departed = 0

    def on_round(self, simulator: "Simulator") -> None:
        ids = np.asarray(simulator.host.ids, dtype=np.float64)
        n = len(ids)
        k = min(int(self.fraction * n), n - self.min_size)
        if k <= 0:
            return
        start = int(self.rng.integers(0, n - k + 1))
        departed = apply_leaves(simulator, ids[start : start + k])
        self.departed += departed
        self.events += departed

    def describe(self) -> str:
        return f"CorrelatedDeparture(fraction={self.fraction})"


class PartitionHeal(ChurnStorm):
    """A contiguous block departs, then rejoins ``heal_after`` rounds later.

    Models a network partition under the paper's fail-stop membership
    semantics: the unreachable side is *departed* (references purged, per
    §IV-G), and when the partition heals its nodes re-enter as joins with
    fresh state, each via a uniformly random surviving contact.  The storm
    fires twice per scheduled window — :meth:`ChurnPlan.partition_heal`
    builds the two-shot window; the first firing departs, the second
    rejoins.
    """

    def __init__(self, *, fraction: float = 0.25, min_size: int = 8) -> None:
        super().__init__()
        if not (0.0 < fraction < 1.0):
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_size < 4:
            raise ValueError(f"min_size must be at least 4, got {min_size}")
        self.fraction = fraction
        self.min_size = min_size
        #: Nodes on the departed side of the open partition (None: no
        #: partition is open).
        self._departed: np.ndarray | None = None
        #: Nodes departed / rejoined so far.
        self.departed = 0
        self.rejoined = 0

    def on_round(self, simulator: "Simulator") -> None:
        if self._departed is None:
            self._split(simulator)
        else:
            self._heal(simulator)

    def _split(self, simulator: "Simulator") -> None:
        ids = np.asarray(simulator.host.ids, dtype=np.float64)
        n = len(ids)
        k = min(int(self.fraction * n), n - self.min_size)
        if k <= 0:
            return
        start = int(self.rng.integers(0, n - k + 1))
        victims = ids[start : start + k].copy()
        departed = apply_leaves(simulator, victims)
        self._departed = victims
        self.departed += departed
        self.events += departed

    def _heal(self, simulator: "Simulator") -> None:
        returning = self._departed
        self._departed = None
        assert returning is not None
        survivors = np.asarray(simulator.host.ids, dtype=np.float64)
        if len(survivors) == 0:
            return
        contact_pick = self.rng.integers(0, len(survivors), size=len(returning))
        rejoined = apply_joins(simulator, returning, survivors[contact_pick])
        self.rejoined += rejoined
        self.events += rejoined

    def describe(self) -> str:
        phase = "split" if self._departed is None else "heal"
        return f"PartitionHeal(fraction={self.fraction}, next={phase})"


class ChurnPlan(FaultPlan):
    """A :class:`FaultPlan` with a storm vocabulary (see module docstring).

    Each builder method schedules one storm and returns ``self``; the
    result is an ordinary plan — it composes with wire faults and runs
    under :class:`~repro.sim.chaos.campaign.ChaosCampaign` unchanged.
    """

    def flash_crowd(
        self,
        *,
        at: int,
        fraction: float = 0.1,
        min_join: int = 1,
        label: str | None = None,
    ) -> "ChurnPlan":
        """``⌊fraction·n⌋`` joins in round *at*."""
        self.schedule(
            FlashCrowd(fraction=fraction, min_join=min_join),
            at=at,
            label=label or f"flash-crowd@{at}",
        )
        return self

    def correlated_departure(
        self,
        *,
        at: int,
        fraction: float = 0.1,
        min_size: int = 8,
        label: str | None = None,
    ) -> "ChurnPlan":
        """A contiguous ``⌊fraction·n⌋`` block departs in round *at*."""
        self.schedule(
            CorrelatedDeparture(fraction=fraction, min_size=min_size),
            at=at,
            label=label or f"correlated-departure@{at}",
        )
        return self

    def partition_heal(
        self,
        *,
        at: int,
        heal_after: int,
        fraction: float = 0.25,
        min_size: int = 8,
        label: str | None = None,
    ) -> "ChurnPlan":
        """Partition in round *at*; the departed side rejoins at
        ``at + heal_after``."""
        if heal_after < 1:
            raise ValueError(f"heal_after must be positive, got {heal_after}")
        # A two-shot window: fires at `at` (split) and `at + heal_after`
        # (heal), then closes.
        self.schedule(
            PartitionHeal(fraction=fraction, min_size=min_size),
            start=at,
            stop=at + heal_after + 1,
            period=heal_after,
            label=label or f"partition-heal@{at}",
        )
        return self


def _storm_flash_crowd(plan: ChurnPlan, at: int) -> ChurnPlan:
    return plan.flash_crowd(at=at, fraction=0.1)


def _storm_correlated_departure(plan: ChurnPlan, at: int) -> ChurnPlan:
    return plan.correlated_departure(at=at, fraction=0.1)


def _storm_partition_heal(plan: ChurnPlan, at: int) -> ChurnPlan:
    return plan.partition_heal(at=at, heal_after=10, fraction=0.1)


#: Named canonical storms (E17 legs, the scale benchmark): name → a
#: function scheduling that storm on a plan at a given round.  Every
#: canonical storm touches 10% of the network, so the three legs are
#: comparable event-for-event; healing a *contiguous* 10% block is
#: still by far the hardest of the three (the whole block re-linearizes
#: into one arc of the ring).
STORMS = {
    "flash_crowd": _storm_flash_crowd,
    "correlated_departure": _storm_correlated_departure,
    "partition_heal": _storm_partition_heal,
}
