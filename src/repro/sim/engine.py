"""The :class:`Simulator` driver.

Ties a :class:`~repro.sim.network.Network` to a scheduler and provides the
run-until-predicate loops that every experiment builds on:

* :meth:`Simulator.run` — a fixed number of rounds;
* :meth:`Simulator.run_until` — until a predicate over the network holds
  (with a hard round cap, since a self-stabilizing system never *halts* —
  its regular actions keep firing forever; "convergence" is a predicate on
  the state, not quiescence);
* :meth:`Simulator.run_phases` — records the first round at which each of a
  set of named phase predicates holds (experiment E1).

The loops themselves live in :class:`BaseSimulator`, generic over the
*host* — the object that holds the overlay and is handed to every
predicate.  The reference :class:`Simulator` hosts a
:class:`~repro.sim.network.Network`, :class:`repro.sim.fast.FastSimulator`
a fast engine; both answer the same calls (:class:`repro.sim.host.Host`),
so drivers above this line never ask which one they hold.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Generic, TypeVar

import numpy as np

from repro.obs.runtime import attach_simulator as _obs_attach
from repro.sim.metrics import ConvergenceRecorder
from repro.sim.network import Network
from repro.sim.schedulers import Scheduler, SynchronousScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import SimHandle

__all__ = ["BaseSimulator", "Simulator", "StabilizationTimeout"]

Predicate = Callable[[Network], bool]

#: The host type of a concrete driver.
TargetT = TypeVar("TargetT")


class StabilizationTimeout(RuntimeError):
    """Raised when a predicate did not hold within the round budget."""

    def __init__(self, rounds: int, what: str) -> None:
        super().__init__(f"{what} not reached within {rounds} rounds")
        self.rounds = rounds
        self.what = what


class BaseSimulator(Generic[TargetT]):
    """Round-loop driver shared by the reference and batched engines.

    Subclasses implement :meth:`step_round` (advance one round) and
    :attr:`host` (the overlay; predicates are evaluated on it).
    Everything else — fixed-round runs, run-until-predicate with a round
    budget, and the phase recorder of experiment E1 — is engine-agnostic.
    """

    def __init__(self, rng: np.random.Generator | int | None = None) -> None:
        if isinstance(rng, np.random.Generator):
            self.rng = rng
        else:
            self.rng = np.random.default_rng(rng)
        #: Number of completed rounds.
        self.round_index = 0
        #: Telemetry handle when an observer is ambient (repro.obs).  The
        #: obs-disabled hot path is a single ``is None`` branch per round;
        #: concrete drivers attach in their own ``__init__`` (after their
        #: engine state exists) via :meth:`_attach_observer`.
        self._obs: SimHandle | None = None

    def _attach_observer(self) -> None:
        """Register with the ambient observer, if one is active."""
        self._obs = _obs_attach(self)

    @property
    def host(self) -> TargetT:
        """The simulated overlay: the ``Network`` or the fast engine."""
        raise NotImplementedError

    def step_round(self) -> None:
        """Execute exactly one round (engine-specific)."""
        raise NotImplementedError

    def run(self, rounds: int) -> None:
        """Execute a fixed number of rounds."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        for _ in range(rounds):
            self.step_round()

    def run_until(
        self,
        predicate: Callable[[TargetT], bool],
        *,
        max_rounds: int,
        check_every: int = 1,
        what: str = "predicate",
    ) -> int:
        """Run until *predicate(target)* holds; return the rounds taken.

        The predicate is evaluated before the first round (an already-stable
        network reports 0) and then every ``check_every`` rounds.

        Raises
        ------
        StabilizationTimeout
            If the predicate still fails after ``max_rounds`` rounds.
        """
        if max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")
        if check_every < 1:
            raise ValueError("check_every must be positive")
        start = self.round_index
        if predicate(self.host):
            return 0
        while self.round_index - start < max_rounds:
            for _ in range(check_every):
                if self.round_index - start >= max_rounds:
                    break
                self.step_round()
            if predicate(self.host):
                return self.round_index - start
        raise StabilizationTimeout(max_rounds, what)

    def run_phases(
        self,
        phases: Mapping[str, Callable[[TargetT], bool]],
        *,
        max_rounds: int,
        check_every: int = 1,
        extra_rounds: int = 0,
    ) -> ConvergenceRecorder:
        """Run until every named phase predicate has held at least once.

        Returns a :class:`~repro.sim.metrics.ConvergenceRecorder` with the
        first round for each phase.  If ``extra_rounds`` is positive the
        simulation continues that many rounds past full convergence while
        still evaluating every predicate — any regression (a phase that held
        and later failed) is recorded, which is how experiment E2 checks the
        closure property of Theorem 4.1.

        Raises
        ------
        StabilizationTimeout
            If some phase never held within ``max_rounds``.
        """
        recorder = ConvergenceRecorder()

        def observe_all() -> bool:
            for name, predicate in phases.items():
                recorder.observe(
                    name, predicate(self.host), self.round_index
                )
            return all(recorder.converged(name) for name in phases)

        start = self.round_index
        done = observe_all()
        while not done and self.round_index - start < max_rounds:
            for _ in range(check_every):
                if self.round_index - start >= max_rounds:
                    break
                self.step_round()
            done = observe_all()
        if not done:
            missing = [n for n in phases if not recorder.converged(n)]
            raise StabilizationTimeout(max_rounds, f"phases {missing}")
        for _ in range(extra_rounds):
            self.step_round()
            observe_all()
        return recorder


class Simulator(BaseSimulator[Network]):
    """Drives a network forward under a scheduler.

    Parameters
    ----------
    network:
        The network to simulate.
    rng:
        Randomness source (channel permutation order, scheduler choices, and
        the protocol's own coin flips all draw from it).
    scheduler:
        Defaults to the synchronous-round scheduler used for measurements.
    """

    def __init__(
        self,
        network: Network,
        rng: np.random.Generator | int | None = None,
        scheduler: Scheduler | None = None,
    ) -> None:
        super().__init__(rng)
        self.network = network
        self.scheduler: Scheduler = scheduler or SynchronousScheduler()
        self._attach_observer()

    @property
    def host(self) -> Network:
        return self.network

    def step_round(self) -> None:
        """Execute exactly one round."""
        obs = self._obs
        if obs is None:
            self.scheduler.execute_round(self.network, self.rng)
            self.network.stats.end_round()
            self.round_index += 1
            return
        start = time.perf_counter()
        self.scheduler.execute_round(self.network, self.rng)
        counts = self.network.stats.end_round()
        self.round_index += 1
        obs.round_end(
            self.round_index,
            time.perf_counter() - start,
            counts,
            self.network.pending_total(),
            len(self.network),
        )
