"""The engine host: one background thread that keeps the overlay converging.

The self-stabilization process never stops — that is the paper's whole
point — so the serving layer runs the engine's round loop on a dedicated
thread and treats everything else as traffic against it:

* **Lookups** never touch the engine.  The host publishes an immutable
  :class:`~repro.serve.routing.RouteView` after every round; handler
  threads route over whichever view they last loaded.
* **Joins and leaves** are queued as operations and drained at the next
  round boundary on the engine thread, mapped onto the batched
  membership kernels (``join_batch`` / ``leave_batch``).  Callers get a
  :class:`concurrent.futures.Future` resolving to the accepted count —
  the same all-before-any validation the batch API enforces.
* **Storms** from the canonical :data:`repro.churn.storms.STORMS`
  registry become live fault drills: :meth:`EngineHost.fire_storm`
  schedules a :class:`~repro.churn.storms.ChurnPlan` whose injector
  hooks (window start / fire / window end) run against the simulator at
  the same choke points :class:`~repro.sim.chaos.campaign.ChaosCampaign`
  uses, while the request path keeps serving.

The host also tracks convergence (the fast-engine ring predicates, every
*check_every* rounds) so SLO phases can split "converged" from
"recovering" traffic, and folds membership/storm counts into the ambient
observer's registry.

While its thread runs, the host keeps a batched engine on the ``(wave,
type)`` dispatch order (:class:`_WaveOrder`): the writer schedule hands the
interpreter lock to the lookup clients so much more often that their rate
rises by 1.7x and, on a shared box, wanders by more than the serving
benchmark can tell from a regression.  docs/SERVING.md has the numbers and
what has to happen before the pin comes out.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.churn.storms import STORMS, ChurnPlan
from repro.serve.routing import RouteView
from repro.sim.fast.batched import FastEngine, WaveGroup
from repro.sim.fast.predicates import fast_is_sorted_ring, fast_lrl_links_live

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer
    from repro.sim.fast.engine import FastSimulator

__all__ = ["EngineHost"]


def _converged(engine: Any) -> bool:
    """Default convergence probe: sorted ring + every lrl link live."""
    return fast_is_sorted_ring(engine) and fast_lrl_links_live(engine)


class _WaveOrder:
    """The :class:`~repro.sim.fast.batched.WaveFault` that rewrites nothing.

    An installed fault makes staging order observable, so the engine plans
    every row as a writer and dispatches the ``(wave, type)`` groups: same
    trajectory as the writer schedule, more and smaller kernel calls.
    """

    def rewrite(
        self, groups: list[WaveGroup]
    ) -> tuple[list[WaveGroup], list[WaveGroup]]:
        return groups, []


class EngineHost:
    """Owns the engine thread; everything crosses it via queue or snapshot.

    Parameters
    ----------
    sim:
        A :class:`~repro.sim.fast.engine.FastSimulator` (batched or
        sharded engine).  The host becomes the only caller of
        ``step_round`` once :meth:`start` runs.
    observer:
        The run's observer; membership and storm counters land in its
        registry (``serve_membership_total``, ``serve_storms_total``).
    pace:
        Optional sleep (seconds) after each round — bounds the CPU a
        converged, idle overlay burns.
    check_every:
        Run the convergence probe every that many rounds.
    max_rounds:
        Stop stepping after this many rounds (``None`` = run until
        :meth:`stop`); the last published view keeps serving.
    """

    def __init__(
        self,
        sim: "FastSimulator",
        *,
        observer: "Observer",
        pace: float = 0.0,
        check_every: int = 8,
        max_rounds: int | None = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be positive")
        self.sim = sim
        self.observer = observer
        self.pace = pace
        self.check_every = check_every
        self.max_rounds = max_rounds
        self.view: RouteView | None = None
        self.converged = False
        self.rounds_run = 0
        self.error: BaseException | None = None
        self._ops: queue.SimpleQueue[tuple[str, tuple[Any, ...], Future[int]]] = (
            queue.SimpleQueue()
        )
        self._plans: list[tuple[ChurnPlan, int]] = []
        self._stop = threading.Event()
        self._finished = threading.Event()
        self._converged_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._ticks: deque[tuple[float, int]] = deque(maxlen=64)
        registry = observer.registry
        self._membership = registry.counter(
            "serve_membership_total", "nodes joined/left through the serving API"
        )
        self._storms = registry.counter(
            "serve_storms_total", "storm drills fired against the live overlay"
        )
        self._round_gauge = registry.gauge(
            "serve_round", "last round published to the serving path"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EngineHost":
        """Publish an initial view and start the round loop (idempotent)."""
        if self._thread is not None:
            return self
        self._publish()
        if isinstance(self.sim.engine, FastEngine):
            self.sim.engine.set_wave_fault(_WaveOrder())
        thread = threading.Thread(
            target=self._loop, name="repro-serve-engine", daemon=True
        )
        self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Stop the round loop and join the engine thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30)
            if isinstance(self.sim.engine, FastEngine):
                self.sim.engine.set_wave_fault(None)
        self._fail_pending(RuntimeError("engine host stopped"))

    @property
    def running(self) -> bool:
        """Whether the engine thread is still stepping rounds."""
        return self._thread is not None and not self._finished.is_set()

    def wait_converged(self, timeout: float | None = None) -> bool:
        """Block until the convergence probe last reported True."""
        return self._converged_event.wait(timeout)

    def wait_finished(self, timeout: float | None = None) -> bool:
        """Block until the loop exits (max_rounds reached, stop, or error)."""
        return self._finished.wait(timeout)

    # ------------------------------------------------------------------
    # Request-path API (any thread)
    # ------------------------------------------------------------------
    def submit_join(
        self, new_ids: np.ndarray, contact_ids: np.ndarray
    ) -> "Future[int]":
        """Queue a join batch for the next round boundary."""
        return self._submit("join", (np.asarray(new_ids, dtype=np.float64),
                                     np.asarray(contact_ids, dtype=np.float64)))

    def submit_leave(self, node_ids: np.ndarray) -> "Future[int]":
        """Queue a leave batch for the next round boundary."""
        return self._submit("leave", (np.asarray(node_ids, dtype=np.float64),))

    def fire_storm(self, storm: str, *, seed: int = 0) -> "Future[int]":
        """Schedule one canonical storm starting at the next round.

        *storm* names an entry of :data:`repro.churn.storms.STORMS`; its
        injector fires with the plan's derived RNG exactly as the chaos
        campaigns drive it, but against the live serving overlay.
        """
        try:
            build = STORMS[storm]
        except KeyError:
            raise ValueError(
                f"unknown storm {storm!r}; expected one of {sorted(STORMS)}"
            ) from None
        plan = build(ChurnPlan(seed=seed), 0)
        return self._submit("plan", (plan, storm))

    def rounds_per_sec(self) -> float | None:
        """Recent round rate over the tick window (``None`` before 2 ticks)."""
        try:
            t0, r0 = self._ticks[0]
            t1, r1 = self._ticks[-1]
        except IndexError:
            return None
        if t1 <= t0 or r1 <= r0:
            return None
        return (r1 - r0) / (t1 - t0)

    def _submit(self, kind: str, payload: tuple[Any, ...]) -> "Future[int]":
        future: Future[int] = Future()
        if self._finished.is_set() or self._stop.is_set():
            future.set_exception(RuntimeError("engine host is not running"))
            return future
        self._ops.put((kind, payload, future))
        return future

    # ------------------------------------------------------------------
    # Engine thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        try:
            while not self._stop.is_set():
                if (
                    self.max_rounds is not None
                    and self.rounds_run >= self.max_rounds
                ):
                    break
                self._drain_ops()
                round_abs = self.sim.round_index
                starting = [
                    (plan, round_abs - epoch) for plan, epoch in self._plans
                ]
                for plan, rel in starting:
                    for sf in plan.starting(rel):
                        sf.injector.on_window_start(self.sim)
                    for sf in plan.firing(rel):
                        sf.injector.on_round(self.sim)
                self.sim.step_round()
                self.rounds_run += 1
                for plan, rel in starting:
                    for sf in plan.ending(rel + 1):
                        sf.injector.on_window_end(self.sim)
                self._plans = [
                    (plan, epoch)
                    for plan, epoch in self._plans
                    if (h := plan.horizon()) is None
                    or self.sim.round_index - epoch < h
                ]
                self._publish()
                if self.rounds_run % self.check_every == 0:
                    self._check_converged()
                if self.pace > 0.0:
                    time.sleep(self.pace)
        except BaseException as exc:  # repro-lint: ignore[broad-except] background thread: the failure must reach the request path (health doc + pending futures), not die silently
            self.error = exc
        finally:
            self._finished.set()
            self._fail_pending(
                RuntimeError("engine host finished")
                if self.error is None
                else self.error
            )

    def _drain_ops(self) -> None:
        engine = self.sim.engine
        while True:
            try:
                kind, payload, future = self._ops.get_nowait()
            except queue.Empty:
                return
            if not future.set_running_or_notify_cancel():
                continue
            try:
                if kind == "join":
                    new_ids, contacts = payload
                    count = engine.join_batch(new_ids, contacts)
                    self._membership.inc(count, op="join")
                elif kind == "leave":
                    (victims,) = payload
                    count = engine.leave_batch(victims)
                    self._membership.inc(count, op="leave")
                else:
                    plan, label = payload
                    self._plans.append((plan, self.sim.round_index))
                    self._storms.inc(1, storm=label)
                    self.observer.event(
                        "storm", storm=label, round=self.sim.round_index
                    )
                    count = len(plan)
                # Membership changed the id space mid-window; any fresh
                # lookup should route over the post-op columns as soon as
                # the next round publishes.
                self.converged = False
                self._converged_event.clear()
                future.set_result(count)
            except BaseException as exc:  # repro-lint: ignore[broad-except] the submitting thread owns the failure; it is shipped through the future and must not kill the round loop
                future.set_exception(exc)

    def _fail_pending(self, exc: BaseException) -> None:
        while True:
            try:
                _, _, future = self._ops.get_nowait()
            except queue.Empty:
                return
            if future.set_running_or_notify_cancel():
                future.set_exception(exc)

    def _publish(self) -> None:
        view = RouteView.from_engine(self.sim.engine, self.sim.round_index)
        self.view = view
        self._round_gauge.set(self.sim.round_index)
        self._ticks.append((time.monotonic(), self.sim.round_index))

    def _check_converged(self) -> None:
        now = _converged(self.sim.engine)
        self.converged = now
        if now:
            self._converged_event.set()
        else:
            self._converged_event.clear()
