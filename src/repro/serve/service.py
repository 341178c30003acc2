"""The overlay service: an HTTP API over a converging engine.

:class:`OverlayService` glues the three serving pieces together:

* an :class:`~repro.serve.host.EngineHost` stepping the fast engine on
  its own thread and publishing
  :class:`~repro.serve.routing.RouteView` snapshots;
* the :class:`repro.obs.live.LiveServer` that ``repro run ...
  live=:PORT`` uses, bound to the ``api=`` address, which already
  serves ``/metrics`` and ``/health``;
* the API routes mounted on that server (stdlib, one handler thread
  per connection)::

      GET  /              index
      GET  /health        live health doc + serving block
      GET  /metrics       Prometheus exposition
      GET  /lookup        ?target=ID[&source=ID][&trace=1]
      GET  /ids           ?k=N — uniform sample of live ids
      POST /join          ?ids=a,b,c[&contact=ID] — next-round join batch
      POST /leave         ?ids=a,b,c — next-round leave batch
      POST /shutdown      request a graceful stop (the owner drains)

Lookups are answered entirely from the current :class:`RouteView` —
no lock is shared with the engine thread and nothing is copied per
request.  Joins and leaves resolve at the next round boundary; the
handler waits on the host future so the client sees the accepted count.

:func:`build_service` is the one-stop constructor the CLI, the load
harness, the SLO bench and the tests all share.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, cast

import numpy as np

from repro.obs.live import LiveServer, LiveStatus
from repro.obs.observer import Observer
from repro.serve.host import EngineHost
from repro.serve.routing import LOST_REASONS, NO_LINK, hop_dtype, route_batch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import ProtocolConfig
    from repro.sim.fast.engine import FastSimulator

__all__ = [
    "HOP_BUCKETS",
    "SERVED_ENGINES",
    "LookupOutcome",
    "OverlayService",
    "build_service",
]

#: The engines the service serves from (``RouteView`` reads SoA columns,
#: so not the reference ``Network``).
SERVED_ENGINES: tuple[str, ...] = ("fast",)

#: Histogram bucket bounds for greedy-routing hop counts (log-spaced;
#: Lemma 4.23 puts converged routes well under the top bucket).
HOP_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Seconds a membership request waits for its round boundary.
_MEMBERSHIP_TIMEOUT = 60.0


@dataclass
class LookupOutcome:
    """Batch lookup result: per-query hops/success plus bookkeeping.

    ``found[i]`` says both the target and the source id were live in the
    routed view; ``ok[i]`` says the greedy walk reached the target, and
    ``lost_reason[i]`` why a found lookup's walk did not (the codes of
    :class:`~repro.serve.routing.RouteResult`).  ``source_ids`` records
    the source actually used (drawn uniformly when the caller gave none),
    and ``paths`` carries full id traces when requested.
    """

    hops: np.ndarray
    ok: np.ndarray
    lost_reason: np.ndarray
    found: np.ndarray
    source_ids: np.ndarray
    round_index: int
    paths: list[list[float]] | None = None


class OverlayService:
    """One serving stack: engine host + one HTTP server for API and telemetry."""

    def __init__(
        self,
        host: EngineHost,
        observer: Observer,
        *,
        api: object = ":0",
        seed: int = 0,
    ) -> None:
        self.host = host
        self.observer = observer
        status = observer.live_status
        self.status: LiveStatus = status if status is not None else LiveStatus()
        observer.live_status = self.status
        self.live = LiveServer(observer, api, status=self.status)
        self.live.routes.update({
            "/lookup": ("GET", self._handle_lookup),
            "/ids": ("GET", self._handle_ids),
            "/join": ("POST", partial(self._handle_membership, "/join")),
            "/leave": ("POST", partial(self._handle_membership, "/leave")),
            "/shutdown": ("POST", self._handle_shutdown),
        })
        self.live.health = self.health_doc
        self.live.on_request = self._count_request
        #: Set by ``POST /shutdown``; the owner waits on it and drains.
        self.shutdown_requested = threading.Event()
        self._rng = np.random.default_rng(seed)
        #: Guards the service generator and the ``serve_*`` series, which
        #: concurrent handler threads update.
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        registry = observer.registry
        self._lookups = registry.counter(
            "serve_lookups_total", "greedy-routing lookups served, by outcome"
        )
        self._requests = registry.counter(
            "serve_requests_total", "HTTP requests handled, by endpoint and code"
        )
        self._hops = registry.histogram(
            "serve_lookup_hops",
            "greedy-routing hop count of successful lookups",
            buckets=HOP_BUCKETS,
        )
        self._hop_bounds = np.asarray(self._hops.bounds)
        self._request_seconds = registry.histogram(
            "serve_request_seconds", "wall-clock latency of one API request"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OverlayService":
        """Start the HTTP server and the engine thread (idempotent)."""
        if self._started:
            return self
        self._started = True
        try:
            self.live.start()
            self.observer.live_server = self.live
            self.host.start()
        except BaseException:  # repro-lint: ignore[broad-except] re-raises immediately; only unwinds the partially started stack first
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop the HTTP server, the engine thread, and telemetry (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self.live.stop()
        self.host.stop()
        self.observer.close()

    @property
    def api_address(self) -> str:
        """The bound API address (``host:port``)."""
        return self.live.address

    @property
    def api_url(self) -> str:
        """The bound API base URL."""
        return self.live.url

    def announce(self, path: str) -> None:
        """Write the bound address to *path* (``serve.json``)."""
        doc = {
            "api": self.api_address,
            "api_url": self.api_url,
            "pid": os.getpid(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")

    # ------------------------------------------------------------------
    # Lookup plane (any thread)
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        target_ids: np.ndarray,
        source_ids: np.ndarray | None = None,
        *,
        collect_paths: bool = False,
        max_hops: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> LookupOutcome:
        """Route one batch of lookups over the current view.

        Target/source ids are resolved against the latest published
        :class:`RouteView`; sources default to uniform draws over the
        live nodes (*rng* overrides the service generator so load
        harnesses stay deterministic).  A lookup whose target or source
        is not live counts as ``unknown``, never as ``lost``; a lost one
        counts under its ``reason``.  Outcome counters and the hop
        histogram are folded into the registry with one bulk update.
        """
        targets = np.asarray(target_ids, dtype=np.float64)
        k = len(targets)
        view = self.host.view
        if view is None or view.n == 0:
            with self._lock:
                self._lookups.inc(k, outcome="unknown")
            return LookupOutcome(
                hops=np.zeros(k, dtype=hop_dtype(0, max_hops)),
                ok=np.zeros(k, dtype=bool),
                lost_reason=np.zeros(k, dtype=np.uint8),
                found=np.zeros(k, dtype=bool),
                source_ids=np.full(k, np.nan),
                round_index=-1,
            )
        t_ranks = view.resolve(targets)
        found = t_ranks != NO_LINK
        if source_ids is None:
            draw = rng if rng is not None else self._rng
            with self._lock:
                s_ranks = draw.integers(0, view.n, size=k)
            sources = view.ids[s_ranks]
        else:
            sources = np.asarray(source_ids, dtype=np.float64)
            s_ranks = view.resolve(sources)
            found &= s_ranks != NO_LINK
        result = route_batch(
            view, s_ranks, t_ranks, max_hops=max_hops, collect_paths=collect_paths
        )
        ok_count = int(result.ok.sum())
        unknown_count = int((~found).sum())
        lost_count = k - ok_count - unknown_count
        with self._lock:
            if ok_count:
                self._lookups.inc(ok_count, outcome="ok")
                self._observe_hops(result.hops[result.ok])
            if unknown_count:
                self._lookups.inc(unknown_count, outcome="unknown")
            if lost_count > 0:
                self._observe_lost(result.lost_reason)
        return LookupOutcome(
            hops=result.hops,
            ok=result.ok,
            lost_reason=result.lost_reason,
            found=found,
            source_ids=sources,
            round_index=result.round_index,
            paths=result.paths,
        )

    def _observe_hops(self, hops: np.ndarray) -> None:
        idx = np.searchsorted(self._hop_bounds, hops, side="left")
        counts = np.bincount(idx, minlength=len(self._hop_bounds) + 1)
        self._hops.observe_bulk(
            counts.tolist(), float(hops.sum()), int(hops.size)
        )

    def _observe_lost(self, lost_reason: np.ndarray) -> None:
        counts = np.bincount(lost_reason, minlength=len(LOST_REASONS) + 1)
        for reason, count in zip(LOST_REASONS, counts[1:].tolist()):
            if count:
                self._lookups.inc(count, outcome="lost", reason=reason)

    def sample_ids(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Uniform sample (with replacement) of *k* live ids."""
        view = self.host.view
        if view is None or view.n == 0:
            return np.empty(0, dtype=np.float64)
        draw = rng if rng is not None else self._rng
        with self._lock:
            ranks = draw.integers(0, view.n, size=k)
        return view.ids[ranks]

    def health_doc(self) -> dict[str, object]:
        """The ``/health`` JSON document (live doc + serving block)."""
        doc = self.status.health(self.observer)
        view = self.host.view
        doc["serve"] = {
            "api": self.api_address,
            "converged": self.host.converged,
            "view_round": None if view is None else view.round_index,
            "view_n": None if view is None else view.n,
            "rounds_per_sec": self.host.rounds_per_sec(),
            "lookups": int(self._lookups.total()),
            "error": None if self.host.error is None else repr(self.host.error),
        }
        return doc

    # ------------------------------------------------------------------
    # HTTP routes (handler threads of ``self.live``)
    # ------------------------------------------------------------------
    def _count_request(self, endpoint: str, code: int, seconds: float) -> None:
        with self._lock:
            self._requests.inc(1, endpoint=endpoint, code=code)
            self._request_seconds.observe(seconds, endpoint=endpoint)

    def _handle_lookup(self, params: dict[str, str]) -> tuple[int, object]:
        if "target" not in params:
            return 400, {"error": "lookup needs ?target=ID"}
        targets = np.asarray([float(params["target"])])
        sources = (
            np.asarray([float(params["source"])]) if "source" in params else None
        )
        trace = params.get("trace", "0") not in ("0", "", "false")
        outcome = self.lookup_batch(targets, sources, collect_paths=trace)
        reason = int(outcome.lost_reason[0])
        doc: dict[str, object] = {
            "target": float(targets[0]),
            "source": float(outcome.source_ids[0]),
            "found": bool(outcome.found[0]),
            "ok": bool(outcome.ok[0]),
            "hops": int(outcome.hops[0]),
            "lost_reason": LOST_REASONS[reason - 1] if reason else None,
            "round": outcome.round_index,
        }
        if trace and outcome.paths is not None:
            doc["path"] = outcome.paths[0]
        return 200, doc

    def _handle_ids(self, params: dict[str, str]) -> tuple[int, object]:
        k = int(params.get("k", "16"))
        if not 1 <= k <= 65536:
            return 400, {"error": "k out of range"}
        view = self.host.view
        return 200, {
            "ids": self.sample_ids(k).tolist(),
            "n": 0 if view is None else view.n,
            "round": None if view is None else view.round_index,
        }

    def _handle_shutdown(self, params: dict[str, str]) -> tuple[int, object]:
        self.shutdown_requested.set()
        return 200, {"ok": True}

    def _handle_membership(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, object]:
        raw = params.get("ids", params.get("id", ""))
        ids = np.asarray(
            [float(part) for part in raw.split(",") if part], dtype=np.float64
        )
        if ids.size == 0:
            return 400, {"error": f"{path} needs ?ids=a,b,c"}
        if path == "/join":
            if "contact" in params:
                contacts = np.full(ids.size, float(params["contact"]))
            else:
                contacts = self.sample_ids(ids.size)
                if contacts.size == 0:
                    return 503, {"error": "no live nodes to act as contacts"}
            future = self.host.submit_join(ids, contacts)
        else:
            future = self.host.submit_leave(ids)
        try:
            count = future.result(timeout=_MEMBERSHIP_TIMEOUT)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except KeyError as exc:
            # leave_batch signals unknown/duplicate departing ids with
            # KeyError — a client-data problem, not a server fault.
            return 400, {"error": str(exc.args[0]) if exc.args else str(exc)}
        except FutureTimeout:
            return 504, {"error": f"membership op timed out after {_MEMBERSHIP_TIMEOUT:g}s"}
        except RuntimeError as exc:
            # The engine host refused or died mid-op (stopping/stopped).
            return 503, {"error": str(exc)}
        key = "joined" if path == "/join" else "left"
        return 200, {key: count, "round": self.host.sim.round_index}


def build_service(
    *,
    n: int = 4096,
    topology: str = "stable",
    engine: str = "fast",
    seed: int = 7,
    config: "ProtocolConfig | None" = None,
    sanitize: bool | None = None,
    api: object = ":0",
    obs_dir: str | None = None,
    round_events: bool = False,
    pace: float = 0.0,
    check_every: int = 8,
    max_rounds: int | None = None,
) -> OverlayService:
    """Assemble an (unstarted) :class:`OverlayService`.

    *topology* is either ``"stable"`` — the converged small-world state
    of Fact 4.21 (sorted ring + 1-harmonic long-range links), the
    production bring-up path — or any name from
    :data:`repro.topology.generators.TOPOLOGIES` for a cold start that
    converges while serving.  *engine* is one of :data:`SERVED_ENGINES`.

    With *obs_dir* the full artifact set (``metrics.jsonl`` /
    ``metrics.prom`` / ``manifest.json``) is written there on stop;
    without it telemetry stays in-memory (registry only).  The caller
    owns the lifecycle: ``service.start()`` ... ``service.stop()``.
    """
    from repro.experiments.common import seed_rng
    from repro.ids import generate_ids
    from repro.sim.host import make_simulator

    rng = seed_rng(seed, "serve", topology, n)
    if topology == "stable":
        from repro.graphs.build import stable_ring_soa

        start = stable_ring_soa(n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng))
    else:
        from repro.topology.generators import TOPOLOGIES, topology_soa

        if topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {topology!r}; expected 'stable' or one of "
                f"{sorted(TOPOLOGIES)}"
            )
        start = topology_soa(topology, n, rng)
    if engine not in SERVED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(SERVED_ENGINES)}"
        )
    params: dict[str, object] = {
        "n": n, "topology": topology, "engine": engine, "seed": seed,
    }
    if obs_dir is not None:
        from repro.obs.harness import run_observer

        observer = run_observer(
            obs_dir, experiment="serve", params=params, round_events=round_events
        )
    else:
        observer = Observer(
            experiment="serve", params=params, round_events=False
        )
    observer.live_status = LiveStatus()
    from repro.obs.runtime import activated

    with activated(observer):
        sim = make_simulator(
            start,
            config,
            engine=engine,
            rng=seed_rng(seed, "serve-rounds"),
            sanitize=sanitize,
        )
    host = EngineHost(
        cast("FastSimulator", sim),  # SERVED_ENGINES is the fast engine
        observer=observer,
        pace=pace,
        check_every=check_every,
        max_rounds=max_rounds,
    )
    return OverlayService(host, observer, api=api, seed=seed)
