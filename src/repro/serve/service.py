"""The overlay service: an asyncio front-end over a converging engine.

:class:`OverlayService` glues the three serving pieces together:

* an :class:`~repro.serve.host.EngineHost` stepping the fast/sharded
  engine on its own thread and publishing
  :class:`~repro.serve.routing.RouteView` snapshots;
* the *existing* :class:`repro.obs.live.LiveServer` embedded as the
  telemetry endpoint (``/metrics`` + ``/health`` on its own port, the
  exact server ``repro run ... live=:PORT`` uses — the serving layer
  does not grow a second metrics stack, and the API port merely aliases
  the same :func:`repro.obs.live.render_metrics` render and
  :class:`~repro.obs.live.LiveStatus` health document);
* an asyncio HTTP API (one background event loop, stdlib only)::

      GET  /              index
      GET  /health        live health doc + serving block
      GET  /metrics       Prometheus exposition (same bytes as the
                          embedded live endpoint)
      GET  /lookup        ?target=ID[&source=ID][&trace=1]
      GET  /ids           ?k=N — uniform sample of live ids
      POST /join          ?ids=a,b,c[&contact=ID] — next-round join batch
      POST /leave         ?ids=a,b,c — next-round leave batch
      POST /shutdown      request a graceful stop (the owner drains)

Lookups are answered entirely from the current :class:`RouteView` —
no lock is shared with the engine thread and nothing is copied per
request.  Joins and leaves resolve at the next round boundary; the
handler awaits the host future so the client sees the accepted count.

:func:`build_service` is the one-stop constructor the CLI, the load
harness, the SLO bench and the tests all share.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.obs.live import LiveServer, LiveStatus, parse_address, render_metrics
from repro.obs.observer import Observer
from repro.serve.host import EngineHost
from repro.serve.routing import NO_LINK, RouteView, route_batch

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
SERVED_ENGINES: tuple[str, ...] = ("fast", "sharded")

#: Histogram bucket bounds for greedy-routing hop counts (log-spaced;
#: Lemma 4.23 puts converged routes well under the top bucket).
HOP_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Seconds a membership request waits for its round boundary.
_MEMBERSHIP_TIMEOUT = 60.0


@dataclass
class LookupOutcome:
    """Batch lookup result: per-query hops/success plus bookkeeping.

    ``found[i]`` says the target id was live in the routed view;
    ``ok[i]`` says the greedy walk reached it.  ``source_ids`` records
    the source actually used (drawn uniformly when the caller gave
    none), and ``paths`` carries full id traces when requested.
    """

    hops: np.ndarray
    ok: np.ndarray
    found: np.ndarray
    source_ids: np.ndarray
    round_index: int
    paths: list[list[float]] | None = None


class OverlayService:
    """One serving stack: engine host + live telemetry + asyncio API."""

    def __init__(
        self,
        host: EngineHost,
        observer: Observer,
        *,
        api: object = ":0",
        metrics: object = ":0",
        seed: int = 0,
    ) -> None:
        self.host = host
        self.observer = observer
        status = observer.live_status
        self.status: LiveStatus = status if status is not None else LiveStatus()
        observer.live_status = self.status
        self.api_host, self.api_port = parse_address(api)
        self.live = LiveServer(observer, metrics, status=self.status)
        #: Set by ``POST /shutdown``; the owner waits on it and drains.
        self.shutdown_requested = threading.Event()
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_async: asyncio.Event | None = None
        self._ready = threading.Event()
        self._start_error: BaseException | None = None
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
        self._request_seconds = registry.histogram(
            "serve_request_seconds", "wall-clock latency of one API request"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OverlayService":
        """Start telemetry, the engine thread, and the API (idempotent)."""
        if self._started:
            return self
        self._started = True
        try:
            self.live.start()
            self.observer.live_server = self.live
            self.host.start()
            self._ready.clear()
            thread = threading.Thread(
                target=self._serve_loop, name="repro-serve-api", daemon=True
            )
            self._thread = thread
            thread.start()
            self._ready.wait(timeout=30)
            if self._start_error is not None:
                raise self._start_error
        except BaseException:  # repro-lint: ignore[broad-except] re-raises immediately; only unwinds the partially started stack first
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop the API, the engine thread, and telemetry (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        loop, stop_event = self._loop, self._stop_async
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:  # repro-lint: ignore[silent-except] the loop already exited; there is nothing left to signal
                pass
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30)
        self.host.stop()
        self.observer.close()

    @property
    def api_address(self) -> str:
        """The bound API address (``host:port``)."""
        return f"{self.api_host}:{self.api_port}"

    @property
    def api_url(self) -> str:
        """The bound API base URL."""
        return f"http://{self.api_address}"

    def announce(self, path: str) -> None:
        """Write the bound addresses to *path* (``serve.json``)."""
        doc = {
            "api": self.api_address,
            "api_url": self.api_url,
            "metrics": self.live.address,
            "metrics_url": self.live.url,
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
        harnesses stay deterministic).  Outcome counters and the hop
        histogram are folded into the registry with one bulk update.
        """
        targets = np.asarray(target_ids, dtype=np.float64)
        k = len(targets)
        view = self.host.view
        if view is None or view.n == 0:
            empty = np.zeros(k, dtype=np.int64)
            self._lookups.inc(k, outcome="unknown")
            return LookupOutcome(
                hops=empty,
                ok=np.zeros(k, dtype=bool),
                found=np.zeros(k, dtype=bool),
                source_ids=np.full(k, np.nan),
                round_index=-1,
            )
        t_ranks = view.resolve(targets)
        found = t_ranks != NO_LINK
        if source_ids is None:
            draw = rng if rng is not None else self._rng
            with self._rng_lock:
                s_ranks = draw.integers(0, view.n, size=k)
            sources = view.ids[s_ranks]
        else:
            sources = np.asarray(source_ids, dtype=np.float64)
            s_ranks = view.resolve(sources)
        result = route_batch(
            view, s_ranks, t_ranks, max_hops=max_hops, collect_paths=collect_paths
        )
        ok_count = int(result.ok.sum())
        unknown_count = int((~found).sum())
        lost_count = k - ok_count - unknown_count
        if ok_count:
            self._lookups.inc(ok_count, outcome="ok")
            self._observe_hops(result.hops[result.ok])
        if unknown_count:
            self._lookups.inc(unknown_count, outcome="unknown")
        if lost_count > 0:
            self._lookups.inc(lost_count, outcome="lost")
        return LookupOutcome(
            hops=result.hops,
            ok=result.ok,
            found=found,
            source_ids=sources,
            round_index=result.round_index,
            paths=result.paths,
        )

    def _observe_hops(self, hops: np.ndarray) -> None:
        bounds = np.asarray(self._hops.bounds)
        idx = np.searchsorted(bounds, hops, side="left")
        counts = np.bincount(idx, minlength=len(bounds) + 1)
        self._hops.observe_bulk(
            counts.tolist(), float(hops.sum()), int(hops.size)
        )

    def sample_ids(self, k: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Uniform sample (with replacement) of *k* live ids."""
        view = self.host.view
        if view is None or view.n == 0:
            return np.empty(0, dtype=np.float64)
        draw = rng if rng is not None else self._rng
        with self._rng_lock:
            ranks = draw.integers(0, view.n, size=k)
        return view.ids[ranks]

    def health_doc(self) -> dict[str, object]:
        """The ``/health`` JSON document (live doc + serving block)."""
        doc = self.status.health(self.observer)
        view = self.host.view
        doc["serve"] = {
            "api": self.api_address,
            "metrics": self.live.address,
            "converged": self.host.converged,
            "view_round": None if view is None else view.round_index,
            "view_n": None if view is None else view.n,
            "rounds_per_sec": self.host.rounds_per_sec(),
            "lookups": int(self._lookups.total()),
            "error": None if self.host.error is None else repr(self.host.error),
        }
        return doc

    # ------------------------------------------------------------------
    # Asyncio API plane
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # repro-lint: ignore[broad-except] background thread: surface the failure through start() instead of dying silently
            if self._start_error is None:
                self._start_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self.api_host, self.api_port
            )
        except OSError as exc:
            self._start_error = OSError(
                f"serve API could not bind {self.api_host}:{self.api_port}: {exc}"
            )
            self._ready.set()
            return
        sockets = server.sockets or ()
        if sockets:
            self.api_port = int(sockets[0].getsockname()[1])
        self._ready.set()
        async with server:
            await self._stop_async.wait()

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.perf_counter()
        endpoint = "bad-request"
        code = 400
        payload: object = {"error": "bad request"}
        ctype = "application/json"
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=10)
            method, target, _ = request.decode("latin-1").split()
            content_length = 0
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            body = (
                await reader.readexactly(content_length) if content_length else b""
            )
            path, _, query = target.partition("?")
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(query).items()
            }
            if body:
                params.update(
                    {
                        key: values[-1]
                        for key, values in urllib.parse.parse_qs(
                            body.decode("latin-1")
                        ).items()
                    }
                )
            endpoint = path.rstrip("/") or "/"
            code, payload, ctype = await self._dispatch(method, endpoint, params)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError) as exc:
            code, payload = 400, {"error": str(exc) or type(exc).__name__}
        except Exception as exc:  # repro-lint: ignore[broad-except] request isolation: one bad request must answer 500, not kill the accept loop
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        await self._respond(writer, code, payload, ctype)
        self._requests.inc(1, endpoint=endpoint, code=code)
        self._request_seconds.observe(
            time.perf_counter() - start, endpoint=endpoint
        )

    async def _respond(
        self, writer: asyncio.StreamWriter, code: int, payload: object, ctype: str
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(code, "OK")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (BrokenPipeError, ConnectionResetError):  # repro-lint: ignore[silent-except] client hung up mid-reply; nothing to do
            pass

    async def _dispatch(
        self, method: str, path: str, params: dict[str, str]
    ) -> tuple[int, object, str]:
        json_t = "application/json"
        if path == "/" and method == "GET":
            return (
                200,
                "repro.serve overlay API\n"
                "  GET  /health /metrics /lookup /ids\n"
                "  POST /join /leave /shutdown\n",
                "text/plain; charset=utf-8",
            )
        if path == "/health":
            if method != "GET":
                return 405, {"error": "GET only"}, json_t
            self.status.touch()
            self.status.health_requests += 1
            return 200, self.health_doc(), json_t
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}, json_t
            self.status.touch()
            self.status.scrapes += 1
            text = render_metrics(self.observer)
            if text is None:
                return 503, {"error": "scrape retry exhausted"}, json_t
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/lookup":
            if method != "GET":
                return 405, {"error": "GET only"}, json_t
            code, doc = self._handle_lookup(params)
            return code, doc, json_t
        if path == "/ids":
            if method != "GET":
                return 405, {"error": "GET only"}, json_t
            k = int(params.get("k", "16"))
            if not 1 <= k <= 65536:
                return 400, {"error": "k out of range"}, json_t
            view = self.host.view
            return 200, {
                "ids": self.sample_ids(k).tolist(),
                "n": 0 if view is None else view.n,
                "round": None if view is None else view.round_index,
            }, json_t
        if path in ("/join", "/leave"):
            if method != "POST":
                return 405, {"error": "POST only"}, json_t
            code, doc = await self._handle_membership(path, params)
            return code, doc, json_t
        if path == "/shutdown":
            if method != "POST":
                return 405, {"error": "POST only"}, json_t
            self.shutdown_requested.set()
            return 200, {"ok": True}, json_t
        return 404, {"error": f"no such endpoint {path!r}"}, json_t

    def _handle_lookup(self, params: dict[str, str]) -> tuple[int, object]:
        if "target" not in params:
            return 400, {"error": "lookup needs ?target=ID"}
        targets = np.asarray([float(params["target"])])
        sources = (
            np.asarray([float(params["source"])]) if "source" in params else None
        )
        trace = params.get("trace", "0") not in ("0", "", "false")
        outcome = self.lookup_batch(targets, sources, collect_paths=trace)
        doc: dict[str, object] = {
            "target": float(targets[0]),
            "source": float(outcome.source_ids[0]),
            "found": bool(outcome.found[0]),
            "ok": bool(outcome.ok[0]),
            "hops": int(outcome.hops[0]),
            "round": outcome.round_index,
        }
        if trace and outcome.paths is not None:
            doc["path"] = outcome.paths[0]
        return 200, doc

    async def _handle_membership(
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
            count = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=_MEMBERSHIP_TIMEOUT
            )
        except ValueError as exc:
            return 400, {"error": str(exc)}
        except KeyError as exc:
            # leave_batch signals unknown/duplicate departing ids with
            # KeyError — a client-data problem, not a server fault.
            return 400, {"error": str(exc.args[0]) if exc.args else str(exc)}
        except asyncio.TimeoutError:
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
    shards: int = 2,
    seed: int = 7,
    config: "ProtocolConfig | None" = None,
    sanitize: bool | None = None,
    api: object = ":0",
    metrics: object = ":0",
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
    converges while serving.  *engine* is one of :data:`SERVED_ENGINES`
    (*shards* is read by ``"sharded"`` only).

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
        from repro.graphs.build import stable_ring_states

        states = stable_ring_states(
            n, lrl="harmonic", rng=rng, ids=generate_ids(n, rng)
        )
    else:
        from repro.topology.generators import TOPOLOGIES

        try:
            build = TOPOLOGIES[topology]
        except KeyError:
            raise ValueError(
                f"unknown topology {topology!r}; expected 'stable' or one of "
                f"{sorted(TOPOLOGIES)}"
            ) from None
        states = build(n, rng)
    if engine not in SERVED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            f"{', '.join(SERVED_ENGINES)}"
        )
    params: dict[str, object] = {
        "n": n, "topology": topology, "engine": engine, "seed": seed,
        "shards": shards if engine == "sharded" else None,
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
            states,
            config,
            engine=engine,
            rng=seed_rng(seed, "serve-rounds"),
            shards=shards,
            sanitize=sanitize,
        )
    host = EngineHost(
        cast("FastSimulator", sim),  # SERVED_ENGINES are fast engines
        observer=observer,
        pace=pace,
        check_every=check_every,
        max_rounds=max_rounds,
    )
    return OverlayService(host, observer, api=api, metrics=metrics, seed=seed)
