"""The live half of ``repro.obs``: an in-run Prometheus scrape endpoint.

``repro run <id> obs=DIR live=:PORT`` starts a stdlib-only background
HTTP server next to the ambient :class:`~repro.obs.observer.Observer`:

* ``GET /metrics`` — the current registry rendered as a Prometheus text
  exposition (the same bytes ``metrics.prom`` will hold at finalize,
  mid-run);
* ``GET /health`` — a JSON document with the current round, live node
  count, pending messages, rounds/sec, the convergence probes
  (unconverged count, list-link potential) and a linear-extrapolation
  ETA;
* ``GET /`` — a tiny index of the routes.

One handler serves every route: an owner mounts more (``repro serve``
adds its lookup and membership API, docs/SERVING.md), a route that
raises answers 500 and the server keeps serving, and a connection that
sends nothing is closed after a 10 s read timeout.

**Never block the wave loop.**  The simulation thread only performs
plain attribute writes on a :class:`LiveStatus` (one per round, via
:meth:`~repro.obs.observer.SimHandle.round_end`); it takes no locks and
waits on nothing.  HTTP handler threads read those attributes and render
the registry with a bounded retry loop — a concurrent round may mutate a
registry dict mid-iteration, which surfaces as ``RuntimeError`` and is
simply retried (scrapes are best-effort snapshots by design).

**Never perturb the trajectory.**  The convergence probes read SoA
columns with pure ndarray arithmetic — no simulation RNG is touched, no
state written — and they run only when someone actually scraped
recently (and at most once per ``probe_interval``), so an unwatched
endpoint costs one clock comparison per round.  Bit-identity with
``live=`` on is pinned by ``tests/test_obs_live.py``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any
from urllib.parse import parse_qs

from repro.obs.exporters import prometheus_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["LiveServer", "LiveStatus", "parse_address", "render_metrics"]

#: How many /metrics render attempts before giving up on a scrape.
_RENDER_RETRIES = 5

#: One endpoint: takes the query and form parameters and returns
#: ``(code, payload)``; a ``str`` payload is served as text, any other
#: as JSON.
Route = Callable[[dict[str, str]], tuple[int, object]]

#: Reply content types: text is the Prometheus exposition (the index
#: shares it), everything else JSON.
_TEXT = "text/plain; version=0.0.4; charset=utf-8"
_JSON = "application/json"


def render_metrics(observer: "Observer") -> str | None:
    """Render *observer*'s registry as Prometheus text, retry-bounded.

    A concurrent round may grow a registry dict mid-iteration, which
    surfaces as ``RuntimeError``; scrapes are best-effort snapshots by
    design, so the render is simply retried up to ``_RENDER_RETRIES``
    times and ``None`` is returned when every attempt lost the race.
    The ``/metrics`` route of :class:`LiveServer` serves it, for
    ``repro run ... live=`` and ``repro serve`` alike.
    """
    for _ in range(_RENDER_RETRIES):
        try:
            return prometheus_text(observer.registry)
        except RuntimeError:
            time.sleep(0.005)
    return None

#: Sentinel link values (mirrors :mod:`repro.ids`, kept inline so this
#: module stays importable without the package's numeric core).
_NEG_INF = float("-inf")
_POS_INF = float("inf")


def parse_address(spec: object) -> tuple[str, int]:
    """Parse a ``live=`` or ``api=`` value into ``(host, port)``.

    Accepts ``:PORT`` / ``HOST:PORT`` / a bare port (port 0 asks the
    kernel for an ephemeral port, which ``DIR/live.json`` or
    ``DIR/serve.json`` then records).
    The default host is loopback — serving telemetry beyond the local
    machine is an explicit choice.
    """
    if isinstance(spec, int):
        if not 0 <= spec <= 65535:
            raise ValueError(f"address port out of range: {spec}")
        return "127.0.0.1", spec
    text = str(spec).strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text) if port_text else 0
    except ValueError:
        raise ValueError(f"address needs ':PORT' or 'HOST:PORT', got {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"address port out of range: {port}")
    return host, port


class LiveStatus:
    """Wave-loop-published run state, read by the HTTP handler threads.

    The simulation side calls :meth:`round_end` once per round (plain
    attribute writes, no locks); handlers call :meth:`health`.  The
    convergence probes are throttled: they run at most every
    *probe_interval* seconds, and only while the endpoint has been
    scraped within the last *scrape_window* seconds — an unwatched run
    pays one monotonic-clock comparison per round.
    """

    __slots__ = (
        "round", "n", "pending", "unconverged", "potential", "probe_round",
        "scrapes", "health_requests", "probe_interval", "scrape_window",
        "_started", "_ticks", "_probe_history", "_last_probe", "_last_scrape",
    )

    def __init__(
        self,
        *,
        probe_interval: float = 2.0,
        scrape_window: float = 30.0,
    ) -> None:
        self.round = 0
        self.n = 0
        self.pending = 0
        self.unconverged: int | None = None
        self.potential: float | None = None
        self.probe_round: int | None = None
        self.scrapes = 0
        self.health_requests = 0
        self.probe_interval = probe_interval
        self.scrape_window = scrape_window
        self._started = time.monotonic()
        self._ticks: deque[tuple[float, int]] = deque(maxlen=128)
        self._probe_history: deque[tuple[int, int]] = deque(maxlen=32)
        self._last_probe = 0.0
        self._last_scrape = 0.0

    # ------------------------------------------------------------------
    # Wave-loop side (simulation thread)
    # ------------------------------------------------------------------
    def round_end(self, round_index: int, n: int, pending: int, sim: Any) -> None:
        """Publish one finished round; maybe run the throttled probes."""
        self.round = round_index
        self.n = n
        self.pending = pending
        now = time.monotonic()
        self._ticks.append((now, round_index))
        if (
            now - self._last_scrape <= self.scrape_window
            and now - self._last_probe >= self.probe_interval
        ):
            self.probe(sim)

    def probe(self, sim: Any) -> None:
        """Compute the convergence probes from *sim*'s SoA columns.

        Reads only: ids/l/r in ascending-id order, via ndarray methods
        (slicing, comparison, ``searchsorted``) — nothing here imports
        numpy, draws randomness, or writes simulation state.  Engines
        without an SoA facade (the reference scheduler) are skipped; the
        health document then reports ``null`` probes.
        """
        self._last_probe = time.monotonic()
        engine = getattr(sim, "engine", None)
        soa = getattr(engine, "soa", None)
        if soa is None:
            return
        ids, idx = soa.sorted_live()
        l = soa.l[idx]
        r = soa.r[idx]
        count = len(ids)
        if count == 0:
            self.unconverged = 0
            self.potential = 0.0
        elif count == 1:
            bad = int(l[0] != _NEG_INF) or int(r[0] != _POS_INF)
            self.unconverged = int(bad)
            self.potential = 0.0
        else:
            # A node is converged when l/r point at its sorted neighbors
            # (sentinels at the ends) — the vectorized twin of
            # fast_is_sorted_list, counting offenders instead of any().
            left_bad = l[1:] != ids[:-1]     # nodes 1..n-1
            right_bad = r[:-1] != ids[1:]    # nodes 0..n-2
            mid = left_bad[:-1] | right_bad[1:]
            first = bool(l[0] != _NEG_INF) or bool(right_bad[0])
            last = bool(r[-1] != _POS_INF) or bool(left_bad[-1])
            self.unconverged = int(mid.sum()) + int(first) + int(last)
            # List-link potential: Σ (|rank(link) − rank(self)| − 1) over
            # finite stored links — 0 exactly at the sorted list.
            total = 0.0
            for column in (l, r):
                finite = (column > _NEG_INF) & (column < _POS_INF)
                self_rank = finite.nonzero()[0]
                if len(self_rank) == 0:
                    continue
                link_rank = ids.searchsorted(column[self_rank])
                total += float((abs(link_rank - self_rank) - 1).clip(0).sum())
            self.potential = total
        self.probe_round = self.round
        self._probe_history.append((self.round, int(self.unconverged or 0)))

    # ------------------------------------------------------------------
    # HTTP side (handler threads)
    # ------------------------------------------------------------------
    def touch(self) -> None:
        """Record a scrape so the wave loop re-arms the probes."""
        self._last_scrape = time.monotonic()

    def rounds_per_sec(self) -> float | None:
        """Recent round rate from the tick window (``None`` before 2 ticks)."""
        try:
            t0, r0 = self._ticks[0]
            t1, r1 = self._ticks[-1]
        except IndexError:
            return None
        if t1 <= t0 or r1 <= r0:
            return None
        return (r1 - r0) / (t1 - t0)

    def eta_rounds(self) -> float | None:
        """Linear extrapolation of the unconverged-count decline."""
        try:
            r0, u0 = self._probe_history[0]
            r1, u1 = self._probe_history[-1]
        except IndexError:
            return None
        if r1 <= r0 or u1 >= u0:
            return None
        slope = (u0 - u1) / (r1 - r0)  # unconverged nodes shed per round
        return u1 / slope

    def health(self, observer: "Observer | None" = None) -> dict[str, object]:
        """The JSON health document ``GET /health`` serves."""
        rps = self.rounds_per_sec()
        eta = self.eta_rounds()
        doc: dict[str, object] = {
            "experiment": observer.experiment if observer is not None else "",
            "round": self.round,
            "n": self.n,
            "pending": self.pending,
            "rounds_per_sec": None if rps is None else round(rps, 3),
            "unconverged": self.unconverged,
            "potential": self.potential,
            "probe_round": self.probe_round,
            "eta_rounds": None if eta is None else round(eta, 1),
            "eta_seconds": (
                None if eta is None or not rps else round(eta / rps, 1)
            ),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "finished": bool(getattr(observer, "_finalized", False)),
        }
        return doc


class _LiveHTTPServer(ThreadingHTTPServer):
    """Threaded server carrying the :class:`LiveServer` it answers for."""

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog: a burst of concurrent clients waits to be accepted
    #: instead of retrying its connect.
    request_queue_size = 100
    live: "LiveServer"


class _Handler(BaseHTTPRequestHandler):
    server: _LiveHTTPServer
    #: Seconds a connection may stall before its request is read; the
    #: server then closes it, so an idle client cannot hold a thread.
    timeout: float | None = 10.0

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        path, _, query = self.path.partition("?")
        endpoint = path.rstrip("/") or "/"
        live = self.server.live
        try:
            length = int(self.headers.get("Content-Length") or 0)
            form = self.rfile.read(length).decode("latin-1") if length > 0 else ""
            params = {key: values[-1] for key, values in parse_qs(query).items()}
            params.update({key: values[-1] for key, values in parse_qs(form).items()})
            code, payload = live.respond(method, endpoint, params)
        except (ValueError, TimeoutError) as exc:
            code, payload = 400, {"error": str(exc) or type(exc).__name__}
        except Exception as exc:  # repro-lint: ignore[broad-except] request isolation: a failing route answers 500 and the server keeps serving
            code, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._reply(code, payload)
        if live.on_request is not None:
            live.on_request(endpoint, code, time.perf_counter() - start)

    def _reply(self, code: int, payload: object) -> None:
        if isinstance(payload, str):
            content_type, body = _TEXT, payload
        else:
            content_type, body = _JSON, json.dumps(payload, indent=2) + "\n"
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover  # repro-lint: ignore[silent-except] client hung up mid-reply; nothing to do
            pass

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (the run owns the console)."""


class LiveServer:
    """Background HTTP endpoint bound to one observer.

    ``start()`` binds the socket (resolving an ephemeral port request)
    and serves from a daemon thread, one handler thread per connection;
    ``stop()`` shuts the server down and joins the thread.  The bound
    address is available as :attr:`address` the moment ``start()``
    returns, which is what ``DIR/live.json`` records for scrapers when
    ``live=:0`` asked for an ephemeral port.

    The endpoints are the :attr:`routes` table, which an owner extends:
    ``repro.serve`` mounts its lookup and membership API here, replaces
    :attr:`health` with a document that carries its serving block, and
    counts every request through :attr:`on_request`.  The lifecycle is
    reusable: ``start()`` after ``stop()`` re-binds — an ephemeral
    ``:0`` request resolves to a *fresh* kernel-assigned port each time
    — ``stop()`` is idempotent, ``start()`` on a running server is a
    no-op, and a bind failure (port already in use) surfaces as
    :class:`OSError` naming the requested address instead of a
    half-started server.
    """

    def __init__(
        self,
        observer: "Observer",
        address: object = ":0",
        *,
        status: LiveStatus | None = None,
    ) -> None:
        self.observer = observer
        self.host, self.port = parse_address(address)
        #: The port as *requested* (0 = ephemeral); ``start()`` always
        #: re-resolves from this, so stop/start cycles on ``:0`` never
        #: fight over a previously assigned port.
        self._requested_port = self.port
        self.status = status if status is not None else LiveStatus()
        #: ``path -> (method, route)``; the index lists every entry.
        self.routes: dict[str, tuple[str, Route]] = {
            "/": ("GET", self._index),
            "/metrics": ("GET", self._metrics),
            "/health": ("GET", self._health),
            "/healthz": ("GET", self._health),
        }
        #: Builds the ``/health`` document.
        self.health: Callable[[], dict[str, object]] = lambda: self.status.health(
            observer
        )
        #: Called after every reply with ``(endpoint, code, seconds)``.
        self.on_request: Callable[[str, int, float], None] | None = None
        self._httpd: _LiveHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        """Whether the server currently holds a bound, serving socket."""
        return self._httpd is not None

    def start(self) -> "LiveServer":
        """Bind and serve in the background; returns self (idempotent)."""
        if self._httpd is not None:
            return self
        try:
            httpd = _LiveHTTPServer((self.host, self._requested_port), _Handler)
        except OSError as exc:
            raise OSError(
                f"HTTP endpoint could not bind "
                f"{self.host}:{self._requested_port}: {exc}"
            ) from exc
        httpd.live = self
        self.port = int(httpd.server_address[1])
        thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-obs-live",
            daemon=True,
        )
        thread.start()
        self._httpd = httpd
        self._thread = thread
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.address}"

    def stop(self) -> None:
        """Shut down and join the serving thread (idempotent)."""
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def respond(
        self, method: str, path: str, params: dict[str, str]
    ) -> tuple[int, object]:
        """Answer one request from :attr:`routes`: 404 or 405 on a miss."""
        try:
            allowed, route = self.routes[path]
        except KeyError:
            return 404, {"error": f"no such endpoint {path!r}"}
        if method != allowed:
            return 405, {"error": f"{allowed} only"}
        return route(params)

    def _index(self, params: dict[str, str]) -> tuple[int, object]:
        lines = [f"  {method:<4} {path}" for path, (method, _) in sorted(self.routes.items())]
        return 200, "repro HTTP endpoint\n" + "\n".join(lines) + "\n"

    def _metrics(self, params: dict[str, str]) -> tuple[int, object]:
        self.status.touch()
        self.status.scrapes += 1
        text = render_metrics(self.observer)
        if text is None:
            return 503, {"error": "scrape retry exhausted"}
        return 200, text

    def _health(self, params: dict[str, str]) -> tuple[int, object]:
        self.status.touch()
        self.status.health_requests += 1
        return 200, self.health()

    def summary(self) -> dict[str, object]:
        """The manifest's ``live`` block (schema v2)."""
        status = self.status
        return {
            "address": self.address,
            "scrapes": status.scrapes,
            "health_requests": status.health_requests,
            "probes": len(status._probe_history),
        }
