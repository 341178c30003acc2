"""``repro serve [k=v ...]`` — boot the overlay service from the shell.

Parameters follow the ``repro run`` key=value convention::

    repro serve n=4096 topology=stable engine=fast api=:8080 metrics=:9099
    repro serve n=2048 engine=sharded shards=4 obs=serve-run api=:0
    repro serve n=512 topology=random_tree duration=30

Keys: ``n``, ``topology`` (``stable`` or a generator name), ``engine``
(``fast``/``sharded``), ``shards``, ``seed``, ``api`` and ``metrics``
(``:PORT`` / ``HOST:PORT``; ``:0`` asks for an ephemeral
port), ``obs=DIR`` (full artifact set + ``DIR/serve.json`` announcing
the bound addresses), ``pace`` (seconds slept per round), ``rounds``
(stop stepping after that many; the last view keeps serving),
``duration`` (seconds to serve; 0 = until ``POST /shutdown`` or
Ctrl-C), ``sanitize=1`` (run the engine under the flow sanitizer).

The process blocks while serving and exits cleanly on ``/shutdown``,
SIGINT, or when *duration* elapses; teardown stops the API, the engine
thread and telemetry, then prints a one-line traffic summary.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence

__all__ = ["main"]

_KNOWN = {
    "n", "topology", "engine", "shards", "seed", "api", "metrics",
    "obs", "pace", "rounds", "duration", "sanitize",
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro serve``."""
    from repro.cli import _door_error, _parse_params
    from repro.serve.service import SERVED_ENGINES, build_service

    params = _parse_params(list(argv or ()))
    unknown = set(params) - _KNOWN
    if unknown:
        print(f"unknown serve parameter(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    refusal = _door_error("serve", params, SERVED_ENGINES)
    if refusal is not None:
        print(refusal, file=sys.stderr)
        return 2
    duration = float(params.pop("duration", 0) or 0)
    obs_dir = params.pop("obs", None)
    rounds = params.pop("rounds", None)
    sanitize = params.pop("sanitize", None)
    service = build_service(
        n=int(params.pop("n", 4096)),
        topology=str(params.pop("topology", "stable")),
        engine=str(params.pop("engine", "fast")),
        shards=int(params.pop("shards", 2)),
        seed=int(params.pop("seed", 7)),
        api=params.pop("api", ":0"),
        metrics=params.pop("metrics", ":0"),
        obs_dir=None if obs_dir is None else str(obs_dir),
        pace=float(params.pop("pace", 0.0)),
        max_rounds=None if rounds is None else int(rounds),
        sanitize=None if sanitize is None else bool(sanitize),
    )
    service.start()
    try:
        print(f"serving overlay API on {service.api_url}")
        print(f"telemetry (/metrics, /health) on {service.live.url}")
        if obs_dir is not None:
            announce = os.path.join(str(obs_dir), "serve.json")
            service.announce(announce)
            print(f"(addresses recorded in {announce})")
        sys.stdout.flush()
        _wait(service, duration)
    except KeyboardInterrupt:
        print("interrupted; draining", file=sys.stderr)
    finally:
        registry = service.observer.registry
        lookups = registry.counter("serve_lookups_total").total()
        membership = registry.counter("serve_membership_total").total()
        rounds_run = service.host.rounds_run
        service.stop()
        print(
            f"served {int(lookups)} lookups, {int(membership)} membership "
            f"ops over {rounds_run} rounds"
        )
    return 0


def _wait(service: object, duration: float) -> None:
    """Block until shutdown is requested or *duration* elapses."""
    import time

    shutdown = service.shutdown_requested  # type: ignore[attr-defined]
    deadline = time.monotonic() + duration if duration > 0 else None
    while not shutdown.wait(timeout=0.2):
        if deadline is not None and time.monotonic() >= deadline:
            return
