"""Zipf-skewed load generation against an :class:`OverlayService`.

Real lookup traffic is never uniform — a few keys are hot — so the load
harness draws targets from a Zipf(s) popularity law over the live id
space (inverse-CDF sampling over the normalized ``k^-s`` weights, with
a seeded permutation deciding *which* ids are popular) and sources
uniformly.  Two drivers share that workload shape:

* :func:`run_load` — in-process: batches straight into
  :meth:`OverlayService.lookup_batch` while the engine keeps converging
  (and storms keep firing) underneath.  This is how a recorded SLO run
  reaches 10^6 lookups; per-request latency is measured on an
  interleaved sample of individually timed single lookups so the batch
  fast-path stays hot.
* :func:`run_load_http` — over the wire: stdlib ``urllib`` requests
  against a running ``repro serve`` endpoint from a thread pool, with
  an optional join/leave burst mid-stream.  CI's ``serve-smoke`` uses
  this to prove the full HTTP path under concurrent churn.

Both produce :class:`LoadReport` rows that drop into
:func:`repro.serve.slo.build_slo_summary`.

Run it as a module against a live endpoint::

    python -m repro.serve.load --url http://127.0.0.1:PORT \
        --lookups 1000 --join-burst 32 --leave-burst 16
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
import urllib.request
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.serve.slo import build_slo_summary, validate_slo_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.service import LookupOutcome, OverlayService

__all__ = ["HopHistogram", "LoadReport", "run_load", "run_load_http", "zipf_ranks"]


def zipf_ranks(
    rng: np.random.Generator, n: int, k: int, s: float = 1.1
) -> np.ndarray:
    """Draw *k* ranks in ``[0, n)`` from a Zipf(*s*) popularity law.

    Popularity rank is decoupled from id rank by a seeded permutation of
    the id space (drawn from *rng*), so the hot set is scattered around
    the ring instead of clustering at one end.
    """
    if n < 1:
        raise ValueError("zipf_ranks needs a non-empty population")
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    popularity = np.searchsorted(cdf, rng.random(k), side="right")
    permutation = rng.permutation(n)
    return permutation[np.minimum(popularity, n - 1)]


@dataclass
class LoadReport:
    """One load phase, aggregated: counts, percentiles, throughput."""

    phase: str
    lookups: int
    ok: int
    lost: int
    unknown: int
    p50_hops: float
    p99_hops: float
    max_hops: int
    p50_latency_s: float
    p99_latency_s: float
    latency_samples: int
    duration_s: float
    throughput_lps: float
    rounds: int
    rounds_per_sec: float

    def row(self) -> dict[str, object]:
        """The phase row :func:`build_slo_summary` consumes."""
        return {
            "phase": self.phase,
            "lookups": self.lookups,
            "ok": self.ok,
            "lost": self.lost,
            "unknown": self.unknown,
            "p50_hops": self.p50_hops,
            "p99_hops": self.p99_hops,
            "max_hops": self.max_hops,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "latency_samples": self.latency_samples,
            "duration_s": self.duration_s,
            "throughput_lps": self.throughput_lps,
            "rounds": self.rounds,
            "rounds_per_sec": self.rounds_per_sec,
        }


class HopHistogram:
    """Hop counts of the ok lookups of one phase, as a count per hop value.

    A driver folds each batch in as it lands, so what it keeps is O(max
    hops) however many lookups it issues.  :meth:`summary` reads the same
    p50/p99/max as ``np.percentile``/``max`` over every hop kept.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, hops: "np.ndarray | Sequence[int]") -> None:
        """Fold a batch of (non-negative) hop counts in."""
        binned = np.bincount(hops)
        if len(binned) > len(self.counts):
            binned[: len(self.counts)] += self.counts
            self.counts = binned
        else:
            self.counts[: len(binned)] += binned

    def summary(self) -> tuple[float, float, int]:
        """p50, p99 and max hops; ``0.0, 0.0, 0`` when nothing was added."""
        cumulative = np.cumsum(self.counts)
        if not cumulative.size or not cumulative[-1]:
            return 0.0, 0.0, 0
        return (
            _sorted_percentile(cumulative, 50),
            _sorted_percentile(cumulative, 99),
            int(np.flatnonzero(self.counts)[-1]),
        )


def _sorted_percentile(cumulative: np.ndarray, q: float) -> float:
    """``np.percentile``'s default (linear) rule, read off the cumulative
    counts of non-negative integers: the two order statistics either side
    of the virtual index, interpolated as ``numpy`` interpolates them."""
    total = int(cumulative[-1])
    index = (total - 1) * (q / 100)
    below = math.floor(index)
    gamma = index - below
    # The value at sorted position p is the first one whose count passes p.
    lo, hi = np.searchsorted(
        cumulative, [below, min(below + 1, total - 1)], side="right"
    ).tolist()
    diff = hi - lo
    return lo + diff * gamma if gamma < 0.5 else hi - diff * (1 - gamma)


def _latency_percentiles(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    return float(np.percentile(values, 50)), float(np.percentile(values, 99))


def run_load(
    service: "OverlayService",
    *,
    lookups: int = 10_000,
    zipf_s: float = 1.1,
    batch: int = 4096,
    latency_samples: int = 2048,
    seed: int = 0,
    phase: str = "load",
) -> LoadReport:
    """Drive *lookups* Zipf-skewed lookups through the in-process API.

    Targets are redrawn against the *current* view every batch, so the
    workload follows joins, leaves and storms as they land.  Every
    ``lookups // latency_samples``-th request is additionally issued as
    an individually timed single lookup — those samples are what the
    latency percentiles report (batch amortization would otherwise
    flatter them).
    """
    if lookups < 1:
        raise ValueError("run_load needs at least one lookup")
    rng = np.random.default_rng([seed, 0x5E12])
    hops = HopHistogram()
    latencies: list[float] = []
    ok = lost = unknown = issued = 0
    sample_every = max(1, lookups // max(1, latency_samples))
    next_sample = sample_every
    host = service.host
    rounds_start = host.sim.round_index
    start = time.perf_counter()

    def account(outcome: "LookupOutcome", size: int) -> None:
        nonlocal ok, lost, unknown, issued
        batch_ok = int(outcome.ok.sum())
        batch_unknown = int((~outcome.found).sum())
        issued += size
        ok += batch_ok
        unknown += batch_unknown
        lost += size - batch_ok - batch_unknown
        hops.add(outcome.hops[outcome.ok])

    while issued < lookups:
        view = host.view
        if view is None or view.n == 0:
            time.sleep(0.01)
            continue
        size = min(batch, lookups - issued)
        targets = view.ids[zipf_ranks(rng, view.n, size, zipf_s)]
        account(service.lookup_batch(targets, rng=rng), size)
        # A batch can cross several sample thresholds at once; catch up on
        # all of them (capped at the requested sample count) so large
        # batches still yield the full latency sample.
        while issued >= next_sample and len(latencies) < latency_samples:
            next_sample += sample_every
            pick = int(rng.integers(size))
            t0 = time.perf_counter()
            sampled = service.lookup_batch(targets[pick : pick + 1], rng=rng)
            latencies.append(time.perf_counter() - t0)
            account(sampled, 1)
    duration = time.perf_counter() - start
    rounds = host.sim.round_index - rounds_start
    p50_hops, p99_hops, max_hops = hops.summary()
    p50_lat, p99_lat = _latency_percentiles(latencies)
    return LoadReport(
        phase=phase,
        lookups=issued,
        ok=ok,
        lost=lost,
        unknown=unknown,
        p50_hops=p50_hops,
        p99_hops=p99_hops,
        max_hops=max_hops,
        p50_latency_s=p50_lat,
        p99_latency_s=p99_lat,
        latency_samples=len(latencies),
        duration_s=duration,
        throughput_lps=issued / duration if duration > 0 else 0.0,
        rounds=rounds,
        rounds_per_sec=rounds / duration if duration > 0 else 0.0,
    )


def _http_json(url: str, *, method: str = "GET", timeout: float = 30.0) -> dict:
    """One stdlib HTTP request; parse the JSON body."""
    request = urllib.request.Request(url, method=method)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_load_http(
    base_url: str,
    *,
    lookups: int = 1000,
    zipf_s: float = 1.1,
    concurrency: int = 16,
    seed: int = 0,
    join_burst: int = 0,
    leave_burst: int = 0,
    population: int = 512,
    phase: str = "http",
) -> LoadReport:
    """Drive Zipf lookups over the wire against a ``repro serve`` endpoint.

    Fetches an id sample from ``/ids``, builds the Zipf law over it, and
    issues *lookups* ``GET /lookup`` requests from a *concurrency*-wide
    thread pool — every request individually timed, so the latency
    percentiles cover the full HTTP path.  Midway, optionally fires a
    join burst (fresh uniform ids) and a leave burst (sampled live ids)
    through ``POST /join`` / ``POST /leave`` — churn landing between
    lookups, exactly what the serving layer claims to survive.
    """
    if lookups < 1:
        raise ValueError("run_load_http needs at least one lookup")
    base = base_url.rstrip("/")
    rng = np.random.default_rng([seed, 0x5E12B])
    sample = _http_json(f"{base}/ids?k={population}")
    ids = np.asarray(sample["ids"], dtype=np.float64)
    if ids.size == 0:
        raise RuntimeError(f"{base}/ids returned no live ids")
    targets = ids[zipf_ranks(rng, len(ids), lookups, zipf_s)]

    def one_lookup(target: float) -> tuple[bool, bool, int, float]:
        t0 = time.perf_counter()
        doc = _http_json(f"{base}/lookup?target={target!r}")
        dt = time.perf_counter() - t0
        return bool(doc["ok"]), bool(doc["found"]), int(doc["hops"]), dt

    ok = lost = unknown = 0
    hops = HopHistogram()
    latencies: list[float] = []
    burst_at = lookups // 2
    start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=concurrency) as pool:
        pending: list[concurrent.futures.Future[tuple[bool, bool, int, float]]] = []
        for i, target in enumerate(targets.tolist()):
            if i == burst_at and (join_burst or leave_burst):
                _fire_burst(base, rng, join_burst, leave_burst)
            pending.append(pool.submit(one_lookup, target))
        for future in pending:
            got_ok, got_found, got_hops, dt = future.result()
            latencies.append(dt)
            if got_ok:
                ok += 1
                hops.add([got_hops])
            elif got_found:
                lost += 1
            else:
                unknown += 1
    duration = time.perf_counter() - start
    p50_hops, p99_hops, max_hops = hops.summary()
    p50_lat, p99_lat = _latency_percentiles(latencies)
    health = _http_json(f"{base}/health")
    serve_block = health.get("serve", {}) if isinstance(health, dict) else {}
    rps = serve_block.get("rounds_per_sec") or 0.0
    return LoadReport(
        phase=phase,
        lookups=lookups,
        ok=ok,
        lost=lost,
        unknown=unknown,
        p50_hops=p50_hops,
        p99_hops=p99_hops,
        max_hops=max_hops,
        p50_latency_s=p50_lat,
        p99_latency_s=p99_lat,
        latency_samples=len(latencies),
        duration_s=duration,
        throughput_lps=lookups / duration if duration > 0 else 0.0,
        rounds=int(duration * rps),
        rounds_per_sec=float(rps),
    )


def _fire_burst(
    base: str, rng: np.random.Generator, join_burst: int, leave_burst: int
) -> None:
    """POST one join and one leave burst against the live endpoint."""
    if join_burst:
        fresh = rng.random(join_burst)
        joined = _http_json(
            f"{base}/join?ids=" + ",".join(repr(v) for v in fresh.tolist()),
            method="POST",
        )
        if "joined" not in joined:
            raise RuntimeError(f"join burst failed: {joined}")
    if leave_burst:
        # /ids samples with replacement; a duplicate victim would make the
        # leave batch invalid, so dedupe (order-preserving) before posting.
        victims = list(dict.fromkeys(_http_json(f"{base}/ids?k={leave_burst}")["ids"]))
        left = _http_json(
            f"{base}/leave?ids=" + ",".join(repr(v) for v in victims),
            method="POST",
        )
        if "left" not in left:
            raise RuntimeError(f"leave burst failed: {left}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: drive HTTP load and print a validated SLO summary as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True, help="base URL of a repro serve API")
    parser.add_argument("--lookups", type=int, default=1000)
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--join-burst", type=int, default=0)
    parser.add_argument("--leave-burst", type=int, default=0)
    parser.add_argument(
        "--phase",
        default="converged",
        help="phase label for the SLO summary (default: converged)",
    )
    args = parser.parse_args(argv)
    report = run_load_http(
        args.url,
        lookups=args.lookups,
        zipf_s=args.zipf,
        concurrency=args.concurrency,
        seed=args.seed,
        join_burst=args.join_burst,
        leave_burst=args.leave_burst,
        phase=args.phase,
    )
    health = _http_json(f"{args.url.rstrip('/')}/health")
    n = int(health.get("n") or 0) or 1
    summary = build_slo_summary(
        n=n,
        engine="http",
        zipf_s=args.zipf,
        storm=None,
        phases=[report.row()],
    )
    problems = validate_slo_summary(summary)
    print(json.dumps({"summary": summary, "problems": problems}, indent=2))
    if problems:
        print(f"SLO summary invalid: {problems}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by serve-smoke CI
    raise SystemExit(main())
