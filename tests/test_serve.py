"""Overlay-as-a-service (ISSUE 10): host, HTTP API, load harness, SLO docs.

End-to-end coverage of :mod:`repro.serve`:

* the engine host — background convergence, queued join/leave batches,
  live storms from the ``STORMS`` registry, idempotent lifecycle;
* the HTTP API mounted on the ``repro.obs.live`` endpoint — lookups with
  traces, membership, ``/metrics`` + ``/health`` on the one port,
  shutdown, error codes, request isolation and the read timeout;
* a sanitized serve run (the snapshot path must be invisible to the
  flow sanitizer), and the service refusing every engine but ``fast``;
* the Zipf load harness (in-process and over-the-wire) feeding
  validated SLO summaries, plus the ``repro serve`` CLI with its
  ``serve.json``/manifest artifacts.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.manifest import validate_manifest
from repro.serve.load import run_load, run_load_http, zipf_ranks
from repro.serve.service import build_service
from repro.serve.slo import build_slo_summary, hop_bound, validate_slo_summary

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def _get(url: str, timeout: float = 10.0) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url: str, timeout: float = 30.0) -> tuple[int, dict]:
    request = urllib.request.Request(url, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


@pytest.fixture(scope="module")
def service():
    """One shared converged n=256 service for the read-mostly tests."""
    svc = build_service(n=256, seed=3)
    svc.start()
    assert svc.host.wait_converged(timeout=60)
    yield svc
    svc.stop()


# ----------------------------------------------------------------------
# Zipf workload shape
# ----------------------------------------------------------------------
class TestZipfRanks:
    def test_bounds_and_determinism(self):
        a = zipf_ranks(np.random.default_rng(4), 100, 5000, 1.1)
        b = zipf_ranks(np.random.default_rng(4), 100, 5000, 1.1)
        assert a.min() >= 0 and a.max() < 100
        np.testing.assert_array_equal(a, b)

    def test_skew(self):
        ranks = zipf_ranks(np.random.default_rng(7), 1000, 20000, 1.1)
        counts = np.bincount(ranks, minlength=1000)
        # The hottest id must dwarf the uniform expectation (20 hits).
        assert counts.max() > 200

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            zipf_ranks(np.random.default_rng(0), 0, 10)


# ----------------------------------------------------------------------
# HTTP API surface
# ----------------------------------------------------------------------
class TestServiceHTTP:
    def test_health_on_api_port(self, service):
        code, doc = _get(service.api_url + "/health")
        assert code == 200
        # The live health doc with the serving block on top.
        assert doc["n"] == service.host.view.n
        assert doc["experiment"] == "serve"
        assert doc["serve"]["api"] == service.api_address
        assert doc["serve"]["converged"] is True
        assert doc["serve"]["view_n"] == doc["n"]
        assert doc["serve"]["error"] is None

    def test_metrics_on_api_port(self, service):
        from repro.obs.exporters import validate_prometheus_text

        service.lookup_batch(service.sample_ids(8))
        with urllib.request.urlopen(service.api_url + "/metrics", timeout=10) as r:
            assert r.headers["Content-Type"].startswith("text/plain")
            text = r.read().decode("utf-8")
        assert "repro_serve_lookups_total" in text
        assert "repro_serve_lookup_hops" in text
        assert "repro_serve_requests_total" in text
        assert validate_prometheus_text(text) == []

    def test_lookup_with_trace(self, service):
        _, ids = _get(service.api_url + "/ids?k=4")
        target = ids["ids"][0]
        code, doc = _get(f"{service.api_url}/lookup?target={target!r}&trace=1")
        assert code == 200
        assert doc["found"] and doc["ok"]
        assert doc["path"][-1] == target
        assert len(doc["path"]) == doc["hops"] + 1

    def test_lookup_unknown_target(self, service):
        code, doc = _get(f"{service.api_url}/lookup?target=2.5")
        assert code == 200
        assert doc["found"] is False and doc["ok"] is False

    def test_lookup_from_non_member_source_is_unknown(self, service):
        lookups = service.observer.registry.counter("serve_lookups_total")

        def lost() -> float:
            # Lost lookups count under one series per reason.
            return sum(
                value
                for labels, value in lookups.samples()
                if labels["outcome"] == "lost"
            )

        lost0 = lost()
        unknown0 = lookups.value(outcome="unknown")
        target = float(service.host.view.ids[0])
        code, doc = _get(f"{service.api_url}/lookup?target={target!r}&source=2.5")
        assert code == 200
        assert doc["found"] is False and doc["ok"] is False
        assert doc["lost_reason"] is None
        assert lost() == lost0
        assert lookups.value(outcome="unknown") == unknown0 + 1

    def test_lookup_requires_target(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service.api_url + "/lookup")
        assert err.value.code == 400

    def test_unknown_path_and_bad_method(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service.api_url + "/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(service.api_url + "/lookup?target=0.5")
        assert err.value.code == 405

    def test_bad_parameter_is_client_error(self, service):
        for path in ("/lookup?target=abc", "/ids?k=0", "/ids?k=x"):
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(service.api_url + path)
            assert err.value.code == 400, path

    def test_failing_route_answers_500_and_server_keeps_serving(
        self, service, monkeypatch
    ):
        def boom(params):
            raise KeyError("route bug")

        monkeypatch.setitem(service.live.routes, "/boom", ("GET", boom))
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(service.api_url + "/boom")
        assert err.value.code == 500
        assert "KeyError" in json.loads(err.value.read().decode("utf-8"))["error"]
        code, _ = _get(service.api_url + "/ids?k=1")
        assert code == 200

    def test_stalled_client_does_not_delay_lookup(self, service):
        target = float(service.host.view.ids[0])
        with socket.create_connection(
            (service.live.host, service.live.port), timeout=10
        ) as stalled:
            stalled.sendall(b"GET /lookup")  # no line end: the request never completes
            code, doc = _get(f"{service.api_url}/lookup?target={target!r}", timeout=5)
        assert code == 200 and doc["ok"] is True

    def test_concurrent_lookups_lose_no_count(self):
        # Handler threads share the serve_* series; a lost update under
        # a short switch interval would break the exact totals.  The
        # service is this test's own: the shared one may still count an
        # earlier test's request after the baselines are read.
        service = build_service(n=256, seed=3)
        service.start()
        try:
            assert service.host.wait_converged(timeout=60)
            registry = service.observer.registry
            lookups = registry.counter("serve_lookups_total")
            requests = registry.counter("serve_requests_total")
            lookups0 = lookups.total()
            requests0 = requests.value(endpoint="/lookup", code=200)
            urls = [
                f"{service.api_url}/lookup?target={target!r}"
                for target in service.sample_ids(8).tolist() * 20
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                    codes = [code for code, _ in pool.map(_get, urls)]
            finally:
                sys.setswitchinterval(interval)
            assert codes == [200] * len(urls)
            assert lookups.total() == lookups0 + len(urls)
            # A request is counted just after its reply is written.
            deadline = time.monotonic() + 5
            while (
                requests.value(endpoint="/lookup", code=200)
                < requests0 + len(urls)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert (
                requests.value(endpoint="/lookup", code=200)
                == requests0 + len(urls)
            )
        finally:
            service.stop()

    def test_join_and_leave_roundtrip(self, service):
        n0 = service.host.view.n
        code, doc = _post(service.api_url + "/join?ids=0.123456789,0.987654321")
        assert code == 200 and doc["joined"] == 2
        assert service.host.wait_converged(timeout=60)
        assert service.host.view.n == n0 + 2
        code, doc = _post(service.api_url + "/leave?ids=0.123456789,0.987654321")
        assert code == 200 and doc["left"] == 2
        assert service.host.wait_converged(timeout=60)
        assert service.host.view.n == n0

    def test_join_rejects_bad_ids(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(service.api_url + "/join?ids=1.5")
        assert err.value.code == 400

    def test_leave_duplicate_ids_is_client_error(self, service):
        # leave_batch raises KeyError for in-batch duplicates; the HTTP
        # surface must answer 400 (client data), never 500.  /ids samples
        # with replacement, so real clients can produce exactly this.
        live = float(service.host.view.ids[0])
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(service.api_url + f"/leave?ids={live!r},{live!r}")
        assert err.value.code == 400
        assert "duplicate" in json.loads(err.value.read().decode("utf-8"))["error"]

    def test_leave_unknown_id_is_client_error(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(service.api_url + "/leave?ids=0.42424242424242")
        assert err.value.code == 400

    def test_index_lists_endpoints(self, service):
        with urllib.request.urlopen(service.api_url + "/", timeout=10) as r:
            assert r.status == 200
            text = r.read().decode("utf-8")
        assert "/lookup" in text and "/join" in text


# ----------------------------------------------------------------------
# In-process lookups and live storms
# ----------------------------------------------------------------------
class TestLookupsAndStorms:
    def test_lookup_batch_draws_sources_uniformly(self, service):
        targets = service.sample_ids(64)
        outcome = service.lookup_batch(targets, rng=np.random.default_rng(8))
        assert outcome.ok.all()
        assert len(set(outcome.source_ids.tolist())) > 16

    def test_converged_hops_under_lemma_bound(self, service):
        outcome = service.lookup_batch(
            service.sample_ids(512), rng=np.random.default_rng(9)
        )
        assert outcome.ok.all()
        assert outcome.hops.mean() <= hop_bound(service.host.view.n)

    def test_every_canonical_storm_fires_live(self, service):
        from repro.churn.storms import STORMS

        # One storm at a time, reconverging between drills: recovery is
        # only guaranteed from a weakly connected state, and stacking a
        # departure storm on a mid-linearization flash crowd can orphan
        # newcomers whose only contact just left.
        for storm in sorted(STORMS):
            assert service.host.fire_storm(storm, seed=2).result(timeout=60)
            assert service.host.wait_converged(timeout=120), storm
        assert service.host.error is None

    def test_unknown_storm_rejected_synchronously(self, service):
        with pytest.raises(ValueError, match="earthquake"):
            service.host.fire_storm("earthquake")


# ----------------------------------------------------------------------
# Engine variants: sanitized, and the engines the service refuses
# ----------------------------------------------------------------------
class TestEngineVariants:
    def test_sanitized_serve_run_is_clean(self):
        svc = build_service(n=96, seed=5, sanitize=True, check_every=4)
        svc.start()
        try:
            assert svc.host.wait_converged(timeout=120)
            report = run_load(svc, lookups=500, latency_samples=16, seed=1)
            assert report.ok == report.lookups
            svc.host.submit_join(
                np.asarray([0.111222333]), np.asarray([svc.sample_ids(1)[0]])
            ).result(timeout=60)
            assert svc.host.wait_converged(timeout=120)
        finally:
            svc.stop()
        assert svc.host.error is None

    @pytest.mark.parametrize("engine", ["sharded", "reference"])
    def test_only_the_fast_engine_is_served(self, engine):
        with pytest.raises(ValueError, match="expected one of fast$"):
            build_service(n=64, engine=engine)

    def test_service_start_stop_idempotent(self):
        svc = build_service(n=64, seed=4)
        svc.start()
        svc.start()  # second start is a no-op
        assert svc.host.running
        svc.stop()
        svc.stop()
        assert not svc.host.running

    def test_host_serves_on_the_writer_schedule(self):
        """The engine thread plans the writer schedule like any batched run
        (docs/SERVING.md): no wave fault while it serves, and the same
        states, message count and generator state as an unserved engine."""
        served = build_service(n=128, topology="line", seed=9, max_rounds=12)
        engine = served.host.sim.engine
        served.start()
        try:
            assert engine._wave_fault is None
            assert served.host.wait_finished(timeout=120)
        finally:
            served.stop()
        assert served.host.error is None
        assert engine._wave_fault is None

        plain = build_service(n=128, topology="line", seed=9).host.sim
        for _ in range(12):
            plain.step_round()
        assert plain.state_snapshot() == served.host.sim.state_snapshot()
        assert plain.engine.stats.total == engine.stats.total
        assert (
            plain.rng.bit_generator.state
            == served.host.sim.rng.bit_generator.state
        )


# ----------------------------------------------------------------------
# Load harness → SLO summary
# ----------------------------------------------------------------------
class TestLoadAndSLO:
    def test_run_load_accounting_and_samples(self, service):
        report = run_load(
            service, lookups=3000, latency_samples=64, batch=512, seed=3
        )
        assert report.lookups >= 3000
        assert report.ok + report.lost + report.unknown == report.lookups
        assert report.latency_samples == 64
        assert report.p50_latency_s <= report.p99_latency_s
        assert report.throughput_lps > 0

    def test_run_load_http_with_churn_burst(self, service):
        report = run_load_http(
            service.api_url,
            lookups=200,
            concurrency=8,
            seed=1,
            join_burst=8,
            leave_burst=4,
            population=128,
            phase="converged",
        )
        assert report.ok + report.lost + report.unknown == report.lookups == 200
        assert report.latency_samples == 200
        summary = build_slo_summary(
            n=service.host.view.n,
            engine="http",
            zipf_s=1.1,
            storm=None,
            phases=[report.row()],
        )
        assert validate_slo_summary(summary) == []

    def test_slo_summary_round_trip(self, service):
        converged = run_load(
            service, lookups=800, latency_samples=32, seed=4, phase="converged"
        )
        storm = run_load(
            service, lookups=400, latency_samples=32, seed=5, phase="storm"
        )
        summary = build_slo_summary(
            n=service.host.view.n,
            engine="fast",
            zipf_s=1.1,
            storm="flash_crowd",
            phases=[converged.row(), storm.row()],
        )
        assert validate_slo_summary(summary) == []
        assert summary["phases"][0]["bound_ok"] is True

    def test_validate_catches_broken_summaries(self):
        good = build_slo_summary(
            n=128,
            engine="fast",
            zipf_s=1.1,
            storm=None,
            phases=[
                {
                    "phase": "converged",
                    "lookups": 10,
                    "ok": 10,
                    "lost": 0,
                    "unknown": 0,
                    "p50_hops": 3.0,
                    "p99_hops": 6.0,
                    "max_hops": 7,
                    "p50_latency_s": 0.001,
                    "p99_latency_s": 0.002,
                    "latency_samples": 4,
                    "duration_s": 1.0,
                    "throughput_lps": 10.0,
                    "rounds": 5,
                    "rounds_per_sec": 5.0,
                }
            ],
        )
        assert validate_slo_summary(good) == []

        missing_converged = json.loads(json.dumps(good))
        missing_converged["phases"][0]["phase"] = "warmup"
        assert any(
            "converged" in p for p in validate_slo_summary(missing_converged)
        )

        bad_counts = json.loads(json.dumps(good))
        bad_counts["phases"][0]["ok"] = 3
        assert validate_slo_summary(bad_counts)

        inverted = json.loads(json.dumps(good))
        inverted["phases"][0]["p50_hops"] = 99.0
        assert validate_slo_summary(inverted)

        violated = json.loads(json.dumps(good))
        violated["phases"][0]["p99_hops"] = 1e9
        violated["phases"][0]["p50_hops"] = 1.0
        violated["phases"][0]["bound_ok"] = False
        assert any(
            "bound" in p for p in validate_slo_summary(violated)
        )

    def test_hop_bound_shape(self):
        assert hop_bound(1) == pytest.approx(4.0)
        assert hop_bound(1024) > hop_bound(64) > hop_bound(2)
        assert hop_bound(49152) == pytest.approx(
            4.0 * np.log(49152) ** 2.1, rel=1e-9
        )


# ----------------------------------------------------------------------
# Shutdown, announce, CLI, observability artifacts
# ----------------------------------------------------------------------
class TestLifecycleAndCLI:
    def test_http_shutdown_sets_event(self):
        svc = build_service(n=64, seed=10)
        svc.start()
        try:
            code, doc = _post(svc.api_url + "/shutdown")
            assert code == 200 and doc["ok"] is True
            assert svc.shutdown_requested.wait(timeout=5)
        finally:
            svc.stop()

    def test_announce_file(self, tmp_path):
        svc = build_service(n=64, seed=11)
        svc.start()
        try:
            path = tmp_path / "serve.json"
            svc.announce(str(path))
            doc = json.loads(path.read_text())
            assert doc == {
                "api": svc.api_address, "api_url": svc.api_url, "pid": os.getpid()
            }
        finally:
            svc.stop()

    def test_cli_serves_and_writes_artifacts(self, tmp_path, capsys):
        from repro.serve.cli import main as serve_main

        obs_dir = tmp_path / "run"
        holder: dict[str, int] = {}

        def run() -> None:
            holder["code"] = serve_main(
                [f"obs={obs_dir}", "n=96", "duration=120", "seed=12"]
            )

        thread = threading.Thread(target=run)
        thread.start()
        announce = obs_dir / "serve.json"
        deadline = 30.0
        start = time.monotonic()
        while not announce.exists() and time.monotonic() - start < deadline:
            time.sleep(0.05)
        assert announce.exists(), "serve.json never appeared"
        doc = json.loads(announce.read_text())
        code, health = _get(doc["api_url"] + "/health")
        assert code == 200 and health["experiment"] == "serve"
        _get(doc["api_url"] + f"/lookup?target={health['serve']['view_n']}")
        _post(doc["api_url"] + "/shutdown")
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert holder["code"] == 0
        out = capsys.readouterr().out
        assert "serving overlay API" in out
        assert "served" in out

        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert validate_manifest(manifest) == []
        prom = (obs_dir / "metrics.prom").read_text()
        assert "repro_serve_lookups_total" in prom

    def test_cli_rejects_unknown_params(self, capsys):
        from repro.serve.cli import main as serve_main

        assert serve_main(["bogus=1"]) == 2
        assert "unknown serve parameter" in capsys.readouterr().err
        assert serve_main(["shards=2"]) == 2
        assert "unknown serve parameter(s): ['shards']" in capsys.readouterr().err

    def test_cli_has_no_second_port(self, capsys):
        from repro.serve.cli import main as serve_main

        assert serve_main(["metrics=:0"]) == 2
        assert "unknown serve parameter(s): ['metrics']" in capsys.readouterr().err

    def test_stop_closes_the_one_port_and_its_threads(self):
        before = set(threading.enumerate())
        svc = build_service(n=64, seed=13)
        svc.start()
        try:
            started = [
                t for t in set(threading.enumerate()) - before
                if t.name.startswith("repro-")
            ]
            address = (svc.live.host, svc.live.port)
            code, _ = _get(svc.api_url + "/health")
            assert code == 200
        finally:
            svc.stop()
        # One listening socket, served by one thread next to the engine's.
        assert sorted(t.name for t in started) == [
            "repro-obs-live", "repro-serve-engine"
        ]
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()
        assert not [t for t in started if t.is_alive()]

    def test_repro_cli_dispatches_serve(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["serve", "nope=1"]) == 2
        assert "unknown serve parameter" in capsys.readouterr().err
