"""Overlay-as-a-service (ISSUE 10): host, HTTP API, load harness, SLO docs.

End-to-end coverage of :mod:`repro.serve`:

* the engine host — background convergence, queued join/leave batches,
  live storms from the ``STORMS`` registry, idempotent lifecycle;
* the asyncio HTTP API — lookups with traces, membership, the embedded
  ``repro.obs.live`` telemetry (``/metrics`` + ``/health`` on both
  ports), shutdown, error codes;
* a sanitized serve run (the snapshot path must be invisible to the
  flow sanitizer) and a sharded-engine service smoke;
* the Zipf load harness (in-process and over-the-wire) feeding
  validated SLO summaries, plus the ``repro serve`` CLI with its
  ``serve.json``/manifest artifacts.
"""

from __future__ import annotations

import json
import os
import threading
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
    def test_health_on_both_ports(self, service):
        code, doc = _get(service.api_url + "/health")
        assert code == 200
        assert doc["serve"]["converged"] is True
        assert doc["serve"]["view_n"] == doc["n"]
        assert doc["serve"]["error"] is None
        # The embedded obs endpoint serves the standard health doc.
        code, doc = _get(service.live.url + "/health")
        assert code == 200
        assert doc["n"] == service.host.view.n
        assert doc["experiment"] == "serve"

    def test_metrics_on_both_ports(self, service):
        from repro.obs.exporters import validate_prometheus_text

        service.lookup_batch(service.sample_ids(8))
        for base in (service.api_url, service.live.url):
            with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                text = r.read().decode("utf-8")
            assert "repro_serve_lookups_total" in text
            assert "repro_serve_lookup_hops" in text
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
# Engine variants: sanitized and sharded
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

    def test_sharded_service_smoke(self):
        svc = build_service(
            n=192, engine="sharded", shards=3, seed=6, check_every=4
        )
        svc.start()
        try:
            assert svc.host.wait_converged(timeout=120)
            report = run_load(svc, lookups=1000, latency_samples=16, seed=2)
            assert report.ok == report.lookups
            assert svc.host.fire_storm("flash_crowd", seed=1).result(timeout=60)
            assert svc.host.wait_converged(timeout=120)
        finally:
            svc.stop()
        assert svc.host.error is None

    def test_service_start_stop_idempotent(self):
        svc = build_service(n=64, seed=4)
        svc.start()
        svc.start()  # second start is a no-op
        assert svc.host.running
        svc.stop()
        svc.stop()
        assert not svc.host.running

    def test_host_pins_wave_order_while_serving(self):
        """The engine thread dispatches by ``(wave, type)`` (docs/SERVING.md):
        an identity wave fault from start to stop, and the trajectory of
        the writer schedule all the same."""
        served = build_service(n=128, topology="line", seed=9, max_rounds=12)
        engine = served.host.sim.engine
        assert engine._wave_fault is None
        served.start()
        try:
            pin = engine._wave_fault
            assert pin is not None
            groups = [(0, np.arange(3)), (2, np.arange(3, 5))]
            assert pin.rewrite(groups) == (groups, [])
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
            assert doc["api_url"] == svc.api_url
            assert doc["metrics_url"] == svc.live.url
            assert doc["pid"] == os.getpid()
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
        import time

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

    def test_repro_cli_dispatches_serve(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["serve", "nope=1"]) == 2
        assert "unknown serve parameter" in capsys.readouterr().err
