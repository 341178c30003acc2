"""Live telemetry (ISSUE 9): scrape endpoint and phases.

Covers end to end:

* :mod:`repro.obs.live` — address parsing, the background HTTP server
  (``/metrics`` + ``/health``), the throttled convergence probes, and
  the never-perturb contract (bit-identical sharded trajectories with
  the endpoint live and scraped mid-run);
* :mod:`repro.obs.phases` + ``repro obs phases`` — round-phase
  attribution over the recorded manifest, with the ≥95% gate;
* the manifest v2 ``live`` block, and v2 as the only schema accepted.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig
from repro.experiments.common import ExperimentResult
from repro.obs.cli import main as obs_main
from repro.obs.exporters import prometheus_text
from repro.obs.harness import instrumented_run
from repro.obs.live import LiveServer, LiveStatus, parse_address
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    validate_manifest,
)
from repro.obs.observer import Observer
from repro.obs.runtime import activated, active
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import TOPOLOGIES

N = 48
ROUNDS = 30


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


def _sim(seed: int, *, n: int = N, **options):
    rng = np.random.default_rng(seed)
    states = TOPOLOGIES["random_tree"](n, rng)
    sim = FastSimulator.from_states(states, ProtocolConfig(), rng=rng, **options)
    return sim, rng


# ----------------------------------------------------------------------
# parse_address
# ----------------------------------------------------------------------
class TestParseAddress:
    def test_forms(self):
        assert parse_address(9099) == ("127.0.0.1", 9099)
        assert parse_address(":0") == ("127.0.0.1", 0)
        assert parse_address("9100") == ("127.0.0.1", 9100)
        assert parse_address("0.0.0.0:9101") == ("0.0.0.0", 9101)
        assert parse_address(":") == ("127.0.0.1", 0)

    def test_rejects_garbage_and_range(self):
        # The messages name no parameter: live= and api= share the parser.
        with pytest.raises(ValueError, match="^address needs ':PORT' or 'HOST:PORT'"):
            parse_address("localhost:web")
        with pytest.raises(ValueError, match="^address port out of range"):
            parse_address(":70000")
        with pytest.raises(ValueError, match="out of range"):
            parse_address(-1)


# ----------------------------------------------------------------------
# LiveServer: routing, scrape validity, lifecycle
# ----------------------------------------------------------------------
class TestLiveServer:
    def test_serves_metrics_health_and_index(self):
        from repro.obs.exporters import validate_prometheus_text

        observer = Observer(experiment="live-unit")
        observer.registry.counter("messages_total", "x").inc(3, engine="fast")
        server = LiveServer(observer, ":0").start()
        try:
            assert server.address.startswith("127.0.0.1:")
            code, text = _get(server.url + "/metrics")
            assert code == 200
            assert "repro_messages_total" in text
            assert validate_prometheus_text(text) == []

            code, body = _get(server.url + "/health")
            assert code == 200
            doc = json.loads(body)
            assert doc["experiment"] == "live-unit"
            assert doc["finished"] is False
            assert doc["round"] == 0

            code, body = _get(server.url + "/")
            assert code == 200 and "/metrics" in body
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/nope")
            assert err.value.code == 404

            assert server.status.scrapes == 1
            assert server.status.health_requests == 1
            summary = server.summary()
            assert summary["address"] == server.address
            assert summary["scrapes"] == 1
        finally:
            server.stop()
        server.stop()  # idempotent

    def test_ephemeral_port_resolved_on_start(self):
        server = LiveServer(Observer(), ":0")
        assert server.port == 0
        server.start()
        try:
            assert server.port != 0
        finally:
            server.stop()

    def test_restart_rebinds_fresh_ephemeral_port(self):
        server = LiveServer(Observer(), ":0")
        server.start()
        assert server.running
        server.stop()
        assert not server.running
        # Restart re-resolves the *requested* port (0), not the stale bind.
        server.start()
        try:
            assert server.running and server.port != 0
            code, _ = _get(server.url + "/health")
            assert code == 200
        finally:
            server.stop()

    def test_stop_is_idempotent_even_before_start(self):
        server = LiveServer(Observer(), ":0")
        server.stop()  # never started: no-op
        server.start()
        server.stop()
        server.stop()
        assert not server.running

    def test_port_in_use_raises_descriptive_oserror(self):
        first = LiveServer(Observer(), ":0").start()
        try:
            clash = LiveServer(Observer(), f"127.0.0.1:{first.port}")
            with pytest.raises(OSError, match="could not bind"):
                clash.start()
            assert not clash.running
        finally:
            first.stop()

    def test_stalled_connection_is_closed_after_read_timeout(self, monkeypatch):
        from repro.obs import live

        # A connection that never sends its request must not hold a
        # handler thread for ever.
        assert live._Handler.timeout == 10.0
        monkeypatch.setattr(live._Handler, "timeout", 0.5)
        server = LiveServer(Observer(), ":0").start()
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as stalled:
                start = time.monotonic()
                code, _ = _get(server.url + "/health")
                assert code == 200
                assert stalled.recv(1) == b""  # the server hung up
                assert time.monotonic() - start < 5
        finally:
            server.stop()

    def test_mounted_routes_and_methods(self):
        server = LiveServer(Observer(), ":0")
        server.routes["/echo"] = ("POST", lambda params: (200, params))
        server.start()
        try:
            request = urllib.request.Request(
                server.url + "/echo?a=1", data=b"b=2", method="POST"
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read()) == {"a": "1", "b": "2"}
            code, body = _get(server.url + "/")
            assert code == 200 and "POST /echo" in body
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/echo")
            assert err.value.code == 405
            request = urllib.request.Request(server.url + "/metrics", method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 405
        finally:
            server.stop()

    def test_render_metrics_module_hook(self):
        from repro.obs.live import render_metrics

        observer = Observer()
        observer.registry.counter("probe_total", "x").inc(2)
        text = render_metrics(observer)
        assert text is not None and "repro_probe_total" in text


# ----------------------------------------------------------------------
# LiveStatus: probes, throttling, rates
# ----------------------------------------------------------------------
class TestLiveStatus:
    def test_probe_counts_unconverged_and_potential(self):
        sim, _ = _sim(3)
        status = LiveStatus()
        status.probe(sim)
        # A fresh random tree is far from the sorted list.
        assert status.unconverged > 0
        assert status.potential > 0.0
        sim.run(40 * N)
        status.probe(sim)
        assert status.unconverged == 0
        assert status.potential == 0.0

    def test_probe_skips_engines_without_soa(self):
        status = LiveStatus()
        status.probe(object())
        assert status.unconverged is None and status.potential is None

    def test_probes_only_run_when_scraped(self):
        sim, _ = _sim(4)
        status = LiveStatus(probe_interval=0.0)
        status.round_end(1, N, 0, sim)
        assert status.probe_round is None  # nobody is watching
        status.touch()
        status.round_end(2, N, 0, sim)
        assert status.probe_round == 2

    def test_rates_and_eta(self):
        status = LiveStatus()
        assert status.rounds_per_sec() is None
        assert status.eta_rounds() is None
        status._ticks.append((0.0, 0))
        status._ticks.append((2.0, 100))
        assert status.rounds_per_sec() == pytest.approx(50.0)
        # 100 -> 40 unconverged over 30 rounds: 2/round, 20 rounds left.
        status._probe_history.append((0, 100))
        status._probe_history.append((30, 40))
        assert status.eta_rounds() == pytest.approx(20.0)
        doc = status.health()
        assert doc["rounds_per_sec"] == 50.0
        assert doc["eta_rounds"] == 20.0


# ----------------------------------------------------------------------
# The never-perturb contract, with the endpoint live and scraped
# ----------------------------------------------------------------------
class TestLiveDoesNotPerturb:
    def test_sharded_bit_identical_with_live_scrapes(self):
        def run(observed: bool):
            sim, rng = _sim(17, mode="sharded", shards=3)
            if not observed:
                sim.run(ROUNDS)
            else:
                observer = Observer(experiment="live-pin")
                server = LiveServer(observer, ":0").start()
                observer.live_server = server
                observer.live_status = server.status
                try:
                    with activated(observer):
                        # Re-attach so the ambient observer adopts the
                        # already-built sim (engines self-register at
                        # construction time normally).
                        observer.attach_simulator(sim)
                        for index in range(ROUNDS):
                            sim.step_round()
                            if index % 10 == 5:
                                _get(server.url + "/metrics")
                                _get(server.url + "/health")
                finally:
                    observer.close()
            return (
                sim.state_snapshot(),
                sim.engine.stats.totals_by_type,
                rng.bit_generator.state,
            )

        plain = run(observed=False)
        live = run(observed=True)
        assert plain[0] == live[0]
        assert plain[1] == live[1]
        assert plain[2] == live[2]


# ----------------------------------------------------------------------
# End-to-end: instrumented batched run with live= (the CLI path)
# ----------------------------------------------------------------------
def live_experiment(
    *, n: int = N, rounds: int = ROUNDS, seed: int = 5
) -> ExperimentResult:
    """A registered-experiment-shaped driver that scrapes its own
    endpoint mid-run — the in-process twin of the CI obs-smoke curl."""
    result = ExperimentResult(
        experiment="live-e2e",
        title="live endpoint smoke",
        claim="",
        params={"n": n, "rounds": rounds, "seed": seed},
    )
    sim, _ = _sim(seed, n=n)
    observer = active()
    url = observer.live_server.url
    for index in range(rounds):
        sim.step_round()
        if index in (rounds // 2, rounds - 1):
            _get(url + "/metrics")
            code, body = _get(url + "/health")
            assert code == 200
            doc = json.loads(body)
            assert doc["round"] == index + 1
            assert doc["n"] == n
    result.rows.append({"n": n, "messages": sim.engine.stats.total})
    return result


class TestInstrumentedLiveRun:
    def test_artifacts_manifest_v2_and_phases(self, tmp_path, capsys):
        from repro.obs.exporters import validate_prometheus_text

        out = tmp_path / "obs"
        instrumented_run(
            live_experiment,
            {"n": N, "rounds": ROUNDS},
            str(out),
            experiment="live-e2e",
            live=":0",
        )
        # live.json records the bound address for ephemeral ports.
        live = json.loads((out / "live.json").read_text())
        assert isinstance(live["address"], str) and ":" in live["address"]
        assert live["url"].startswith("http://")

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert validate_manifest(manifest) == []
        # The v2 live block summarizes endpoint traffic.
        assert manifest["live"]["address"] == live["address"]
        assert manifest["live"]["scrapes"] >= 2
        assert manifest["live"]["health_requests"] >= 2
        # The batched engine's phases, keyed by engine alone.
        assert set(manifest["phases"]) == {"fast"}
        assert set(manifest["phases"]["fast"]) >= {"flush", "plan", "regular", "rng"}

        # The final exposition carries the run's series and no shard ones.
        prom = (out / "metrics.prom").read_text()
        assert 'repro_rounds_total{engine="fast"}' in prom
        assert "shard" not in prom
        assert validate_prometheus_text(prom) == []

        # CLI: validate covers prom + live.json; phases gates attribution.
        assert obs_main(["validate", str(out)]) == 0
        assert obs_main(
            ["phases", str(out), "--engine", "fast", "--min-attribution", "0.9"]
        ) == 0
        rendered = capsys.readouterr().out
        assert "engine=fast" in rendered
        assert "shard" not in rendered
        assert obs_main(["phases", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"experiment", "engines"}
        assert report["engines"]["fast"]["attribution"] > 0.9

    def test_phases_gate_fails_below_floor(self, tmp_path, capsys):
        out = tmp_path / "obs"
        instrumented_run(
            live_experiment,
            {"n": 32, "rounds": 8},
            str(out),
            experiment="live-e2e",
            live=":0",
        )
        assert (
            obs_main(["phases", str(out), "--min-attribution", "1.01"]) == 1
        )
        assert "below 1.01" in capsys.readouterr().err

    def test_phases_missing_manifest_exits_2(self, tmp_path, capsys):
        assert obs_main(["phases", str(tmp_path / "nope")]) == 2
        assert "cannot load manifest" in capsys.readouterr().err

    def test_live_requires_obs_dir(self):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit, match="obs=DIR"):
            repro_main(["run", "e01", "live=:0"])


# ----------------------------------------------------------------------
# Manifest v2
# ----------------------------------------------------------------------
class TestManifestVersions:
    def test_v2_carries_live_block(self):
        observer = Observer(experiment="m")
        observer.finalize()
        manifest = build_manifest(observer)
        assert manifest["schema"] == "repro.obs/manifest/v2"
        assert manifest["live"] is None
        assert validate_manifest(manifest) == []

    def test_v2_requires_live_field(self):
        observer = Observer(experiment="m")
        observer.finalize()
        manifest = build_manifest(observer)
        del manifest["live"]
        assert any("live" in p for p in validate_manifest(manifest))

    def test_unknown_schema_flagged(self):
        observer = Observer(experiment="m")
        observer.finalize()
        manifest = build_manifest(observer)
        for schema in ("repro.obs/manifest/v1", "repro.obs/manifest/v9"):
            manifest["schema"] = schema
            assert any("schema" in p for p in validate_manifest(manifest))


# ----------------------------------------------------------------------
# Prometheus text exposition edge cases
# ----------------------------------------------------------------------
class TestPrometheusEdgeCases:
    def _registry(self):
        from repro.obs.registry import MetricsRegistry

        return MetricsRegistry()

    def test_label_escaping_round_trip(self):
        from repro.obs.exporters import validate_prometheus_text

        registry = self._registry()
        counter = registry.counter("escapes_total", "escaping probe")
        nasty = 'back\\slash "quoted"\nnewline'
        counter.inc(1, path=nasty)
        text = prometheus_text(registry)
        # One physical line per sample even with an embedded newline.
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(samples) == 1
        assert (
            'path="back\\\\slash \\"quoted\\"\\nnewline"' in samples[0]
        )
        assert validate_prometheus_text(text) == []

    def test_label_keys_sorted_deterministically(self):
        registry = self._registry()
        counter = registry.counter("ordering_total")
        counter.inc(1, zeta="1", alpha="2", mid="3")
        text = prometheus_text(registry)
        assert 'ordering_total{alpha="2",mid="3",zeta="1"}' in text
        # Insertion order elsewhere must not leak into the exposition.
        other = self._registry()
        other.counter("ordering_total").inc(1, mid="3", zeta="1", alpha="2")
        assert prometheus_text(other) == text

    def test_histogram_buckets_cumulative_with_inf(self):
        from repro.obs.exporters import validate_prometheus_text

        registry = self._registry()
        hist = registry.histogram(
            "lat_seconds", "latency", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.05, 0.5, 5.0):
            hist.observe(value, engine="fast")
        text = prometheus_text(registry)
        assert 'repro_lat_seconds_bucket{engine="fast",le="0.1"} 2' in text
        assert 'repro_lat_seconds_bucket{engine="fast",le="1"} 3' in text
        assert 'repro_lat_seconds_bucket{engine="fast",le="+Inf"} 4' in text
        assert 'repro_lat_seconds_count{engine="fast"} 4' in text
        assert 'repro_lat_seconds_sum{engine="fast"} 5.6' in text
        assert validate_prometheus_text(text) == []

    def test_golden_exposition_round_trip(self):
        """A mixed registry renders byte-stably and validates clean."""
        from repro.obs.exporters import validate_prometheus_text

        def build():
            registry = self._registry()
            registry.counter("messages_total", "sent").inc(
                7, engine="fast", type="LIN"
            )
            registry.counter("messages_total").inc(2.5, engine="ref", type="BC")
            registry.gauge("round", "current round").set(12)
            registry.histogram("dur_seconds", buckets=(0.5,)).observe(0.25)
            return prometheus_text(registry)

        text = build()
        assert text == build()  # deterministic golden bytes
        assert text.endswith("\n")
        assert validate_prometheus_text(text) == []
        expected = (
            "# HELP repro_messages_total sent\n"
            "# TYPE repro_messages_total counter\n"
            'repro_messages_total{engine="fast",type="LIN"} 7\n'
            'repro_messages_total{engine="ref",type="BC"} 2.5\n'
        )
        assert expected in text

    def test_validator_flags_corruption(self):
        from repro.obs.exporters import validate_prometheus_text

        sample_before_type = "repro_x_total 1\n# TYPE repro_x_total counter\n"
        assert any(
            "no preceding TYPE" in p
            for p in validate_prometheus_text(sample_before_type)
        )
        bad_value = "# TYPE repro_x_total counter\nrepro_x_total one\n"
        assert any(
            "non-numeric" in p for p in validate_prometheus_text(bad_value)
        )
        bad_labels = (
            "# TYPE repro_x_total counter\n"
            'repro_x_total{engine=fast} 1\n'
        )
        assert validate_prometheus_text(bad_labels) != []
        non_cumulative = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 6\n'
            "repro_h_sum 1\n"
            "repro_h_count 6\n"
        )
        assert any(
            "not cumulative" in p
            for p in validate_prometheus_text(non_cumulative)
        )
        bad_type = "# TYPE repro_x_total sideways\n"
        assert any(
            "malformed TYPE" in p for p in validate_prometheus_text(bad_type)
        )


# ----------------------------------------------------------------------
# tail --follow hardening
# ----------------------------------------------------------------------
class TestTailFollow:
    def test_missing_file_without_follow_is_error(self, tmp_path, capsys):
        assert obs_main(["tail", str(tmp_path / "gone.jsonl")]) == 2
        assert "no stream" in capsys.readouterr().err

    def test_follow_times_out_waiting_for_missing_file(self, tmp_path):
        start = time.monotonic()
        code = obs_main(
            ["tail", str(tmp_path / "gone.jsonl"), "--follow",
             "--timeout", "0.3", "--interval", "0.05"]
        )
        assert code == 2
        assert time.monotonic() - start >= 0.25

    def test_partial_trailing_line_is_buffered_not_crashed(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text(
            '{"event": "start", "experiment": "t"}\n{"event": "rou'
        )
        assert obs_main(["tail", str(stream), "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "start" in out
        assert "rou" not in out  # the torn line was not parsed or printed

    def test_follow_completes_partial_line_when_writer_catches_up(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text('{"event": "start"}\n{"event": "ro')

        def finish_line():
            time.sleep(0.15)
            with open(stream, "a", encoding="utf-8") as handle:
                handle.write('und", "round": 1}\n')

        writer = threading.Thread(target=finish_line)
        writer.start()
        try:
            code = obs_main(
                ["tail", str(stream), "--follow",
                 "--timeout", "1.0", "--interval", "0.05"]
            )
        finally:
            writer.join()
        assert code == 0
        out = capsys.readouterr().out
        assert "round=1" in out
