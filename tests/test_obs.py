"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, build_network
from repro.experiments.common import ExperimentResult
from repro.obs.cli import main as obs_main
from repro.obs.cli import read_events, summarize_events
from repro.obs.exporters import JsonlExporter, prometheus_text
from repro.obs.harness import ARTIFACTS, instrumented_run, run_observer
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    validate_manifest,
)
from repro.obs.observer import Observer
from repro.obs.profile import PhaseProfiler, peak_rss_bytes
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import activated, active
from repro.obs.sources import fold_convergence, fold_message_stats
from repro.obs.spans import SpanTracer
from repro.sim.engine import Simulator
from repro.sim.fast.engine import FastSimulator
from repro.sim.metrics import ConvergenceRecorder, MessageStats
from repro.topology.generators import TOPOLOGIES


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        c = registry.counter("messages_total", "help text")
        c.inc(3, type="lin", engine="fast")
        c.inc(2, engine="fast", type="lin")  # label order is immaterial
        c.inc(5, type="ring", engine="fast")
        assert c.value(type="lin", engine="fast") == 5
        assert c.value(type="ring", engine="fast") == 5
        assert c.value(type="probr", engine="fast") == 0
        assert c.total() == 10

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_max(self):
        g = MetricsRegistry().gauge("pending")
        assert g.value() is None
        g.set(7)
        g.max(3)  # lower: ignored
        assert g.value() == 7
        g.max(11)
        assert g.value() == 11

    def test_histogram_cumulative_buckets(self):
        h = MetricsRegistry().histogram("dur", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(100.0)  # overflows into +Inf
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == [1, 1, 1]
        assert snap["sum"] == pytest.approx(100.55)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_scrape_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", "ch").inc(1, k="v")
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.2)
        scrape = registry.scrape()
        assert scrape["c"]["kind"] == "counter"
        assert scrape["c"]["samples"] == [{"labels": {"k": "v"}, "value": 1.0}]
        assert scrape["g"]["kind"] == "gauge"
        assert scrape["h"]["kind"] == "histogram"
        assert scrape["h"]["samples"][0]["count"] == 1
        # The scrape must be JSON-serializable as-is.
        json.dumps(scrape)


# ----------------------------------------------------------------------
# Spans / profiler
# ----------------------------------------------------------------------
class TestSpansAndProfile:
    def test_span_records_and_sinks(self):
        seen = []
        tracer = SpanTracer(sink=seen.append)
        with tracer.span("work", trial=3):
            pass
        assert len(tracer) == 1
        (span,) = tracer.named("work")
        assert span.labels == {"trial": "3"}
        assert span.duration_s >= 0
        assert seen == [span]

    def test_span_recorded_on_exception(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert len(tracer.named("doomed")) == 1

    def test_profiler_accumulates_and_merges(self):
        p = PhaseProfiler()
        assert not p
        p.add("flush", 0.5)
        p.add("flush", 0.25, calls=3)
        other = PhaseProfiler()
        other.add("receive", 1.0, calls=2)
        p.merge(other)
        assert p
        snap = p.snapshot()
        assert snap["flush"] == {"seconds": 0.75, "calls": 4}
        assert snap["receive"] == {"seconds": 1.0, "calls": 2}
        assert p.total_seconds() == 1.75

    def test_peak_rss_positive_when_available(self):
        rss = peak_rss_bytes()
        if rss is not None:
            assert rss > 1024 * 1024  # a Python process exceeds 1 MiB


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_exporter_flushes_each_event(self):
        class CountingStream(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        stream = CountingStream()
        exporter = JsonlExporter(stream)
        exporter.emit({"event": "a"})
        assert stream.flushes == 1
        assert json.loads(stream.getvalue()) == {"event": "a"}

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("messages_total", "messages").inc(4, type="lin")
        registry.gauge("pending").set(2)
        registry.histogram("round_seconds", buckets=(0.1,)).observe(0.05)
        text = prometheus_text(registry)
        assert '# TYPE repro_messages_total counter' in text
        assert 'repro_messages_total{type="lin"} 4' in text
        assert "repro_pending 2" in text
        assert 'repro_round_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_round_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_round_seconds_count 1" in text


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_build_manifest_is_valid(self):
        observer = Observer(experiment="eXX", params={"seed": 1})
        observer.registry.counter("c").inc(1)
        manifest = build_manifest(observer, result={"rows": []})
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert validate_manifest(manifest) == []
        json.dumps(manifest, default=str)

    def test_validate_flags_problems(self):
        assert validate_manifest([]) != []
        assert any(
            "missing" in p for p in validate_manifest({"schema": MANIFEST_SCHEMA})
        )
        observer = Observer()
        manifest = build_manifest(observer)
        manifest["schema"] = "repro.obs/manifest/v999"
        assert any("unknown schema" in p for p in validate_manifest(manifest))
        manifest = build_manifest(observer)
        manifest["metrics"] = {"bad": {"kind": "nonsense", "samples": []}}
        assert any("unknown kind" in p for p in validate_manifest(manifest))


# ----------------------------------------------------------------------
# Runtime activation + engine attachment
# ----------------------------------------------------------------------
def small_states(n=12, seed=5):
    return TOPOLOGIES["line"](n, np.random.default_rng(seed))


class TestObserverAttachment:
    def test_no_observer_by_default(self):
        assert active() is None
        sim = Simulator(
            build_network(small_states(), ProtocolConfig()),
            np.random.default_rng(0),
        )
        assert sim._obs is None
        assert sim.scheduler.profiler is None

    def test_activation_nests_and_restores(self):
        a, b = Observer(), Observer()
        with activated(a):
            assert active() is a
            with activated(b):
                assert active() is b
            assert active() is a
        assert active() is None

    def test_reference_simulator_attaches(self):
        observer = Observer(round_events=True)
        with activated(observer):
            sim = Simulator(
                build_network(small_states(), ProtocolConfig()),
                np.random.default_rng(0),
            )
            assert sim._obs is not None
            assert sim._obs.engine == "reference"
            assert sim.scheduler.profiler is observer.phase_profilers["reference"]
            sim.run(5)
        registry = observer.registry
        assert registry.counter("rounds_total").value(engine="reference") == 5
        assert registry.counter("messages_total").total() > 0
        assert observer.phase_profilers["reference"].total_seconds() > 0
        snap = observer.phase_profilers["reference"].snapshot()
        assert set(snap) == {"flush", "receive", "regular"}

    @pytest.mark.parametrize("mode", ["batched", "mirror"])
    def test_fast_simulators_attach(self, mode):
        observer = Observer()
        with activated(observer):
            sim = FastSimulator.from_states(
                small_states(), ProtocolConfig(), mode=mode,
                rng=np.random.default_rng(0),
            )
            kind = "fast" if mode == "batched" else "mirror"
            assert sim._obs is not None
            assert sim._obs.engine == kind
            assert sim.engine.profiler is observer.phase_profilers[kind]
            sim.run(5)
        assert observer.registry.counter("rounds_total").value(engine=kind) == 5
        phases = observer.phase_profilers[kind].snapshot()
        assert "flush" in phases and "regular" in phases
        if mode == "batched":
            # Kernel names appear once messages start flowing.
            assert "linearize" in phases

    def test_round_events_streamed(self):
        stream = io.StringIO()
        observer = Observer(exporters=(JsonlExporter(stream),))
        with activated(observer):
            sim = Simulator(
                build_network(small_states(), ProtocolConfig()),
                np.random.default_rng(0),
            )
            sim.run(3)
        events = list(read_events(stream.getvalue().splitlines()))
        rounds = [e for e in events if e["event"] == "round"]
        assert [e["round"] for e in rounds] == [1, 2, 3]
        assert all(e["engine"] == "reference" for e in rounds)
        assert all("sent" in e and "pending" in e for e in rounds)

    def test_finalize_idempotent(self):
        observer = Observer()
        first = observer.finalize()
        assert observer.finalize() is first


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestSources:
    def test_fold_message_stats(self):
        from repro.core.messages import MessageType

        stats = MessageStats()
        stats.record_sends(MessageType.LIN, 7)
        stats.record_sends(MessageType.RING, 2)
        stats.end_round()
        registry = MetricsRegistry()
        fold_message_stats(registry, stats, engine="offline")
        counter = registry.counter("messages_total")
        assert counter.value(engine="offline", type="lin") == 7
        assert counter.value(engine="offline", type="ring") == 2
        assert counter.total() == 9

    def test_fold_convergence(self):
        recorder = ConvergenceRecorder()
        recorder.observe("ring", False, 0)
        recorder.observe("ring", True, 4)
        registry = MetricsRegistry()
        fold_convergence(registry, recorder)
        assert registry.gauge("phase_first_round").value(phase="ring") == 4


# ----------------------------------------------------------------------
# Harness + CLI (the uniform artifact contract)
# ----------------------------------------------------------------------
def tiny_experiment(*, n: int = 10, rounds: int = 4, seed: int = 0) -> ExperimentResult:
    """A minimal registered-experiment-shaped driver."""
    result = ExperimentResult(
        experiment="tiny",
        title="tiny test experiment",
        claim="",
        params={"n": n, "rounds": rounds, "seed": seed},
    )
    sim = Simulator(
        build_network(small_states(n, seed), ProtocolConfig()),
        np.random.default_rng(seed),
    )
    sim.run(rounds)
    result.rows.append({"n": n, "messages": sim.network.stats.total})
    return result


class TestHarnessAndCli:
    def test_instrumented_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "obs"
        result = instrumented_run(
            tiny_experiment, {"n": 10, "rounds": 4}, str(out), experiment="tiny"
        )
        assert result.rows
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        # No observer leaks out of the harness.
        assert active() is None

        manifest = json.loads((out / "manifest.json").read_text())
        assert validate_manifest(manifest) == []
        assert manifest["experiment"] == "tiny"
        # Params come from the driver's ExperimentResult (seed included).
        assert manifest["params"]["seed"] == 0
        assert manifest["result"]["rows"] == result.rows

        # The stream summarizes: rounds, message totals, phases.
        with open(out / "metrics.jsonl", encoding="utf-8") as handle:
            info = summarize_events(read_events(handle))
        assert info["finished"]
        assert info["rounds_total"] == 4
        assert info["messages_total"] > 0
        assert info["rounds_by_engine"] == {"reference": 4}
        assert "reference" in info["phases"]

        # Prometheus exposition references the same counters.
        prom = (out / "metrics.prom").read_text()
        assert "repro_rounds_total" in prom

        # CLI: summarize and validate both succeed on the directory.
        assert obs_main(["summarize", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "run: tiny" in rendered
        assert "rounds: 4" in rendered
        assert obs_main(["validate", str(out)]) == 0
        assert obs_main(["tail", str(out), "-n", "3"]) == 0
        capsys.readouterr()

    def test_crashed_run_is_recorded_as_failed(self, tmp_path, capsys):
        """``make_simulator`` refuses a wire on the sharded engine; that
        run's manifest used to validate with ``result: null`` and summarize
        as ``run: e22  [finished]``, 0 rounds, exit 0."""
        from repro.cli import main

        out = tmp_path / "obs"
        argv = "run e22 engine=sharded loss_rate=0.2 sizes=96 queries=20".split()
        with pytest.raises(ValueError, match="no wire transport"):
            main([*argv, f"obs={out}"])
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert validate_manifest(manifest) == []
        assert manifest["status"] == "failed" and manifest["result"] is None
        assert manifest["error"].startswith("ValueError: engine='sharded'")
        assert obs_main(["summarize", str(out)]) == 1
        assert "run: e22  [failed: ValueError: " in capsys.readouterr().out
        # A manifest recorded before the fields existed reads as finished;
        # one with a status nobody writes does not validate.
        del manifest["status"], manifest["error"]
        assert validate_manifest(manifest) == []
        manifest["status"] = "vanished"
        assert any("unknown status" in p for p in validate_manifest(manifest))

    def test_interrupted_run_is_recorded_as_interrupted(self, tmp_path, capsys):
        def interrupted(**params):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            instrumented_run(interrupted, {}, str(tmp_path), experiment="tiny")
        assert obs_main(["summarize", str(tmp_path)]) == 1
        assert "[interrupted: KeyboardInterrupt: ]" in capsys.readouterr().out

    def test_validate_flags_truncated_stream(self, tmp_path, capsys):
        out = tmp_path / "obs"
        observer = run_observer(str(out), experiment="tiny")
        # Simulate a crash: events flushed, but never finalized/closed.
        observer.event("round", sim=0, engine="reference", round=1)
        observer.exporters[0].close()
        observer._finalized = True  # suppress finalize-on-close
        assert obs_main(["validate", str(out)]) == 1
        err = capsys.readouterr().err
        assert "no final summary event" in err or "missing" in err

    def test_summarize_live_stream_without_summary(self):
        events = [
            {"event": "start", "experiment": "e01"},
            {"event": "round", "sim": 0, "engine": "fast", "round": 1,
             "sent": {"lin": 5, "ring": 1}, "pending": 6},
            {"event": "round", "sim": 0, "engine": "fast", "round": 2,
             "sent": {"lin": 3}, "pending": 4},
        ]
        info = summarize_events(events)
        assert not info["finished"]
        assert info["rounds_total"] == 2
        assert info["messages_by_type"] == {"lin": 8, "ring": 1}
        assert info["messages_total"] == 9
