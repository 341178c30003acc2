"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import gc
import importlib.util
import io
import json
import pathlib
import platform
import sys
import threading
import time

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
from repro.obs.profile import peak_rss_bytes
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import activated, active
from repro.obs.sources import fold_convergence, fold_message_stats
from repro.obs.spans import SpanTracer, layer_targets
from repro.serve.service import build_service
from repro.sim.engine import Simulator
from repro.sim.fast.engine import FastSimulator
from repro.sim.metrics import ConvergenceRecorder, MessageStats
from repro.topology.generators import TOPOLOGIES
from tests.reference_mirror import mirror_simulator


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

    def test_layer_tracer_folds_busy_self_calls_and_rows(self):
        n = 12
        net = build_network(small_states(n), ProtocolConfig())
        observer = Observer()
        try:
            with activated(observer):
                sim = Simulator(net, np.random.default_rng(0))
            sim.run(3)
            early = observer.layers.snapshot()
            sim.run(2)
            late = observer.layers.snapshot()
        finally:
            observer.close()
        totals = late.totals
        assert set(totals) == {
            ("reference", phase) for phase in ("flush", "receive", "regular")
        }
        # Calls count calls; rows count the messages each flush delivered.
        assert totals["reference", "receive"].calls == 5
        assert totals["reference", "flush"].calls == 5
        assert totals["reference", "regular"].calls == 5 * n
        assert totals["reference", "flush"].rows > 0
        assert totals["reference", "regular"].rows == 0
        for t in totals.values():
            assert 0.0 <= t.self_s <= t.busy_s
        # Self times are additive: they sum to what the rounds covered.
        assert sum(t.self_s for t in totals.values()) == pytest.approx(late.covered_s)
        assert late.covered_s == pytest.approx(
            totals["reference", "receive"].busy_s
        )
        # Two snapshots difference to the rounds between them.
        assert late.at_s > early.at_s and late.covered_s > early.covered_s
        for phase, calls in (("receive", 2), ("regular", 2 * n)):
            key = ("reference", phase)
            assert late.totals[key].calls - early.totals[key].calls == calls

    def test_span_closes_when_its_body_raises(self, monkeypatch):
        from repro.obs import spans
        from repro.sim.network import Network

        def broken_flush(self):
            raise RuntimeError("flush failed")

        monkeypatch.setattr(Network, "flush", broken_flush)
        observer = Observer()
        try:
            with activated(observer):
                sim = Simulator(
                    build_network(small_states(), ProtocolConfig()),
                    np.random.default_rng(0),
                )
            with pytest.raises(RuntimeError, match="flush failed"):
                sim.step_round()
            assert spans._local.stack == []
            totals = observer.layers.snapshot().totals
        finally:
            observer.close()
        assert Network.__dict__["flush"] is broken_flush
        assert totals["reference", "flush"].calls == 1
        assert totals["reference", "receive"].calls == 1
        receive = totals["reference", "receive"]
        flush = totals["reference", "flush"]
        assert receive.busy_s >= flush.busy_s
        assert receive.self_s == pytest.approx(receive.busy_s - flush.busy_s)

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

    def test_provenance_fields_recorded_and_optional(self):
        """numpy, usable cores, the C library and the heap policy an engine
        pinned are recorded; a manifest without them (every one recorded
        before they existed) still validates, one with a wrong type does
        not."""
        FastSimulator.from_states(
            TOPOLOGIES["line"](8, np.random.default_rng(0)),
            rng=np.random.default_rng(0),
        )
        from repro.sim.fast.heap import applied_heap_policy

        manifest = json.loads(json.dumps(build_manifest(Observer())))
        assert manifest["numpy"] == np.__version__
        assert isinstance(manifest["cpu_count"], int) and manifest["cpu_count"] >= 1
        assert manifest["libc"] == list(platform.libc_ver())
        assert manifest["heap_policy"] == applied_heap_policy()
        if platform.libc_ver()[0] == "glibc":
            assert manifest["heap_policy"] == {
                "mmap_threshold": 32 << 20,
                "trim_threshold": 64 << 20,
            }
        assert validate_manifest(manifest) == []
        for field in ("numpy", "cpu_count", "libc", "heap_policy"):
            older = dict(manifest)
            del older[field]
            assert validate_manifest(older) == []
            older[field] = 1.5
            assert any(repr(field) in p for p in validate_manifest(older))

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
        assert not [
            f"{owner.__name__}.{name}"
            for owner, name, _ in layer_targets()
            if hasattr(vars(owner)[name], "__wrapped__")
        ]

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
            sim.run(5)
        observer.close()
        registry = observer.registry
        assert registry.counter("rounds_total").value(engine="reference") == 5
        assert registry.counter("messages_total").total() > 0
        phases = observer.phases()
        assert set(phases) == {"reference"}
        assert set(phases["reference"]) == {"flush", "receive", "regular"}
        assert sum(p["seconds"] for p in phases["reference"].values()) > 0

    @pytest.mark.parametrize("mode", ["batched", "mirror"])
    def test_fast_simulators_attach(self, mode):
        """The batched host and the mirror oracle are both
        labelled ``fast``; the mirror oracle runs no wrapped layer, so it
        counts rounds but records no phases."""
        build = {"batched": FastSimulator.from_states, "mirror": mirror_simulator}[mode]
        observer = Observer()
        with activated(observer):
            sim = build(small_states(), ProtocolConfig(), rng=np.random.default_rng(0))
            kind = "fast"
            assert sim._obs is not None
            assert sim._obs.engine == kind
            sim.run(5)
        observer.close()
        assert observer.registry.counter("rounds_total").value(engine=kind) == 5
        phases = observer.phases()
        if mode == "mirror":
            assert phases == {}
            return
        assert {"flush", "plan", "regular"} <= set(phases[kind])
        # Kernel names appear once messages start flowing.
        assert "linearize" in phases[kind]
        assert phases[kind]["regular"]["calls"] == 5
        assert phases[kind]["regular"]["rows"] == 5 * len(sim.engine)

    def test_round_events_streamed(self):
        stream = io.StringIO()
        observer = Observer(exporters=(JsonlExporter(stream),))
        with activated(observer):
            sim = Simulator(
                build_network(small_states(), ProtocolConfig()),
                np.random.default_rng(0),
            )
            sim.run(3)
        observer.close()
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
        """A topology no generator knows gets past the door and fails
        inside the run, while the start is built; a run that fails like
        that used to leave a manifest that validated with ``result: null``
        and summarized as ``run: e22  [finished]``, 0 rounds, exit 0."""
        from repro.cli import main

        out = tmp_path / "obs"
        argv = "run e22 topology=no_such_family sizes=96 queries=20".split()
        assert main([*argv, f"obs={out}"]) == 2
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert validate_manifest(manifest) == []
        assert manifest["status"] == "failed" and manifest["result"] is None
        assert manifest["error"].startswith("KeyError: 'no_such_family'")
        assert obs_main(["summarize", str(out)]) == 1
        assert "run: e22  [failed: KeyError: " in capsys.readouterr().out
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


# ----------------------------------------------------------------------
# The layer wrappers: installed on attach, restored on every exit path
# ----------------------------------------------------------------------
def layer_functions():
    """What every target of the layer table currently holds."""
    return {(owner, name): vars(owner)[name] for owner, name, _ in layer_targets()}


def wrapped_now(before):
    """The targets that no longer hold what *before* recorded."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for (owner, name), fn in layer_functions().items()
        if fn is not before[owner, name]
    ]


def wait_rounds(service, rounds, timeout=30.0):
    """Whether the served engine ran *rounds* rounds within *timeout*."""
    deadline = time.monotonic() + timeout
    while service.host.rounds_run < rounds:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def suite_tracing():
    """``benchmarks/suite/tracing.py``, loaded from its file (read-only)."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "suite" / "tracing.py"
    name = "suite_tracing_under_test"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve through it
    spec.loader.exec_module(module)
    return module


class TestLayerInstall:
    def test_attach_wraps_and_close_restores(self):
        before = layer_functions()
        assert not [fn for fn in before.values() if hasattr(fn, "__wrapped__")]
        observer = Observer()
        with activated(observer):
            assert wrapped_now(before) == []  # nothing until a simulator attaches
            sim = FastSimulator.from_states(
                small_states(), ProtocolConfig(), rng=np.random.default_rng(0)
            )
        assert len(wrapped_now(before)) == len(before)
        sim.run(2)
        observer.close()
        assert wrapped_now(before) == []
        observer.close()  # idempotent
        assert wrapped_now(before) == []

    def test_a_run_that_raises_restores_and_says_failed(self, tmp_path):
        before = layer_functions()

        def crashing(**params):
            sim = FastSimulator.from_states(
                small_states(), ProtocolConfig(), rng=np.random.default_rng(0)
            )
            sim.run(2)
            assert wrapped_now(before)
            raise RuntimeError("run crashed")

        with pytest.raises(RuntimeError, match="run crashed"):
            instrumented_run(crashing, {}, str(tmp_path), experiment="crash")
        assert wrapped_now(before) == []
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["phases"]["fast"]["plan"]["calls"] == 2

    def test_a_batched_round_times_its_flush_and_key_draw(self, tmp_path, capsys):
        """The batched round's flush is ``buffers.prepare_inbox`` and its
        key draw ``buffers.draw_delivery_keys``: an observed round reports
        both, so neither folds into ``plan``, and a batched E22 still
        attributes >= 95% of its round time (the CI ``obs`` gate)."""
        observer = Observer()
        with activated(observer):
            sim = FastSimulator.from_states(
                small_states(64), ProtocolConfig(), rng=np.random.default_rng(2)
            )
        sim.run(3)
        observer.close()
        phases = observer.phases()["fast"]
        assert phases["flush"]["calls"] == 3
        assert phases["flush"]["seconds"] > 0.0
        assert phases["rng"]["calls"] >= 2

        from repro.cli import main

        out = tmp_path / "obs-fast"
        argv = "run e22 sizes=4096 queries=16 reference_max_n=0 engine=fast".split()
        main([*argv, f"obs={out}"])
        capsys.readouterr()
        gate = ["phases", str(out), "--engine", "fast", "--min-attribution", "0.95"]
        assert obs_main(gate) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["phases"]["fast"]["flush"]["seconds"] > 0.0

    def test_two_service_cycles_restore(self):
        before = layer_functions()
        for seed in (1, 2):
            service = build_service(n=64, seed=seed)
            assert wrapped_now(before)
            service.start()
            assert wait_rounds(service, 2)
            service.stop()
            assert wrapped_now(before) == []
            assert service.observer.phases()["fast"]["plan"]["calls"] >= 2

    def test_an_unclosed_observer_releases_once_its_hosts_are_gone(self):
        before = layer_functions()
        sim = build_service(n=64, seed=5).host.sim  # never started, never stopped
        assert wrapped_now(before)
        del sim
        gc.collect()
        assert wrapped_now(before) == []

    def test_service_inside_the_suite_tracer_restores(self):
        """The ``run.py --trace 1`` serve order: the suite's tracer goes on
        first and comes off last; the service's observer wraps over it."""
        before = layer_functions()
        tracer = suite_tracing().Tracer()
        tracer.install()
        try:
            under_suite = layer_functions()
            service = build_service(n=64, seed=3)
            service.start()
            try:
                assert wait_rounds(service, 2)
                service.lookup_batch(service.sample_ids(16))
            finally:
                service.stop()
            assert wrapped_now(under_suite) == []
            assert tracer.counts["lookups"] == 16
        finally:
            tracer.uninstall()
        assert wrapped_now(before) == []

    def test_self_times_add_up_per_thread_beside_a_client(self):
        """The serving host's engine thread and a second engine on this
        thread fold into one observer while a client thread looks up: every
        round is an outermost span on its own thread's stack, and the self
        times sum to the time those rounds cover."""
        service = build_service(n=128, seed=4)
        stop = threading.Event()

        def client():
            while not stop.is_set():
                service.lookup_batch(service.sample_ids(32))

        service.start()
        thread = threading.Thread(target=client)
        thread.start()
        try:
            with activated(service.observer):
                sim = FastSimulator.from_states(
                    small_states(64), ProtocolConfig(), rng=np.random.default_rng(1)
                )
            sim.run(20)
            assert wait_rounds(service, 3)
        finally:
            stop.set()
            thread.join()
            service.stop()
        snapshot = service.observer.layers.snapshot()
        totals = snapshot.totals
        plan = totals["fast", "plan"]
        assert plan.calls >= 23
        assert snapshot.covered_s == pytest.approx(plan.busy_s)
        assert sum(t.self_s for t in totals.values()) == pytest.approx(
            snapshot.covered_s
        )
        assert all(t.self_s >= 0.0 for t in totals.values())
