"""The non-perturbation contract: telemetry never changes the simulation.

Observability is only trustworthy if switching it on cannot alter what it
observes.  These tests pin the strong form of that contract on every
engine: for a fixed seed, a run with an ambient observer produces a
**bit-identical** final topology, message census, and RNG stream position
to the same run without one — i.e. telemetry reads wall-clocks and
simulation state but never draws from a simulation RNG and never mutates
protocol state (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import io
from functools import partial

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, build_network
from repro.obs.cli import read_events
from repro.obs.exporters import JsonlExporter
from repro.obs.observer import Observer
from repro.obs.runtime import activated
from repro.sim.chaos import (
    ChaosCampaign,
    ConvergenceProbe,
    FaultPlan,
    PointerCorruption,
    WeakConnectivityWatchdog,
)
from repro.sim.engine import Simulator
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import TOPOLOGIES
from tests.reference_mirror import mirror_simulator

ROUNDS = 25
N = 32


def reference_run(seed: int, observed: bool):
    """Fixed-seed reference run; returns (snapshot, stats-total, rng state)."""
    rng = np.random.default_rng(seed)
    states = TOPOLOGIES["random_tree"](N, rng)
    net = build_network(states, ProtocolConfig())

    def body():
        sim = Simulator(net, rng)
        sim.run(ROUNDS)

    if observed:
        observer = Observer()
        with activated(observer):
            body()
        observer.close()
    else:
        body()
    return net.state_snapshot(), net.stats.totals_by_type, rng.bit_generator.state


def fast_run(seed: int, observed: bool, mode: str):
    """Fixed-seed fast-engine run; returns (snapshot, stats, rng state)."""
    rng = np.random.default_rng(seed)
    states = TOPOLOGIES["random_tree"](N, rng)
    build = {
        "batched": FastSimulator.from_states,
        "sharded": partial(FastSimulator.from_states, mode="sharded", shards=3),
        "mirror": mirror_simulator,
    }[mode]

    def body():
        sim = build(states, ProtocolConfig(), rng=rng)
        sim.run(ROUNDS)
        return sim

    if observed:
        observer = Observer()
        with activated(observer):
            sim = body()
        observer.close()
    else:
        sim = body()
    return (
        sim.state_snapshot(),
        sim.engine.stats.totals_by_type,
        rng.bit_generator.state,
    )


class TestObserverDoesNotPerturb:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_engine_bit_identical(self, seed):
        plain = reference_run(seed, observed=False)
        observed = reference_run(seed, observed=True)
        assert plain[0] == observed[0]  # final topology
        assert plain[1] == observed[1]  # per-type message census
        assert plain[2] == observed[2]  # RNG stream position

    @pytest.mark.parametrize("mode", ["batched", "mirror", "sharded"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fast_engines_bit_identical(self, mode, seed):
        plain = fast_run(seed, observed=False, mode=mode)
        observed = fast_run(seed, observed=True, mode=mode)
        assert plain[0] == observed[0]
        assert plain[1] == observed[1]
        assert plain[2] == observed[2]

    def test_chaos_campaign_trace_identical(self):
        """Campaign choreography (trace, recovery, health) is unchanged."""

        def campaign(observed: bool):
            def body():
                rng = np.random.default_rng(11)
                states = TOPOLOGIES["random_tree"](24, rng)
                net = build_network(states, ProtocolConfig(), wire=True)
                sim = Simulator(net, rng)
                plan = FaultPlan(seed=11).schedule(
                    PointerCorruption(fraction=0.4), at=5, label="corrupt"
                )
                monitors = (WeakConnectivityWatchdog(), ConvergenceProbe())
                result = ChaosCampaign(sim, plan, monitors).run(30)
                return net.state_snapshot(), result

            if observed:
                observer = Observer()
                try:
                    with activated(observer):
                        return body()
                finally:
                    observer.close()
            return body()

        snap_plain, res_plain = campaign(False)
        snap_obs, res_obs = campaign(True)
        assert snap_plain == snap_obs
        assert res_plain.trace.to_text() == res_obs.trace.to_text()
        assert res_plain.final_health == res_obs.final_health
        assert res_plain.rounds == res_obs.rounds

    def test_event_stream_is_deterministic_modulo_timing(self):
        """Two same-seed instrumented runs emit identical streams apart
        from wall-clock fields — telemetry content is a pure function of
        the simulation, which is itself a pure function of the seed."""

        TIMING_KEYS = {"t", "dur_s"}

        def stream(seed: int):
            buffer = io.StringIO()
            observer = Observer(exporters=(JsonlExporter(buffer),))
            with activated(observer):
                rng = np.random.default_rng(seed)
                net = build_network(
                    TOPOLOGIES["random_tree"](N, rng), ProtocolConfig()
                )
                Simulator(net, rng).run(ROUNDS)
            observer.close()
            events = list(read_events(buffer.getvalue().splitlines()))
            return [
                {k: v for k, v in e.items() if k not in TIMING_KEYS}
                for e in events
                if e["event"] in ("attach", "round")
            ]

        first = stream(5)
        second = stream(5)
        assert first == second
        assert len(first) == 1 + ROUNDS  # one attach + one event per round

    def test_registry_counts_match_engine_stats(self):
        """The observer's message census equals the engine's own."""
        from repro.core.messages import MessageType

        observer = Observer()
        with activated(observer):
            rng = np.random.default_rng(9)
            net = build_network(
                TOPOLOGIES["random_tree"](N, rng), ProtocolConfig()
            )
            Simulator(net, rng).run(ROUNDS)
        observer.close()
        counter = observer.registry.counter("messages_total")
        for mtype in MessageType:
            assert counter.value(engine="reference", type=mtype.value) == (
                net.stats.totals_by_type[mtype]
            )
        assert observer.registry.counter("rounds_total").value(
            engine="reference"
        ) == ROUNDS
