"""Cross-engine conformance matrix: every ``engine=``-aware experiment.

Two layers of agreement, per docs/PERF.md and docs/CHAOS.md:

* **exact** — the mirror engines are draw-for-draw twins of the reference
  stack, so reference vs ``mode="mirror"`` (fault-free) and reference
  ``ChaosNetwork`` vs ``mode="mirror-chaos"`` (faulted) must finish with
  the *identical final topology and message census*;
* **structural** — the batched engines draw their RNG in a different
  order, so ``spec.run(engine=...)`` is conformance-checked for shape:
  every engine of ``ENGINES`` produces the same rows/columns and records
  its name in the result params.

The ratchet test keeps this matrix honest: adding ``engine=`` support to
another experiment must extend this suite, or the set comparison fails.
"""

from __future__ import annotations

import copy
import inspect

import numpy as np
import pytest

from repro.core.protocol import ProtocolConfig, build_network
from repro.experiments.registry import EXPERIMENTS
from repro.sim.chaos.guard import GuardPolicy
from repro.sim.chaos.injectors import MessageDelay, MessageLoss
from repro.sim.chaos.network import ChaosNetwork
from repro.sim.chaos.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.fast import FastSimulator
from repro.sim.host import ENGINES
from repro.topology.generators import TOPOLOGIES

#: Experiments whose driver accepts ``engine=``.  Extending engine support
#: to a new experiment must update this pin *and* add it to the matrices
#: below.
ENGINE_AWARE = {"e01", "e06", "e07", "e17", "e18", "e21", "e22"}

#: Small-n ``run()`` invocations per engine-aware experiment.
QUICK_PARAMS: dict[str, dict[str, object]] = {
    "e01": dict(sizes=(16,), topologies=("line",), trials=1),
    "e06": dict(sizes=(16, 24, 32), trials=1),
    "e07": dict(sizes=(16, 24, 32), trials=1),
    "e17": dict(
        n=16,
        rates=(0.5,),
        rounds=30,
        trials=1,
        storms=("flash_crowd", "partition_heal"),
    ),
    "e18": dict(sizes=(16, 32, 64), topologies=("line",), trials=1),
    "e21": dict(
        n=32,
        loss_rate=0.3,
        burst_stop=20,
        rounds=40,
        campaign_seeds=(0,),
    ),
    "e22": dict(sizes=(16, 32), queries=16, reference_max_n=0),
}


def test_engine_support_ratchet() -> None:
    supported = {
        key
        for key, spec in EXPERIMENTS.items()
        if "engine" in inspect.signature(spec.run).parameters
    }
    assert supported == ENGINE_AWARE


@pytest.mark.parametrize("experiment", sorted(ENGINE_AWARE))
@pytest.mark.parametrize("engine", ENGINES)
def test_run_conformance_matrix(experiment: str, engine: str) -> None:
    """Every engine runs every engine-aware experiment at small n and
    produces structurally identical tables (ISSUE 19 folded the separate
    ``SHARDED_AWARE`` subset into this matrix: every driver now builds
    through ``make_simulator``, so all of them take all of ``ENGINES``)."""
    spec = EXPERIMENTS[experiment]
    if (experiment, engine) == ("e21", "sharded"):
        # The one hole in the matrix: e21 needs a wire.
        with pytest.raises(ValueError, match="no wire transport"):
            spec.run(engine=engine, **QUICK_PARAMS[experiment])
        return
    result = spec.run(engine=engine, **QUICK_PARAMS[experiment])
    assert result.params["engine"] == engine
    assert result.rows
    reference = spec.run(engine="reference", **QUICK_PARAMS[experiment])
    assert len(result.rows) == len(reference.rows)
    for row, ref_row in zip(result.rows, reference.rows):
        assert list(row) == list(ref_row)


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_bit_identical_vs_fast_n2048(shards: int) -> None:
    """Acceptance pin: at n=2048 the sharded engine (shards >= 2) replays
    the single-process batched engine bit-for-bit — identical topology
    snapshot and message census after a shared round budget."""
    from repro.sim.fast.batched import FastEngine
    from repro.sim.fast.shard import ShardedEngine

    states = sorted(
        TOPOLOGIES["line"](2048, np.random.default_rng(22)),
        key=lambda s: s.id,
    )
    fast = FastEngine(states, ProtocolConfig(), dedup=True)
    sharded = ShardedEngine(states, ProtocolConfig(), shards=shards)
    r1 = np.random.default_rng(4242)
    r2 = np.random.default_rng(4242)
    for _ in range(48):
        fast.execute_round(r1)
        sharded.execute_round(r2)
    assert fast.state_snapshot() == sharded.state_snapshot()
    assert fast.stats.total == sharded.stats.total
    assert fast.stats.totals_by_type == sharded.stats.totals_by_type
    assert fast.pending_total() == sharded.pending_total()


@pytest.mark.parametrize("topo", ["line", "random_tree", "star"])
def test_mirror_conformance_fault_free(topo: str) -> None:
    """Reference vs ``mode="mirror"``: identical final topology and
    message census after a fault-free stabilization run."""
    states = TOPOLOGIES[topo](32, np.random.default_rng(5))
    network = build_network(copy.deepcopy(states), ProtocolConfig())
    reference = Simulator(network, rng=np.random.default_rng(777))
    mirror = FastSimulator.from_states(
        copy.deepcopy(states),
        ProtocolConfig(),
        mode="mirror",
        rng=np.random.default_rng(777),
    )
    for _ in range(50):
        reference.step_round()
        mirror.step_round()
    assert network.state_snapshot() == mirror.engine.state_snapshot()
    assert network.stats.totals_by_type == mirror.engine.stats.totals_by_type
    assert network.stats.total == mirror.engine.stats.total


@pytest.mark.parametrize("topo", ["line", "random_tree"])
def test_mirror_conformance_faulted(topo: str) -> None:
    """``ChaosNetwork`` vs ``mode="mirror-chaos"`` under a loss+delay
    plan with the guard: identical final topology and message census."""
    seed = 13
    states = TOPOLOGIES[topo](28, np.random.default_rng(seed))
    policy = GuardPolicy()
    network = build_network(
        copy.deepcopy(states),
        ProtocolConfig(),
        network_cls=ChaosNetwork,
        guard=policy,
    )
    reference = Simulator(network, rng=np.random.default_rng(seed + 1))
    mirror = FastSimulator.from_states(
        copy.deepcopy(states),
        ProtocolConfig(),
        mode="mirror-chaos",
        guard=policy,
        rng=np.random.default_rng(seed + 1),
    )

    def plan() -> FaultPlan:
        return (
            FaultPlan(seed=seed)
            .schedule(MessageLoss(rate=0.25), start=0, stop=15, label="loss")
            .schedule(MessageDelay(max_delay=2), start=2, stop=12, label="delay")
        )

    plans = {"reference": plan(), "mirror": plan()}
    hosts = {"reference": network, "mirror": mirror.engine}
    sims = {"reference": reference, "mirror": mirror}
    for r in range(30):
        for kind in ("reference", "mirror"):
            hosts[kind].set_wire_faults(plans[kind].active_wire_faults(r))
            sims[kind].step_round()
    assert network.state_snapshot() == mirror.engine.state_snapshot()
    assert network.stats.totals_by_type == mirror.engine.stats.totals_by_type
    assert network.dropped == mirror.engine.dropped
    assert vars(network.guard.stats) == vars(mirror.engine.guard.stats)
