"""The host surface, as one matrix (:mod:`repro.sim.host`).

Every host ``make_simulator`` can build — plus the two mirror oracles
``FastSimulator.from_states`` keeps for the differential tests — is built
from the same states as a reference ``Network`` and asked every ``Host``
call.  Each call agrees with the reference: never ``AttributeError`` (the
monitors used to die on the sharded and plain-mirror hosts), never a
silent no-op (the sharded engine's state faults used to report work and
do none).  Every fault injector is then run on every host: it perturbs the
host or raises the documented refusal.
"""

from __future__ import annotations

import copy
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.graphs.build import stable_ring_states
from repro.ids import generate_ids
import repro.sim.chaos.injectors as injectors_mod
from repro.sim.adversary import StarvationAdversary
from repro.sim.chaos.campaign import ChaosCampaign
from repro.sim.chaos.injectors import (
    CrashRestart,
    FaultInjector,
    MessageDelay,
    MessageDuplication,
    MessageLoss,
    NodeChurn,
    PointerCorruption,
    SchedulerFault,
)
from repro.sim.chaos.monitors import (
    ConvergenceProbe,
    PartitionDetector,
    SafetyProbe,
    WeakConnectivityWatchdog,
)
from repro.sim.chaos.plan import FaultPlan
from repro.sim.fast import FastSimulator
from repro.sim.host import ENGINES, make_simulator
from repro.sim.invariants import InvariantViolation
from repro.topology.generators import TOPOLOGIES

N = 24

#: host id → how to build it: every (engine, wire) pair of make_simulator,
#: then the mirror oracles.
BUILDERS = {
    "reference": lambda s: make_simulator(s, engine="reference", rng=5),
    "reference+wire": lambda s: make_simulator(s, engine="reference", wire=True, rng=5),
    "fast": lambda s: make_simulator(s, engine="fast", rng=5),
    "fast+wire": lambda s: make_simulator(s, engine="fast", wire=True, rng=5),
    "sharded": lambda s: make_simulator(s, engine="sharded", rng=5),
    "mirror": lambda s: FastSimulator.from_states(s, mode="mirror", rng=5),
    "mirror+wire": lambda s: FastSimulator.from_states(s, mode="mirror-chaos", rng=5),
}


def _states(kind: str):
    rng = np.random.default_rng(11)
    if kind == "line":
        return TOPOLOGIES["line"](N, rng)
    return stable_ring_states(N, lrl="harmonic", rng=rng, ids=generate_ids(N, rng))


@pytest.fixture(params=["line", "stable"])
def states(request):
    return _states(request.param)


@pytest.fixture(params=sorted(BUILDERS))
def pair(request, states):
    """``(reference host, host under test)`` over copies of one state list."""
    reference = BUILDERS["reference"](copy.deepcopy(states))
    sim = BUILDERS[request.param](copy.deepcopy(states))
    return request.param, reference, sim


def _health(host) -> dict[str, object]:
    try:
        host.check_invariants()
        invariants = None
    except InvariantViolation as violation:
        invariants = str(violation)
    return {
        "lcc": host.lcc_weakly_connected(),
        "list": host.is_sorted_list(),
        "ring": host.is_sorted_ring(),
        "lrl_live": host.lrl_links_live(),
        "cc": host.cc_components(),
        "cc_all": host.cc_components(live_only=False),
        "invariants": invariants,
        "n": len(host),
        "ids": list(host.ids),
        "pending": host.pending_total(),
    }


def test_every_engine_name_is_in_the_matrix():
    assert {name.split("+")[0] for name in BUILDERS} >= set(ENGINES)


def test_sharded_with_wire_names_the_missing_transport(states):
    with pytest.raises(ValueError, match="no wire transport"):
        make_simulator(states, engine="sharded", wire=True)
    with pytest.raises(ValueError, match="unknown engine"):
        make_simulator(states, engine="warp")


#: Draw-for-draw twins of the reference: equal after every round, too.
TWINS = {"reference", "reference+wire", "mirror", "mirror+wire"}


def test_health_agrees_with_reference(pair):
    name, reference, sim = pair
    assert _health(sim.host) == _health(reference.host)
    if name in TWINS:
        for _ in range(4):
            reference.step_round()
            sim.step_round()
            assert _health(sim.host) == _health(reference.host)
    # A few rounds in, trajectories differ per engine, but what the
    # theorems promise holds on all of them — and every in-flight
    # accounting path (outbox, channels, wire, shards) has been read.
    sim.run(3)
    assert sim.host.pending_total() > 0
    assert sim.host.cc_components() == 1
    assert sim.host.cc_components(live_only=False) == 1
    assert sim.host.lcc_weakly_connected()
    sim.host.check_invariants()


def test_membership_agrees_with_reference(pair):
    _, reference, sim = pair
    ids = reference.host.ids
    fresh = [0.111, 0.555, 0.999]
    for host in (reference.host, sim.host):
        host.join(0.333, ids[0])
        host.leave(ids[5])
        assert host.join_batch(
            np.array(fresh[::-1]), np.array([ids[1], ids[2], ids[3]])
        ) == 3
        assert host.leave_batch(np.array([ids[9], ids[7]])) == 2
    assert sim.host.ids == reference.host.ids
    assert len(sim.host) == len(reference.host) == N + 1
    assert 0.333 in sim.host and ids[5] not in sim.host and ids[7] not in sim.host
    assert sim.host.state_snapshot() == reference.host.state_snapshot()
    assert sim.host.dropped == reference.host.dropped
    with pytest.raises(ValueError):
        sim.host.join(0.333, ids[0])
    with pytest.raises(KeyError):
        sim.host.leave(ids[5])


def test_state_faults_agree_with_reference_or_refuse(pair):
    _, reference, sim = pair
    victims = reference.host.ids[2:5]
    before = sim.host.state_snapshot()
    for host in (reference.host, sim.host):
        assert host.corrupt_random_pointers(0.5, np.random.default_rng(3)) == N // 2
    corrupted = sim.host.state_snapshot()
    assert corrupted == reference.host.state_snapshot()
    assert sum(corrupted[nid] != before[nid] for nid in before) == N // 2
    for host in (reference.host, sim.host):
        host.crash_restart(victims)
    restarted = sim.host.state_snapshot()
    assert restarted == reference.host.state_snapshot()
    for nid in victims:
        assert restarted[nid][1:] == (-np.inf, np.inf, nid, None, 0)


def test_state_fault_injectors_agree_on_the_sharded_engine(states):
    """Two commits back these reported 12 corrupted / 8 crashed on the
    sharded engine and changed no row (the scatter went into a merged copy
    of the shards' columns); one commit back they raised."""
    snapshots = []
    for engine in ENGINES:
        sim = make_simulator(copy.deepcopy(states), engine=engine, rng=5)
        for injector in (PointerCorruption(fraction=0.5), CrashRestart(count=8)):
            injector.bind(np.random.default_rng(0))
            injector.on_round(sim)
        snapshots.append(sim.host.state_snapshot())
    assert snapshots[0] == snapshots[1] == snapshots[2]
    assert snapshots[0] != make_simulator(states).host.state_snapshot()


#: Every exported injector, as a campaign would construct it.
INJECTORS = {
    "MessageLoss": lambda: MessageLoss(rate=0.5),
    "MessageDuplication": lambda: MessageDuplication(rate=0.5),
    "MessageDelay": lambda: MessageDelay(max_delay=3),
    "PointerCorruption": lambda: PointerCorruption(fraction=0.5),
    "CrashRestart": lambda: CrashRestart(count=8),
    "NodeChurn": lambda: NodeChurn(join_probability=1.0, leave_probability=1.0),
    # The scheduler is what a reference simulator swaps in; the batched
    # engines ignore it and perturb their wave dispatch instead.
    "SchedulerFault": lambda: SchedulerFault(
        StarvationAdversary(slow_fraction=0.5, period=3), starvation=0.25
    ),
}

#: Exact copies coalesce in the coalescing-set channel every host of
#: BUILDERS runs (DESIGN.md §4.7): the hook draws, the overlay never knows.
ABSORBED = "absorbed"


def _cell(injector: str, host: str) -> type[Exception] | str | None:
    """The documented refusals (docs/CHAOS.md); ``None``: the host is
    perturbed."""
    if injector.startswith("Message") and not host.endswith("+wire"):
        return TypeError  # wire faults need make_simulator(wire=True)
    if injector == "SchedulerFault" and host.startswith("mirror"):
        return TypeError  # scalar replay: no waves to perturb
    if injector == "SchedulerFault" and host == "sharded":
        return NotImplementedError  # set_wave_fault
    return ABSORBED if injector == "MessageDuplication" else None


def test_every_exported_injector_is_in_the_matrix():
    exported = {
        name
        for name in injectors_mod.__all__
        if isinstance(getattr(injectors_mod, name), type)
        and issubclass(getattr(injectors_mod, name), FaultInjector)
    }
    assert set(INJECTORS) == exported - {"FaultInjector"}


def _trajectory(sim) -> tuple:
    host = sim.host
    return host.state_snapshot(), host.stats.total, host.dropped, host.pending_total()


@pytest.mark.parametrize("host", sorted(BUILDERS))
@pytest.mark.parametrize("injector", sorted(INJECTORS))
def test_injector_perturbs_the_host_or_refuses(injector, host):
    """One short fault window of every injector on every host."""
    states = _states("line")
    sim = BUILDERS[host](copy.deepcopy(states))
    fault = INJECTORS[injector]()
    plan = FaultPlan(seed=3).schedule(fault, start=1, stop=4, label=injector)
    cell = _cell(injector, host)
    if isinstance(cell, type):
        with pytest.raises(cell):
            ChaosCampaign(sim, plan).run(6)
        return
    unused = copy.deepcopy(fault.rng.bit_generator.state)
    assert ChaosCampaign(sim, plan).run(6).rounds == 6
    control = BUILDERS[host](copy.deepcopy(states))
    control.run(6)
    if cell == ABSORBED:
        assert fault.rng.bit_generator.state != unused
        assert _trajectory(sim) == _trajectory(control)
    else:
        assert _trajectory(sim) != _trajectory(control)
    sim.host.check_invariants(check_membership=False)


@pytest.mark.parametrize(
    "monitor",
    [
        WeakConnectivityWatchdog(),
        WeakConnectivityWatchdog(live_only=False),
        PartitionDetector(),
        SafetyProbe(check_membership=True),
        ConvergenceProbe(phase="lcc"),
        ConvergenceProbe(phase="list"),
        ConvergenceProbe(phase="ring"),
    ],
    ids=lambda m: m.name + ("" if getattr(m, "live_only", True) else "-all"),
)
def test_monitors_agree_with_reference(pair, monitor):
    _, reference, sim = pair
    assert monitor.healthy(sim.host) == monitor.healthy(reference.host)
    assert monitor.detail(sim.host) == monitor.detail(reference.host)
    sim.run(2)
    monitor.healthy(sim.host)
    assert isinstance(monitor.detail(sim.host), str)


# ----------------------------------------------------------------------
# The ladders stay deleted
# ----------------------------------------------------------------------
#: The network-or-engine branch idioms (ISSUE 19): 68 sites before the
#: host surface.  What remains is named in CHANGES.md — the two
#: constructors' own tables, SchedulerFault's two mechanisms, the wire
#: capability check, e22's shards/speed-up legs, MessageDelay's own mode.
BRANCH_IDIOMS = re.compile(
    r'getattr\((sim|simulator|self\.simulator), "(network|engine|scheduler)"'
    r"|isinstance\((network|host|target|sim), (Network|Simulator)\)"
    r'|hasattr\((sim|host|engine|simulator), "'
    r"|\b(if|elif|and|or|not) +\(?engine (==|!=|in|not in) "
    r"|\b(if|elif|and|or) +\(?mode (==|!=|in|not in) "
    r"|network is (not )?None"
    r'|"(batched|sharded)" if engine'
)
BRANCH_SITE_CEILING = 12


def test_branch_site_ratchet():
    root = pathlib.Path(repro.__file__).parent
    sites = [
        f"{path.relative_to(root)}:{number}"
        for path in sorted(root.rglob("*.py"))
        if "analysis" not in path.relative_to(root).parts[:1]
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if BRANCH_IDIOMS.search(line)
    ]
    assert len(sites) <= BRANCH_SITE_CEILING, (
        "a driver asks 'network or engine?' again; use sim.host / "
        f"make_simulator (repro.sim.host) instead: {sites}"
    )
