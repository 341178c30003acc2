"""The host surface, as one matrix (:mod:`repro.sim.host`).

Every host ``make_simulator`` can build — plus the sharded engine, which
only ``FastSimulator.from_states(mode="sharded")`` builds, and the two
mirror oracles of ``tests/reference_mirror.py`` the differential tests
run — is built from the same states as a reference ``Network`` and asked
every ``Host`` call.  Each call agrees with the reference: never ``AttributeError`` (the
monitors used to die on the sharded and plain-mirror hosts), never a
silent no-op (the sharded engine's state faults used to report work and
do none).  Every fault injector is then run on every host: it perturbs the
host or raises the documented refusal.
"""

from __future__ import annotations

import copy
import importlib
import pathlib
import pkgutil
import re
from typing import Protocol

import numpy as np
import pytest

import repro
from repro.core.messages import lin
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
from repro.sim.fast import FastEngine, FastSimulator
from repro.sim.fast.buffers import LIN, Outbox
from repro.sim.fast.shard import ShardedEngine
from repro.sim.fast.shard.core import ShardCore
from repro.sim.fast.soa import SoAState
from repro.sim.host import ENGINES, make_simulator
from repro.sim.invariants import InvariantViolation
from repro.sim.network import Network
from repro.topology.generators import TOPOLOGIES
from tests.reference_mirror import MirrorEngine, mirror_simulator

N = 24

#: host id → how to build it: every (engine, wire) pair of make_simulator,
#: the sharded engine, then the mirror oracles.
BUILDERS = {
    "reference": lambda s: make_simulator(s, engine="reference", rng=5),
    "reference+wire": lambda s: make_simulator(s, engine="reference", wire=True, rng=5),
    "fast": lambda s: make_simulator(s, engine="fast", rng=5),
    "fast+wire": lambda s: make_simulator(s, engine="fast", wire=True, rng=5),
    "sharded": lambda s: FastSimulator.from_states(s, mode="sharded", rng=5),
    "mirror": lambda s: mirror_simulator(s, rng=5),
    "mirror+wire": lambda s: mirror_simulator(s, wire=True, rng=5),
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
        "in_flight": sorted(host.in_flight, key=repr),
    }


def test_every_engine_name_is_in_the_matrix():
    assert {name.split("+")[0] for name in BUILDERS} >= set(ENGINES)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_wire_is_one_row_of_the_matrix(name):
    """Every host answers ``host.wire``: ``None`` without a wire, else the
    stage with the fault surface; a campaign refuses wire faults on
    exactly the wireless hosts."""
    sim = BUILDERS[name](_states("line"))
    wire = sim.host.wire
    assert (wire is not None) == name.endswith("+wire")
    plan = FaultPlan(seed=3).schedule(MessageLoss(rate=0.5), start=0, stop=2, label="loss")
    if wire is None:
        with pytest.raises(TypeError, match="has no wire"):
            ChaosCampaign(sim, plan)
        return
    assert wire.tick == 0 and wire.wire_faults == [] and wire.guard is None
    ChaosCampaign(sim, plan).run(1)
    assert wire.tick == 1 and wire.wire_faults == []
    wire.set_wire_faults(plan.active_wire_faults(0))
    assert len(wire.wire_faults) == 1


def test_sharded_with_wire_names_the_missing_transport(states):
    """The sharded engine has no wire transport at its one door, and
    ``make_simulator`` builds the reference and the batched engine only."""
    with pytest.raises(ValueError, match="no wire transport"):
        FastSimulator.from_states(states, mode="sharded", wire=True)
    for engine in ("sharded", "warp"):
        with pytest.raises(ValueError, match="unknown engine.*reference, fast$"):
            make_simulator(states, engine=engine)
    with pytest.raises(TypeError, match="mode"):
        make_simulator(states, engine="fast", mode="sharded")


def test_dedup_is_a_reference_engine_option(states):
    """The multiset channel model lives on the reference engine:
    ``dedup=False`` builds a ``Network`` whose channels keep every copy,
    while the fast engine always coalesces and takes no ``dedup``."""
    for dedup, held in ((False, 2), (True, 1)):
        network = make_simulator(copy.deepcopy(states), engine="reference", dedup=dedup).host
        assert isinstance(network, Network)
        dest = network.ids[0]
        network.send(dest, lin(network.ids[1]))
        network.send(dest, lin(network.ids[1]))
        network.flush()
        assert len(network.channel(dest)) == held
    for dedup in (True, False):
        with pytest.raises(TypeError, match="dedup"):
            make_simulator(states, engine="fast", dedup=dedup)


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
    assert len(sim.host.in_flight) >= sim.host.pending_total() > 0
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
    for name in (*ENGINES, "sharded"):
        sim = BUILDERS[name](copy.deepcopy(states))
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
        return TypeError  # no scheduler to swap, no wave fault to install
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


@pytest.mark.parametrize("name", sorted(n for n in BUILDERS if n.endswith("+wire")))
def test_check_invariants_reads_the_wire(name):
    """A non-member identifier held on the wire fails ``check_invariants``
    on every host with a wire, with the reference's message (the chaos
    mirror's used to pass: its check read no wire)."""
    sim = BUILDERS[name](_states("stable"))
    sim.run(2)
    host = sim.host
    host.check_invariants()
    dest, origin = host.ids[0], host.ids[1]
    stranger = float(np.nextafter(dest, 1.0))
    assert stranger not in host
    if name == "fast+wire":
        host.outbox.send(
            LIN, np.array([dest]), np.array([stranger]), origin=np.array([origin])
        )
        assert host.wire.send(host.outbox.take_all(), host.soa) == 0
    else:
        host.wire.dispatch(origin, dest, lin(stranger))
    assert (dest, lin(stranger)) in host.in_flight
    with pytest.raises(InvariantViolation) as raised:
        host.check_invariants()
    assert str(raised.value) == (
        f"in-flight {lin(stranger)!r} carries non-member {stranger}"
    )


# ----------------------------------------------------------------------
# The ladders stay deleted
# ----------------------------------------------------------------------
#: The network-or-engine branch idioms (ISSUE 19): 68 sites before the
#: host surface.  What remains is named in CHANGES.md — the two
#: constructors' own tables, SchedulerFault's two mechanisms, the wire
#: capability check, e22's speed-up leg, MessageDelay's own mode.
BRANCH_IDIOMS = re.compile(
    r'getattr\((sim|simulator|self\.simulator), "(network|engine|scheduler)"'
    r"|isinstance\((network|host|target|sim), (Network|Simulator)\)"
    r'|hasattr\((sim|host|engine|simulator), "'
    r"|\b(if|elif|and|or|not) +\(?engine (==|!=|in|not in) "
    r"|\b(if|elif|and|or) +\(?mode (==|!=|in|not in) "
    r"|network is (not )?None"
    r'|"(batched|sharded)" if engine'
)
BRANCH_SITE_CEILING = 8


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


def test_membership_has_one_path():
    """Column-backed hosts join and leave through their batch writers
    only: ``join``/``leave`` exist once in ``repro.sim.fast``, on
    ``SoAHost``, as batches of one (the scalar oracles, ``Network`` and the
    mirror, keep their own), and the purge rule exists once, in
    ``departure_sweep``."""
    fast_root = pathlib.Path(repro.__file__).parent / "sim" / "fast"
    defined = set()
    for info in pkgutil.walk_packages([str(fast_root)], prefix="repro.sim.fast."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == info.name:
                own = {"join", "leave"} & set(vars(cls))
                defined |= {f"{cls.__name__}.{name}" for name in own}
    assert defined == {"SoAHost.join", "SoAHost.leave"}
    for name in ("add", "remove", "scrub_departed"):
        assert not hasattr(SoAState, name)
    for name in ("drop_dest", "purge_mentions"):
        assert not hasattr(Outbox, name)
    callers = {
        path.name
        for path in fast_root.rglob("*.py")
        if re.search(r"(?<!def )victim_rank\(", path.read_text())
    }
    assert callers == {"buffers.py"}


#: The in-flight readers the SoA hosts used to keep beside each other.
GONE_READERS = {
    "pending_messages", "inflight_pairs", "pending_by_type", "pair_columns",
    "_concat_pairs",
}
IN_FLIGHT_NAME = re.compile(r"in_?flight|pending(?!_total$)")


def test_in_flight_has_one_reader():
    """Each SoA engine reads its undelivered messages once, with
    ``in_flight_rows``; ``in_flight`` and ``in_flight_id_pairs`` are
    derived once, on ``SoAHost``."""
    fast_root = pathlib.Path(repro.__file__).parent / "sim" / "fast"
    owners: dict[str, set[str]] = {}
    engines = []
    for info in pkgutil.walk_packages([str(fast_root)], prefix="repro.sim.fast."):
        module = importlib.import_module(info.name)
        for name in GONE_READERS & set(vars(module)):
            owners.setdefault(name, set()).add(info.name)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == info.name:
                for name in vars(cls):
                    owners.setdefault(name, set()).add(cls.__name__)
                if cls.__name__.endswith("Engine"):
                    engines.append(cls)
    left = GONE_READERS & set(owners)
    assert not left, {name: owners[name] for name in left}
    assert owners["in_flight"] == owners["in_flight_id_pairs"] == {"SoAHost"}
    assert {cls.__name__ for cls in engines} == {"FastEngine", "ShardedEngine"}
    for cls in (*engines, MirrorEngine):
        readers = {name for name in vars(cls) if IN_FLIGHT_NAME.search(name)}
        assert readers == {"in_flight_rows"}, cls.__name__


def _classes_under(package: str) -> list[type]:
    """Every class defined in a module of *package* (its modules imported)."""
    root = importlib.import_module(package)
    names = [package] + [
        info.name for info in pkgutil.walk_packages(root.__path__, prefix=package + ".")
    ]
    return [
        cls
        for name in names
        for cls in vars(importlib.import_module(name)).values()
        if isinstance(cls, type) and cls.__module__ == name
    ]


def test_four_engine_shaped_classes():
    """An engine is a host class that counts and lists what is in flight
    (``Host`` itself, a protocol, only describes one).
    The wire is a stage every host holds (``host.wire``), not a subclass,
    and the mirror oracle lives in ``tests/``: four engine-shaped classes,
    and no engine subclassed but the shard core."""
    engines = {
        cls.__name__
        for cls in _classes_under("repro.sim")
        if hasattr(cls, "pending_total") and hasattr(cls, "in_flight")
        and Protocol not in cls.__mro__
    }
    assert engines == {"Network", "FastEngine", "ShardCore", "ShardedEngine"}
    subclasses = {
        cls.__name__
        for cls in _classes_under("repro")
        if issubclass(cls, (Network, FastEngine))
        and cls not in (Network, FastEngine)
    }
    assert subclasses == {"ShardCore"}
    assert issubclass(ShardCore, FastEngine) and ShardedEngine.wire is None
    for hook in ("has_wire", "_take_wire", "_close_round", "_after_leave_batch"):
        assert not hasattr(FastEngine, hook), hook
