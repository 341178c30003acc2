"""White-box consistency: the vectorized probe walker equals the live protocol.

The experiments (E3) and the serving layer measure probing cost with
:func:`repro.serve.routing.route_batch`; these tests pin it to the real
message flow.  With the long-range links frozen (``move_and_forget=False``)
the ring probe emitted by the minimal node each round advances one hop per
round through exactly the nodes the replay rule predicts — we trace the
live senders and compare them against a test-local reimplementation of
Algorithm 5's forwarding, then hold the walker to that same path.
"""

from __future__ import annotations

import numpy as np

from repro.core.messages import MessageType
from repro.core.protocol import ProtocolConfig, build_network
from repro.graphs.build import stable_ring_states
from repro.serve.routing import RouteView, route_batch
from repro.sim.engine import Simulator
from repro.sim.trace import Trace


def replay_path_ranks(n: int, lrl: np.ndarray, src: int, dst: int) -> list[int]:
    """Test-local Algorithm 5 walk (rightward), returning visited ranks."""
    assert dst > src
    path = [src, src + 1]  # Algorithm 10 emits to p.r
    cur = src + 1
    while cur != dst:
        shortcut = int(lrl[cur])
        if dst >= shortcut > cur + 1:
            cur = shortcut
        else:
            cur += 1
        path.append(cur)
    return path


def test_live_ring_probe_follows_replay_path():
    n = 48
    rng = np.random.default_rng(1234)
    states = stable_ring_states(n, lrl="harmonic", rng=rng)
    trace = Trace()
    cfg = ProtocolConfig(move_and_forget=False, trace=trace)
    # move_and_forget=False freezes lrl but also silences lrl probes; the
    # *ring* probe of the minimal node still runs every round and uses the
    # frozen lrl shortcuts while forwarding.
    net = build_network(states, cfg)
    sim = Simulator(net, rng)

    view = RouteView.from_states(net.states())
    lrl, ordered = view.lrl_rank, view.ids.tolist()
    expected_ranks = replay_path_ranks(n, lrl, 0, n - 1)
    expected_senders = {ordered[r] for r in expected_ranks[:-1]}

    sim.run(len(expected_ranks) + 5)

    min_id, max_id = ordered[0], ordered[-1]
    live_senders = {
        e.node
        for e in trace.sends(mtype=MessageType.PROBR)
        if e.message is not None and e.message.id == max_id
    }
    assert live_senders == expected_senders


def test_replay_hops_match_path_length():
    """The shipped walker, from the origin's ring neighbor (rank 1), takes
    the replay path id for id — the path the live probe is traced on."""
    n = 48
    rng = np.random.default_rng(99)
    states = stable_ring_states(n, lrl="harmonic", rng=rng)
    view = RouteView.from_states(states)
    path = replay_path_ranks(n, view.lrl_rank, 0, n - 1)
    walk = route_batch(view, np.array([1]), np.array([n - 1]), collect_paths=True)
    assert walk.ok.all() and walk.paths is not None
    assert walk.paths[0] == [float(view.ids[r]) for r in path[1:]]
    assert walk.hops[0] == len(path) - 2
