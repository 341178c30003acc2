"""Micro-benchmarks of the hot kernels (throughput, not experiment tables).

These are proper multi-round pytest-benchmark measurements — the numbers
that matter when scaling the experiments up (see DESIGN.md §5):

* one synchronous protocol round on a stable 1k-node network;
* one vectorized move-and-forget step at 16k tokens;
* a 2k-query greedy routing batch at 16k nodes;
* harmonic sampling at 16k draws;
* the probe walk (route_batch) over a full 16k network;
* a serving batch: 8192 Zipf lookups walked by route_batch at 8k nodes;
* the same lookups one query per call, 1 000 calls (the single-lookup
  path, where a call's set-up and its block bookkeeping dominate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.kleinberg import kleinberg_lrl_ranks
from repro.core.protocol import ProtocolConfig, build_network
from repro.graphs.build import stable_ring_states
from repro.moveforget.harmonic import sample_harmonic_offsets
from repro.moveforget.process import RingMoveForgetProcess
from repro.routing.greedy import greedy_route_hops
from repro.serve.load import zipf_ranks
from repro.serve.routing import RouteView, route_batch
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def stable_sim_1k():
    rng = np.random.default_rng(0)
    states = stable_ring_states(1024, lrl="harmonic", rng=rng)
    net = build_network(states, ProtocolConfig())
    sim = Simulator(net, rng)
    sim.run(20)  # steady-state probe population
    return sim


def test_protocol_round_1k(benchmark, stable_sim_1k):
    benchmark(stable_sim_1k.step_round)


def test_moveforget_step_16k(benchmark):
    process = RingMoveForgetProcess(2**14, rng=np.random.default_rng(1))
    process.run(100)
    benchmark(process.step)


def test_greedy_batch_16k(benchmark):
    n = 2**14
    rng = np.random.default_rng(2)
    lrl = kleinberg_lrl_ranks(n, rng)
    src = rng.integers(0, n, 2000)
    dst = rng.integers(0, n, 2000)
    benchmark(greedy_route_hops, n, lrl, src, dst)


def test_harmonic_sampling_16k(benchmark):
    rng = np.random.default_rng(3)
    benchmark(sample_harmonic_offsets, 2**14, 2**14, rng)


def test_probe_replay_16k(benchmark):
    n = 2**14
    rng = np.random.default_rng(4)
    lrl = kleinberg_lrl_ranks(n, rng)
    src = np.arange(n)
    away = lrl != src
    # E3's probes: the origin's ring hop, then route_batch on the line.
    first = src[away] + np.sign(lrl[away] - src[away])
    benchmark(route_batch, RouteView.from_ranks(lrl), first, lrl[away])


@pytest.fixture(scope="module")
def zipf_8k():
    """The 8k-node line with Kleinberg links, 8192 Zipf lookups on it."""
    n = 2**13
    rng = np.random.default_rng(5)
    view = RouteView.from_ranks(kleinberg_lrl_ranks(n, rng))
    src = rng.integers(0, n, n)
    dst = zipf_ranks(rng, n, n)
    return view, src, dst


def test_route_batch_zipf_8k(benchmark, zipf_8k):
    benchmark(route_batch, *zipf_8k)


def test_route_batch_single_8k(benchmark, zipf_8k):
    view, src, dst = zipf_8k
    singles = [(src[i : i + 1], dst[i : i + 1]) for i in range(1000)]

    def one_at_a_time():
        for s, d in singles:
            route_batch(view, s, d)

    benchmark(one_at_a_time)
