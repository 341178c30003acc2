"""Property-based tests (hypothesis) for the substrates.

* forget schedule: φ ∈ [0,1), survival telescopes, sampling bounds;
* harmonic pmf: normalization, monotonicity in distance;
* greedy routing: terminates, never beats the ring-distance lower bound;
* probe replay: hop counts bounded by distance, monotone under shortcuts;
* topology encoding: weak connectivity for arbitrary connected graphs;
* serialization: exact roundtrip for arbitrary legal states.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forget import forget_probability, survival
from repro.ids import generate_ids
from repro.moveforget.harmonic import harmonic_offset_pmf, sample_harmonic_offsets
from repro.routing.greedy import greedy_route_hops
from repro.serve.routing import RouteView, route_batch
from repro.topology.encode import assert_weakly_connected, encode_graph
from repro.topology.serialization import states_from_json, states_to_json


@settings(max_examples=200, deadline=None)
@given(age=st.integers(0, 10**6), eps=st.floats(0.01, 2.0))
def test_phi_is_a_probability(age, eps):
    p = forget_probability(age, eps)
    assert 0.0 <= p < 1.0


@settings(max_examples=100, deadline=None)
@given(m=st.integers(4, 500), eps=st.floats(0.05, 1.0))
def test_survival_recurrence(m, eps):
    """S(m+1) = S(m) · (1 − φ(m)) — the defining recurrence."""
    lhs = survival(m + 1, eps)
    rhs = survival(m, eps) * (1.0 - forget_probability(m, eps))
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 400))
def test_harmonic_pmf_normalized_and_symmetric(n):
    pmf = harmonic_offset_pmf(n)
    assert abs(pmf.sum() - 1.0) < 1e-9
    assert np.allclose(pmf, pmf[::-1])  # offset o ↔ n−o have equal distance


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**31 - 1))
def test_harmonic_samples_in_support(n, seed):
    rng = np.random.default_rng(seed)
    out = sample_harmonic_offsets(n, 100, rng)
    assert out.min() >= 1 and out.max() <= n - 1


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(4, 256),
    seed=st.integers(0, 2**31 - 1),
    queries=st.integers(1, 20),
)
def test_greedy_terminates_and_respects_lower_bound(n, seed, queries):
    rng = np.random.default_rng(seed)
    lrl = rng.integers(0, n, size=n)
    src = rng.integers(0, n, size=queries)
    dst = rng.integers(0, n, size=queries)
    hops = greedy_route_hops(n, lrl, src, dst)
    assert (hops >= 0).all()
    # A hop moves at most max(1, shortcut) — but never fewer hops than 1
    # for distinct endpoints, and 0 for identical ones.
    d = np.abs(src - dst)
    ring_d = np.minimum(d, n - d)
    assert ((hops == 0) == (ring_d == 0)).all()
    assert (hops <= ring_d).all()  # greedy never loses to the plain ring


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4, 256), seed=st.integers(0, 2**31 - 1))
def test_probe_hops_bounded_by_distance(n, seed):
    rng = np.random.default_rng(seed)
    lrl = rng.integers(0, n, size=n)
    src = rng.integers(0, n, size=10)
    dst = rng.integers(0, n, size=10)
    # Algorithm 10's origin ring hop, then Algorithms 5/6, as E3 walks it.
    walk = route_batch(RouteView.from_ranks(lrl), src + np.sign(dst - src), dst)
    assert walk.ok.all()
    hops = walk.hops + (dst != src)
    assert (hops <= np.abs(dst - src)).all()
    assert ((hops == 0) == (src == dst)).all()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 40),
    extra_edges=st.integers(0, 60),
    seed=st.integers(0, 2**31 - 1),
)
def test_encode_graph_always_weakly_connected(n, extra_edges, seed):
    rng = np.random.default_rng(seed)
    g = nx.random_labeled_tree(n, seed=int(rng.integers(2**31 - 1)))
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            g.add_edge(int(u), int(v))
    states = encode_graph(g, generate_ids(n, rng), rng)
    assert_weakly_connected(states)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**31 - 1))
def test_serialization_roundtrip_arbitrary_states(n, seed):
    rng = np.random.default_rng(seed)
    g = nx.random_labeled_tree(n, seed=int(rng.integers(2**31 - 1))) if n > 1 else nx.Graph([(0, 0)])
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
    states = encode_graph(g, generate_ids(n, rng), rng)
    for s in states:
        s.corrupt(age=int(rng.integers(0, 1000)))
    restored = states_from_json(states_to_json(states))
    assert len(restored) == len(states)
    for a, b in zip(states, restored):
        assert (a.id, a.l, a.r, a.lrl, a.ring, a.age) == (
            b.id,
            b.l,
            b.r,
            b.lrl,
            b.ring,
            b.age,
        )
