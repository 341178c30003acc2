"""Property-based tests (hypothesis) for the protocol core.

Invariants checked on randomly generated states and inputs:

* handlers never emit messages carrying ±∞ or out-of-range identifiers
  (compare-store-send discipline, DESIGN.md §4.2);
* handlers never break the model invariant ``l < id < r``;
* ``linearize`` never *lengthens* a stored link (Lemma 4.11's direction);
* handlers never lose identifiers: every id the node knew before is either
  still stored or was forwarded inside a message (the connectivity-
  preservation core of Lemma 4.10);
* copies of one single-id message leave the state one copy leaves, and
  copies of one ``reslrl`` may not (DESIGN.md §4.7, channel semantics).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Message, MessageType, reslrl
from repro.core.node import Node
from repro.core.protocol import ProtocolConfig
from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF

# Identifier values on a coarse grid: collisions (equal ids in different
# roles) are exactly the corner cases we want hypothesis to hammer.
id_values = st.integers(min_value=0, max_value=19).map(lambda k: k / 20)


@st.composite
def node_states(draw) -> NodeState:
    nid = draw(id_values)
    state = NodeState(id=nid)
    smaller = [v / 20 for v in range(20) if v / 20 < nid]
    larger = [v / 20 for v in range(20) if v / 20 > nid]
    if smaller and draw(st.booleans()):
        state.corrupt(l=draw(st.sampled_from(smaller)))
    if larger and draw(st.booleans()):
        state.corrupt(r=draw(st.sampled_from(larger)))
    state.corrupt(lrl=draw(id_values))
    if draw(st.booleans()):
        state.corrupt(ring=draw(id_values))
    state.corrupt(age=draw(st.integers(min_value=0, max_value=50)))
    return state


@st.composite
def messages(draw) -> Message:
    mtype = draw(st.sampled_from(list(MessageType)))
    if mtype is MessageType.RESLRL:
        responder = draw(id_values)
        which = draw(st.integers(0, 2))
        if which == 0:
            return Message(mtype, (responder, draw(id_values), draw(id_values)))
        if which == 1:
            return Message(mtype, (responder, NEG_INF, draw(id_values)))
        return Message(mtype, (responder, draw(id_values), POS_INF))
    return Message(mtype, (draw(id_values),))


class Collector:
    def __init__(self):
        self.sent = []

    def __call__(self, dest, message):
        self.sent.append((dest, message))


def check_model_invariants(state: NodeState) -> None:
    assert state.l == NEG_INF or state.l < state.id
    assert state.r == POS_INF or state.r > state.id
    assert 0.0 <= state.lrl < 1.0
    assert state.ring is None or 0.0 <= state.ring < 1.0
    assert state.age >= 0


@settings(max_examples=300, deadline=None)
@given(state=node_states(), message=messages(), seed=st.integers(0, 2**31 - 1))
def test_any_message_preserves_invariants(state, message, seed):
    node = Node(state, ProtocolConfig())
    out = Collector()
    node.on_message(message, out, np.random.default_rng(seed))
    check_model_invariants(node.state)
    for dest, m in out.sent:
        assert 0.0 <= dest < 1.0
        for payload in m.ids:
            assert payload == NEG_INF or payload == POS_INF or 0.0 <= payload < 1.0
        if m.type is not MessageType.RESLRL:
            assert 0.0 <= m.ids[0] < 1.0  # single-id payloads always real


@settings(max_examples=300, deadline=None)
@given(state=node_states(), seed=st.integers(0, 2**31 - 1))
def test_regular_action_preserves_invariants(state, seed):
    node = Node(state, ProtocolConfig())
    out = Collector()
    node.regular_action(out, np.random.default_rng(seed))
    check_model_invariants(node.state)
    for dest, _m in out.sent:
        assert 0.0 <= dest < 1.0


@settings(max_examples=300, deadline=None)
@given(state=node_states(), incoming=id_values)
def test_linearize_only_shortens_stored_links(state, incoming):
    node = Node(state, ProtocolConfig())
    l0, r0 = node.state.l, node.state.r
    node.linearize(incoming, Collector())
    # Lemma 4.11: stored links only ever get closer.
    assert node.state.l >= l0
    assert node.state.r <= r0


@settings(max_examples=300, deadline=None)
@given(state=node_states(), incoming=id_values)
def test_linearize_never_loses_identifiers(state, incoming):
    """Every identifier known before is stored or forwarded afterwards."""
    node = Node(state, ProtocolConfig())
    known_before = node.state.known_ids() | {incoming}
    out = Collector()
    node.linearize(incoming, out)
    known_after = node.state.known_ids()
    in_messages = {payload for _, m in out.sent for payload in m.ids}
    in_messages |= {dest for dest, _ in out.sent}
    assert known_before <= known_after | in_messages


@settings(max_examples=200, deadline=None)
@given(state=node_states(), incoming=id_values, seed=st.integers(0, 2**31 - 1))
def test_update_ring_is_monotone(state, incoming, seed):
    node = Node(state, ProtocolConfig())
    before = node.state.ring
    # Branch on the PRE-state: the drop re-injection (linearize of the old
    # candidate) may legitimately set l/r as a side effect.
    had_left, had_right = node.state.has_left, node.state.has_right
    node.update_ring(incoming, Collector())
    after = node.state.ring
    if before is not None and after != before:
        if not had_left:
            assert after > before  # min-seeking-max only grows
        elif not had_right:
            assert after < before  # max-seeking-min only shrinks


SINGLE_ID_TYPES = [t for t in MessageType if t is not MessageType.RESLRL]


@settings(max_examples=300, deadline=None)
@given(
    state=node_states(),
    mtype=st.sampled_from(SINGLE_ID_TYPES),
    payload=id_values,
    copies=st.sampled_from([2, 3]),
)
def test_single_id_copies_leave_the_state_of_one(state, mtype, payload, copies):
    """Coalescing identical single-id messages is idempotent in state: k
    copies handled in a row leave what one copy leaves (their sends may
    differ: a ``lin`` that is not adopted is forwarded once per copy)."""
    message = Message(mtype, (payload,))
    once = Node(state.copy(), ProtocolConfig())
    once.on_message(message, Collector(), np.random.default_rng(0))
    many = Node(state.copy(), ProtocolConfig())
    for _ in range(copies):
        many.on_message(message, Collector(), np.random.default_rng(0))
    assert many.state.as_tuple() == once.state.as_tuple()


def test_reslrl_copies_are_not_idempotent():
    """A token at home gets the reply its own ``respond_lrl`` emits.  One
    copy steps the token and forgets it (back home, age 0); the home
    responder then matches ``lrl`` again, so a second identical copy steps
    it once more.  Coalescing ``reslrl`` copies changes the state."""
    state = NodeState(id=0.5, l=0.4, r=0.6, lrl=0.5, age=3)
    out = Collector()
    Node(state.copy(), ProtocolConfig()).respond_lrl(0.5, out)
    assert out.sent == [(0.5, reslrl(0.5, 0.4, 0.6))]
    reply = out.sent[0][1]
    node = Node(state, ProtocolConfig())
    rng = np.random.default_rng(0)
    node.on_message(reply, Collector(), rng)
    assert node.state.as_tuple() == (0.5, 0.4, 0.6, 0.5, None, 0)
    node.on_message(reply, Collector(), rng)
    assert node.state.as_tuple() == (0.5, 0.4, 0.6, 0.4, None, 1)
