"""Unit tests for per-node state (repro.core.state)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import NodeState
from repro.ids import NEG_INF, POS_INF, require_id


class TestConstruction:
    def test_defaults(self):
        s = NodeState(id=0.5)
        assert s.l == NEG_INF
        assert s.r == POS_INF
        assert s.lrl == 0.5  # token at home
        assert s.ring is None
        assert s.age == 0

    def test_explicit_neighbors(self):
        s = NodeState(id=0.5, l=0.2, r=0.8)
        assert s.l == 0.2 and s.r == 0.8

    def test_rejects_bad_id(self):
        with pytest.raises(ValueError):
            NodeState(id=1.5)

    def test_rejects_l_not_smaller(self):
        with pytest.raises(ValueError, match="smaller"):
            NodeState(id=0.5, l=0.7)

    def test_rejects_r_not_greater(self):
        with pytest.raises(ValueError, match="greater"):
            NodeState(id=0.5, r=0.3)

    def test_rejects_negative_age(self):
        with pytest.raises(ValueError, match="age"):
            NodeState(id=0.5, age=-1)

    def test_rejects_sentinel_lrl(self):
        with pytest.raises(ValueError):
            NodeState(id=0.5, lrl=POS_INF)


class TestPredicates:
    def test_has_left_right(self):
        s = NodeState(id=0.5, l=0.2, r=0.8)
        assert s.has_left and s.has_right
        assert not s.needs_ring

    def test_needs_ring_when_missing_left(self):
        assert NodeState(id=0.5, r=0.8).needs_ring

    def test_needs_ring_when_missing_right(self):
        assert NodeState(id=0.5, l=0.2).needs_ring

    def test_lrl_at_home(self):
        s = NodeState(id=0.5)
        assert s.lrl_at_home
        s.lrl = 0.7
        assert not s.lrl_at_home

    def test_known_ids(self):
        s = NodeState(id=0.5, l=0.2, r=0.8, lrl=0.9, ring=0.1)
        assert s.known_ids() == {0.5, 0.2, 0.8, 0.9, 0.1}

    def test_known_ids_skips_sentinels_and_none(self):
        s = NodeState(id=0.5)
        assert s.known_ids() == {0.5}


class TestCorrupt:
    def test_corrupt_sets_fields(self):
        s = NodeState(id=0.5)
        s.corrupt(l=0.1, r=0.9, lrl=0.3, ring=0.7, age=10)
        assert (s.l, s.r, s.lrl, s.ring, s.age) == (0.1, 0.9, 0.3, 0.7, 10)

    def test_corrupt_preserves_order_invariant(self):
        s = NodeState(id=0.5)
        with pytest.raises(ValueError):
            s.corrupt(l=0.6)
        with pytest.raises(ValueError):
            s.corrupt(r=0.4)

    def test_corrupt_allows_sentinels(self):
        s = NodeState(id=0.5, l=0.2, r=0.8)
        s.corrupt(l=NEG_INF, r=POS_INF)
        assert s.needs_ring

    def test_corrupt_rejects_negative_age(self):
        with pytest.raises(ValueError):
            NodeState(id=0.5).corrupt(age=-3)

    def test_corrupt_none_means_unchanged(self):
        s = NodeState(id=0.5, l=0.2)
        s.corrupt(r=0.9)
        assert s.l == 0.2


class TestCopy:
    def test_copy_is_independent(self):
        s = NodeState(id=0.5, l=0.2)
        c = s.copy()
        c.l = NEG_INF
        assert s.l == 0.2

    def test_repr_mentions_fields(self):
        text = repr(NodeState(id=0.5))
        assert "id=0.5" in text and "ring=None" in text


def checked_reference(nid, l, r, lrl, ring, age):
    """The constructor's checks as one ``require_id`` per field, in field
    order: the rule the fast path of ``NodeState.__post_init__`` keeps.
    Returns the fields it would store."""
    require_id(nid, what="node id")
    if lrl == -1.0:
        lrl = nid
    require_id(lrl, what="lrl")
    if ring is not None:
        require_id(ring, what="ring")
    if l != NEG_INF:
        require_id(l, what="l")
        if not l < nid:
            raise ValueError(f"l must be smaller than the node id ({l} >= {nid})")
    if r != POS_INF:
        require_id(r, what="r")
        if not r > nid:
            raise ValueError(f"r must be greater than the node id ({r} <= {nid})")
    if age < 0:
        raise ValueError(f"age must be non-negative, got {age}")
    return (nid, l, r, lrl, ring, age)


#: Values on both sides of every check: in-range floats and their edges,
#: ints, numpy floats, the sentinels, NaN and out-of-range ids.
any_value = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from([0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0, -0.0, -1e-300]),
    st.sampled_from([NEG_INF, POS_INF, float("nan"), 1.5, -0.5, -1.0]),
    st.integers(min_value=-2, max_value=2),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(np.float64),
    st.sampled_from([np.float32(0.25), np.float64(NEG_INF), np.float64(np.nan)]),
)


@settings(max_examples=400, deadline=None)
@given(
    nid=any_value,
    l=any_value,
    r=any_value,
    lrl=st.one_of(any_value, st.just(-1.0)),
    ring=st.one_of(st.none(), any_value),
    age=st.integers(min_value=-2, max_value=3),
)
def test_constructor_checks_match_require_id_rule(nid, l, r, lrl, ring, age):
    """Same error message, or the same stored fields, on every input."""
    try:
        expected = checked_reference(nid, l, r, lrl, ring, age)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            NodeState(nid, l, r, lrl, ring, age)
        assert str(raised.value) == str(error)
        return
    state = NodeState(nid, l, r, lrl, ring, age)
    got = (state.id, state.l, state.r, state.lrl, state.ring, state.age)
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert repr(got) == repr(expected)
