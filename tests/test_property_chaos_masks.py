"""Property tests: the vectorized wire-fault executors vs a scalar fold.

The exactness claim of :func:`repro.sim.fast.chaos.wire.apply_wire_faults`
(docs/CHAOS.md): for the shipped stochastic injectors — loss, duplication,
random-mode delay — a twin-seeded batched pass produces *the same ordered
deliveries and the same injector statistics* as folding the real
``on_wire`` methods over the rows one frame at a time, for any seed, any
rate, any chain composition, and any window schedule.  Hash-mode delay is
engine-specific by design (a different content hash), so its properties
are determinism, bounds, and retransmit stability rather than equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Message
from repro.sim.chaos.injectors import (
    MessageDelay,
    MessageDuplication,
    MessageLoss,
)
from repro.sim.chaos.plan import FaultPlan
from repro.sim.fast.buffers import RESLRL, TYPE_OF_CODE
from repro.sim.fast.chaos.wire import WireRows, apply_wire_faults

#: A small id pool keeps destination collisions (and thus dedup-adjacent
#: paths) common without loss of generality.
ID_POOL = tuple(round(0.05 + 0.9 * k / 17, 6) for k in range(18))

row_strategy = st.tuples(
    st.sampled_from(ID_POOL),  # dest
    st.integers(min_value=0, max_value=6),  # tcode
    st.sampled_from(ID_POOL),  # a
    st.sampled_from(ID_POOL),  # b (used only by reslrl)
    st.sampled_from(ID_POOL),  # c (used only by reslrl)
)

chain_strategy = st.lists(
    st.one_of(
        st.builds(
            MessageLoss,
            rate=st.floats(min_value=0.0, max_value=0.95),
        ),
        st.builds(
            MessageDuplication,
            rate=st.floats(min_value=0.0, max_value=1.0),
            copies=st.integers(min_value=1, max_value=3),
        ),
        st.builds(
            MessageDelay, max_delay=st.integers(min_value=0, max_value=5)
        ),
    ),
    min_size=1,
    max_size=4,
)


def build_rows(rows: list[tuple]) -> WireRows:
    dest = np.array([r[0] for r in rows], dtype=np.float64)
    tcode = np.array([r[1] for r in rows], dtype=np.int8)
    a = np.array([r[2] for r in rows], dtype=np.float64)
    b = np.array([r[3] for r in rows], dtype=np.float64)
    c = np.array([r[4] for r in rows], dtype=np.float64)
    return WireRows.build(dest, tcode, a, b, c)


def clone_chain(chain: list) -> list:
    """Structural twins of *chain* (fresh instances, same parameters)."""
    clones = []
    for inj in chain:
        if isinstance(inj, MessageLoss):
            clones.append(MessageLoss(rate=inj.rate))
        elif isinstance(inj, MessageDuplication):
            clones.append(
                MessageDuplication(rate=inj.rate, copies=inj.copies)
            )
        else:
            clones.append(MessageDelay(max_delay=inj.max_delay, mode=inj.mode))
    return clones


def bind_chain(chain: list, seed: int) -> list:
    for k, inj in enumerate(chain):
        inj.bind(np.random.default_rng([seed, k]))
    return chain


def scalar_fold(rows: list[tuple], chain: list) -> list[tuple]:
    """The reference semantics: each frame through the whole chain, one
    ``on_wire`` call at a time (``ScalarWire._transmit``'s loop)."""
    out: list[tuple] = []
    for dest, tcode, a, b, c in rows:
        if tcode == RESLRL:
            frame = Message(TYPE_OF_CODE[tcode], (a, b, c))
        else:
            frame = Message(TYPE_OF_CODE[tcode], (a,))
        deliveries = [(0, dest, frame)]
        for inj in chain:
            rewritten = []
            for extra, dst, frm in deliveries:
                result = inj.on_wire(dst, frm, None)
                if result is None:
                    rewritten.append((extra, dst, frm))
                else:
                    rewritten.extend(
                        (extra + more, dst2, frm2)
                        for more, dst2, frm2 in result
                    )
            deliveries = rewritten
        for extra, dst, frm in deliveries:
            out.append((extra, dst, tcode, frm.ids))
    return out


def batched_outcomes(rows: WireRows, extra: np.ndarray) -> list[tuple]:
    out = []
    for k in range(len(rows)):
        tcode = int(rows.tcode[k])
        if tcode == RESLRL:
            ids = (float(rows.a[k]), float(rows.b[k]), float(rows.c[k]))
        else:
            ids = (float(rows.a[k]),)
        out.append((int(extra[k]), float(rows.dest[k]), tcode, ids))
    return out


def stat_snapshot(chain: list) -> list[tuple]:
    snap = []
    for inj in chain:
        if isinstance(inj, MessageLoss):
            snap.append(("loss", inj.dropped))
        elif isinstance(inj, MessageDuplication):
            snap.append(("dup", inj.duplicated))
        else:
            snap.append(("delay", inj.delayed))
    return snap


@settings(max_examples=120, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=0, max_size=40),
    chain=chain_strategy,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batched_fold_matches_scalar_fold(rows, chain, seed) -> None:
    """Ordered deliveries and injector stats agree exactly."""
    batched_chain = bind_chain(chain, seed)
    scalar_chain = bind_chain(clone_chain(chain), seed)
    out_rows, extra = apply_wire_faults(build_rows(rows), batched_chain)
    expected = scalar_fold(rows, scalar_chain)
    assert batched_outcomes(out_rows, extra) == expected
    assert stat_snapshot(batched_chain) == stat_snapshot(scalar_chain)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=25),
    rate=st.floats(min_value=0.05, max_value=0.9),
    start=st.integers(min_value=0, max_value=5),
    length=st.integers(min_value=1, max_value=6),
    period=st.integers(min_value=1, max_value=3),
    plan_seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.integers(min_value=1, max_value=12),
)
def test_windowed_schedule_matches_scalar_fold(
    rows, rate, start, length, period, plan_seed, horizon
) -> None:
    """Twin plans drive twin windowed chains to identical outcomes
    round by round (generator state carries across rounds)."""
    plans = [
        FaultPlan(seed=plan_seed).schedule(
            MessageLoss(rate=rate),
            start=start,
            stop=start + length,
            period=period,
            label="windowed-loss",
        )
        for _ in range(2)
    ]
    for r in range(horizon):
        batched_chain = plans[0].active_wire_faults(r)
        scalar_chain = plans[1].active_wire_faults(r)
        assert len(batched_chain) == len(scalar_chain)
        out_rows, extra = apply_wire_faults(build_rows(rows), batched_chain)
        expected = scalar_fold(rows, scalar_chain)
        assert batched_outcomes(out_rows, extra) == expected


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(row_strategy, min_size=1, max_size=25),
    max_delay=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_hash_delay_deterministic_and_bounded(rows, max_delay, seed) -> None:
    """Hash-mode delay: pure function of content — repeatable, within
    ``[0, max_delay]``, no RNG draws consumed, stats only for delay>0."""
    chain = bind_chain([MessageDelay(max_delay=max_delay, mode="hash")], seed)
    rng_state_before = chain[0].rng.bit_generator.state
    out1, extra1 = apply_wire_faults(build_rows(rows), chain)
    out2, extra2 = apply_wire_faults(build_rows(rows), chain)
    assert chain[0].rng.bit_generator.state == rng_state_before
    assert np.array_equal(extra1, extra2)
    assert len(out1) == len(rows) == len(out2)
    assert extra1.min() >= 0 and extra1.max() <= max_delay if len(rows) else True
    assert chain[0].delayed == 2 * int((extra1 > 0).sum())
