"""The sender column is staged exactly where it is read.

Every send of :class:`~repro.sim.fast.kernels.Kernels` goes through
``Kernels._send``, which gathers the sender-id column (``origin``) only into
an outbox whose ``keep_origin`` is set.  The chaos wire is its one reader
(the guard wraps rows and addresses acks by it), so a wired ``FastEngine``
turns it on and nothing else does.  Here every one of the send sites is
driven on single-node batches — where the sender of every staged row is
known — on each engine: on the wired engine each row's ``origin`` is its
sender's id, on a wireless ``FastEngine`` and on every ``ShardCore`` it is
``None``.
The chaos wire's pinned traces and the serving hop-trace digest are held
by ``tests/test_fast_chaos.py`` and ``tests/test_serve_routing.py``.
"""

from __future__ import annotations

import ast
import inspect
import sys

import numpy as np
import pytest

from repro.sim.fast import kernels as kernels_module
from repro.sim.fast.buffers import Outbox
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.sanitize import FlowSanitizer, SanitizedOutbox
from repro.sim.host import make_simulator
from repro.sim.metrics import MessageStats
from repro.topology.generators import TOPOLOGIES


def send_sites() -> list[tuple[int, int]]:
    """Line spans of every ``self._send(...)`` call in ``Kernels``."""
    tree = ast.parse(inspect.getsource(kernels_module))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Kernels"
    ]
    return sorted(
        (node.lineno, node.end_lineno or node.lineno)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_send"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    )


SITES = send_sites()


def calling_site() -> int:
    """Index into :data:`SITES` of the ``self._send(...)`` call on the stack:
    the caller of the innermost ``Kernels._send`` frame, however many
    wrappers sit between it and the outbox."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not kernels_module.Kernels._send.__code__:
        frame = frame.f_back
    assert frame is not None and frame.f_back is not None, "send not made through Kernels._send"
    line = frame.f_back.f_lineno
    sites = [k for k, (lo, hi) in enumerate(SITES) if lo <= line <= hi]
    assert len(sites) == 1, f"kernels.py:{line} is not one of the self._send(...) sites"
    return sites[0]


class RecordingOutbox:
    """Forwards every send to the engine's outbox and remembers the site of
    the ``Kernels._send`` call it came from, with the staged ``origin``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.sent: list[tuple[int, int, np.ndarray | None]] = []

    def send(self, code, dest, a, b=None, c=None, origin=None) -> None:
        self.sent.append((calling_site(), len(dest), origin))
        self.inner.send(code, dest, a, b, c, origin=origin)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def drive_every_site(kernels, seed: int) -> list[tuple[int, float, int, np.ndarray | None]]:
    """Run every handler on one-node batches of assorted payloads.

    Returns ``(site, sender id, rows, origin)`` per staged send.
    """
    rng = np.random.default_rng(seed)
    soa = kernels.soa
    recorder = RecordingOutbox(kernels.out)
    kernels.out = recorder
    handlers = (
        kernels.linearize,
        kernels.respond_lrl,
        kernels.probing_r,
        kernels.probing_l,
        kernels.respond_ring,
        kernels.update_ring,
    )
    staged = []
    try:
        for _ in range(3):
            for slot in soa.sorted_live()[1].tolist():
                idx = np.array([slot])
                sender = float(soa.ids[slot])
                before = len(recorder.sent)
                kernels.regular_action(idx)
                live = soa.sorted_live()[0]
                for handler in handlers:
                    for payload in rng.choice(live, size=3):
                        handler(idx, np.array([payload]))
                staged += [
                    (site, sender, rows, origin)
                    for site, rows, origin in recorder.sent[before:]
                ]
    finally:
        kernels.out = recorder.inner
    return staged


def engines(kind: str, seed: int):
    """The engine(s) of *kind* over a small shuffled overlay, and their
    kernels (one per shard core on the sharded engine)."""
    topology = ("line", "star", "random_tree", "corrupted_ring")[seed % 4]
    states = TOPOLOGIES[topology](24, np.random.default_rng(seed))
    if kind == "chaos":
        engine = make_simulator(states, engine="fast", wire=True, rng=seed).engine
    else:
        mode = "sharded" if kind == "shard" else "batched"
        engine = FastSimulator.from_states(states, mode=mode, rng=seed).engine
    return getattr(engine, "cores", [engine])


def test_kernels_have_28_send_sites() -> None:
    assert len(SITES) == 28


@pytest.mark.parametrize("kind", ["chaos", "fast", "shard"])
def test_every_send_site_stages_origin_where_read(kind) -> None:
    """Chaos engine: every staged row's ``origin`` is its sender's id.
    Everywhere else: ``None``.  All 28 sites are reached either way."""
    reached: set[int] = set()
    for seed in range(8):
        for core in engines(kind, seed):
            assert core.outbox.keep_origin == (kind == "chaos")
            for site, sender, rows, origin in drive_every_site(core.kernels, seed):
                if rows:
                    reached.add(site)
                if kind != "chaos":
                    assert origin is None, f"site {SITES[site]} staged an origin"
                    continue
                assert origin is not None, f"site {SITES[site]} staged no origin"
                assert len(origin) == rows
                assert (origin == sender).all(), f"site {SITES[site]}"
    assert reached == set(range(len(SITES)))


def test_sanitized_outbox_forwards_keep_origin() -> None:
    """The sanitizer's proxy answers ``keep_origin`` from the outbox it
    wraps, so sanitized chaos kernels still stage the sender column."""
    outbox = Outbox(MessageStats())
    proxy = SanitizedOutbox(outbox, FlowSanitizer.for_kernels())
    assert proxy.keep_origin is False
    outbox.keep_origin = True
    assert proxy.keep_origin is True


def test_chaos_round_stages_sender_ids() -> None:
    """Whole rounds on the chaos engine: every staged row carries a live
    sender id, so the guard can wrap it and the ack finds its way back."""
    (engine,) = engines("chaos", 5)
    recorder = RecordingOutbox(engine.kernels.out)
    engine.kernels.out = recorder
    rng = np.random.default_rng(5)
    for _ in range(6):
        live = set(engine.soa.sorted_live()[0].tolist())
        before = len(recorder.sent)
        engine.execute_round(rng)
        for _, rows, origin in recorder.sent[before:]:
            assert origin is not None and len(origin) == rows
            assert set(origin.tolist()) <= live
    assert len(recorder.sent) > 0
