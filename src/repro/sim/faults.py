"""Fault injection: stress the protocol beyond the paper's model.

The paper assumes lossless channels and uncorrupted executions; a
self-stabilizing protocol should nevertheless shrug off transient
violations, because any post-fault configuration is just another initial
state.  The failure-injection tests and the adversarial examples use
three fault classes; the last two live here:

* **message loss** (a ``Network(wire=True)``, whose
  :class:`~repro.sim.chaos.network.ScalarWire` carries
  a :class:`~repro.sim.chaos.injectors.MessageLoss` wire fault) — every
  sent message is dropped with probability ``rate``.  The regular action
  re-advertises all *stored* links every round, so losses of
  advertisement traffic merely slow convergence.  But the protocol's
  connectivity preservation replaces links by *in-flight* copies during
  linearization (a displaced neighbor or a re-injected forgotten endpoint
  exists, transiently, only inside one message) — if that one message is
  lost, the identifier is gone and the network can disconnect
  **permanently**.  Moderate loss rates converge with overwhelming
  probability (each handoff is one Bernoulli trial and most identifiers
  are stored redundantly); high loss rates demonstrably split the network
  (see ``examples/lossy_network.py``).  The lossless channel is therefore
  a *load-bearing* model assumption, not a convenience — a fact worth
  measuring.
* **pointer corruption** (:func:`corrupt_random_pointers`) — a transient
  adversary scrambles ``l``/``r``/``lrl``/``ring``/``age`` of a node
  fraction, preserving only the hard model invariant ``l < id < r``.
* **crash-restart** (:func:`crash_restart`) — a node loses its entire
  state (fresh :class:`~repro.core.state.NodeState`, token at home) but
  keeps its identifier, modeling a process restart from a blank disk.
  Neighbors still point at it, so weak connectivity survives and
  stabilization re-integrates it.
"""

from __future__ import annotations

import numpy as np

from repro.ids import NEG_INF, POS_INF
from repro.sim.network import Network

__all__ = ["corrupt_random_pointers", "crash_restart"]


def corrupt_random_pointers(
    network: Network,
    fraction: float,
    rng: np.random.Generator,
    *,
    corrupt_list_links: bool = True,
) -> int:
    """Scramble the pointers of ``⌊fraction·n⌋`` random nodes; returns count.

    ``l``/``r`` are redirected to random order-respecting identifiers (only
    when ``corrupt_list_links``), ``lrl``/``ring`` to arbitrary ones, and
    ``age`` randomized — the transient-fault model of self-stabilization.

    Draw choreography (shared, batch-shaped):
    :func:`repro.sim.fast.chaos.faults.corrupt_random_pointers_engine` must
    make the *identical* RNG calls so a twin-seeded ``PointerCorruption``
    corrupts both engines bit-identically.  All draws are whole-batch
    arrays — one ``choice`` for the victim positions, two uniforms per
    victim for the l/r picks (always drawn, even with
    ``corrupt_list_links=False`` or where a victim has no smaller/larger
    identifier — a fixed draw budget), then the lrl/ring/age arrays — which
    a PCG64 stream produces identically batched or one at a time.  A victim's
    position *p* in the ascending id list directly counts its smaller ids
    (``p``) and larger ids (``n−1−p``); a uniform ``u`` picks index
    ``min(⌊u·k⌋, k−1)`` among ``k`` candidates (the clamp guards the
    measure-zero float edge ``u·k == k``).
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be in [0, 1]")
    ids = network.ids
    n = len(ids)
    count = int(fraction * n)
    if count == 0:
        return 0
    victims = rng.choice(n, size=count, replace=False)
    # The l/r coins are drawn whether or not list links are corrupted —
    # a fixed draw budget keeps the stream identical across configs and
    # engines (the engine port may not draw inside a config branch).
    coin_l = rng.random(count)
    coin_r = rng.random(count)
    lrl_pick = rng.integers(0, n, size=count)
    ring_pick = rng.integers(0, n, size=count)
    ages = rng.integers(0, 1000, size=count)
    for k, v in enumerate(victims):
        p = int(v)
        state = network.node(ids[p]).state
        if corrupt_list_links:
            new_l = None
            if p > 0:
                new_l = ids[min(int(coin_l[k] * p), p - 1)]
            new_r = None
            if p < n - 1:
                larger = n - 1 - p
                new_r = ids[p + 1 + min(int(coin_r[k] * larger), larger - 1)]
            state.corrupt(l=new_l, r=new_r)
        state.corrupt(
            lrl=ids[int(lrl_pick[k])],
            ring=ids[int(ring_pick[k])],
            age=int(ages[k]),
        )
    return count


def crash_restart(network: Network, node_id: float) -> None:
    """Reset *node_id* to a blank state (identifier preserved).

    The restarted node knows nobody (``l = −∞``, ``r = +∞``, token at
    home, no ring); re-integration relies on its former neighbors still
    pointing at it.
    """
    state = network.node(node_id).state
    state.l = NEG_INF
    state.r = POS_INF
    state.lrl = state.id
    state.ring = None
    state.age = 0
    # Its pending messages are part of the lost volatile state.
    network.channel(node_id).clear()
