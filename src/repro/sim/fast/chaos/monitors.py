"""Engine-side health probes: SoA counterparts of the recovery monitors.

The campaign monitors (:mod:`repro.sim.chaos.monitors`) are defined over a
reference :class:`~repro.sim.network.Network`; these helpers evaluate the
same predicates directly on a fast engine so
``ChaosCampaign(FastSimulator)`` observes identical health semantics:

* :func:`engine_cc_components` — weak components of the full
  channel-connectivity graph (every stored link plus every in-flight
  identifier, retransmit buffer included), matching
  :func:`repro.graphs.views.cc_graph` edge-for-edge;
* :func:`engine_check_invariants` — the model invariants of §III with the
  same :class:`~repro.sim.invariants.InvariantViolation` messages, minus
  the per-channel dedup clause (the batched engines hold no channels
  between rounds; staged dedup happens in ``prepare_inbox``).

Computation is the numpy union–find of
:func:`~repro.sim.fast.predicates.weak_component_count` over
rank-labelled edges — no networkx — so a monitor tick stays cheap at
n=49k (docs/PERF.md).
"""

from __future__ import annotations

import numpy as np

from repro.sim.fast.buffers import RESLRL
from repro.sim.fast.predicates import weak_component_count
from repro.sim.fast.soa import stored_links
from repro.sim.invariants import InvariantViolation

__all__ = [
    "engine_cc_components",
    "engine_check_invariants",
]


def engine_cc_components(engine, *, live_only: bool = True) -> int:
    """Weak-component count of the channel-connectivity graph (CC).

    Same graph as ``cc_graph(network, live_only=...)``: nodes are the
    live identifiers (plus, with ``live_only=False``, every dangling
    identifier some link or message still mentions); edges run from the
    storing node to each stored ``l``/``r``/``lrl``/``ring`` and from a
    message's destination to each payload identifier.  Returns 0 for an
    empty engine.
    """
    soa = engine.soa
    ids, idx = soa.sorted_live()
    if len(ids) == 0:
        return 0
    owners, stored = stored_links(ids, soa.l[idx], soa.r[idx], soa.lrl[idx], soa.ring[idx])
    dest, payload = engine.in_flight_id_pairs()
    real = np.isfinite(payload)
    u = np.concatenate((owners, dest[real]))
    v = np.concatenate((stored, payload[real]))
    if live_only and len(v):
        _, found = soa.lookup(v)
        u, v = u[found], v[found]
    # A message in flight to a departed destination still adds its node
    # (networkx's add_edge does), so the universe includes sources too.
    return weak_component_count(ids, u, v)


def engine_check_invariants(
    engine, *, check_membership: bool = True
) -> None:
    """Assert the model invariants on a fast engine; raise on violation.

    Messages match :func:`repro.sim.invariants.check_network_invariants`
    clause for clause; nodes are visited in ascending-id order.  The
    dedup-channel clause does not apply (no channels between rounds).
    """
    soa = engine.soa
    ids, idx = soa.sorted_live()
    l, r = soa.l[idx], soa.r[idx]
    lrl, ring, age = soa.lrl[idx], soa.ring[idx], soa.age[idx]
    structurally_ok = bool(
        np.all((ids >= 0.0) & (ids < 1.0))
        and np.all(~np.isfinite(l) | (l < ids))
        and np.all(~np.isfinite(r) | (r > ids))
        and np.all(age >= 0)
    )
    if not structurally_ok:
        # Slow path: find the first offending node for the exact message.
        for k in range(len(ids)):
            nid = float(ids[k])
            if not (0.0 <= nid < 1.0):
                raise InvariantViolation(f"node id {nid!r} outside [0,1)")
            lk, rk = float(l[k]), float(r[k])
            if np.isfinite(lk) and not lk < nid:
                raise InvariantViolation(f"{nid}: l={lk} not < id")
            if np.isfinite(rk) and not rk > nid:
                raise InvariantViolation(f"{nid}: r={rk} not > id")
            if age[k] < 0:
                raise InvariantViolation(
                    f"{nid}: negative age {int(age[k])}"
                )
    if not check_membership:
        return
    for label, stored in (("l", l), ("r", r), ("lrl", lrl), ("ring", ring)):
        real = np.isfinite(stored)
        if not real.any():
            continue
        _, found = soa.lookup(stored[real])
        if not found.all():
            owners = ids[real][~found]
            values = stored[real][~found]
            raise InvariantViolation(
                f"{float(owners[0])}: stored {label}={float(values[0])} "
                "is not a member"
            )
    # In flight, row by row in ``engine.in_flight`` order: the first row
    # naming a non-member raises, its destination before its payload ids.
    dest, tcode, a, b, c = engine.in_flight_rows()
    _, dest_member = soa.lookup(dest)
    payload = np.stack((a, b, c), axis=1)
    named = np.isfinite(payload)
    named[:, 1:] &= (tcode == RESLRL)[:, None]
    member = ~named
    member[named] = soa.lookup(payload[named])[1]
    bad = ~dest_member | ~member.all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        message = engine.in_flight[k][1]
        if not dest_member[k]:
            raise InvariantViolation(
                f"in-flight {message!r} addressed to non-member {float(dest[k])}"
            )
        payload_id = float(payload[k, np.argmax(~member[k])])
        raise InvariantViolation(
            f"in-flight {message!r} carries non-member {payload_id}"
        )
