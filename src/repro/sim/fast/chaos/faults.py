"""State-fault primitives for the SoA engines (ports of ``repro.sim.faults``).

The reference helpers (:func:`repro.sim.faults.corrupt_random_pointers`,
:func:`repro.sim.faults.crash_restart`) mutate ``NodeState`` objects behind
a ``Network``.  These are the struct-of-arrays counterparts behind the
same two calls of the host surface (:class:`repro.sim.host.Host`) on the
SoA engines.  The draw choreography is
*batch-shaped and shared*: the reference helper makes the exact same
whole-batch RNG calls and applies them scalar, so a twin-seeded injector
produces bit-identical corruption on both engines while this side runs as
masked scatters with no per-victim loop (the chaos differential relies on
this; docs/CHAOS.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.ids import NEG_INF, POS_INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.fast.predicates import SoAHost

__all__ = [
    "corrupt_random_pointers_engine",
    "crash_restart_many_engine",
]


def corrupt_random_pointers_engine(
    engine: "SoAHost",
    fraction: float,
    rng: np.random.Generator,
    *,
    corrupt_list_links: bool = True,
) -> int:
    """Corrupt a random *fraction* of nodes' pointers in SoA columns.

    Draw-for-draw twin of :func:`repro.sim.faults.corrupt_random_pointers`
    — see its docstring for the shared batch choreography.  Victims are
    *positions* into the ascending live-id array, so position ``p`` has
    ``p`` smaller and ``n−1−p`` larger identifiers and the order-respecting
    l/r picks become pure index arithmetic; all five corruption columns
    land as masked scatters (victims are drawn without replacement, so the
    target slots are unique and conflict-free).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    soa = engine.soa
    sorted_ids, sorted_idx = soa.sorted_live()
    n = len(sorted_ids)
    count = int(fraction * n)
    if count == 0:
        return 0
    victims = rng.choice(n, size=count, replace=False)
    coin_l = rng.random(count)
    coin_r = rng.random(count)
    lrl_pick = rng.integers(0, n, size=count)
    ring_pick = rng.integers(0, n, size=count)
    ages = rng.integers(0, 1000, size=count)
    tgt = sorted_idx[victims]
    if corrupt_list_links:
        p = victims.astype(np.int64)
        # min(⌊u·k⌋, k−1) picks among k candidates; the unusable entries
        # (p == 0 / p == n−1) are masked off before the scatter.
        has_l = p > 0
        li = np.minimum((coin_l * p).astype(np.int64), p - 1)
        soa.l[tgt[has_l]] = sorted_ids[li[has_l]]
        larger = n - 1 - p
        has_r = larger > 0
        ri = p + 1 + np.minimum((coin_r * larger).astype(np.int64), larger - 1)
        soa.r[tgt[has_r]] = sorted_ids[ri[has_r]]
    soa.lrl[tgt] = sorted_ids[lrl_pick]
    soa.ring[tgt] = sorted_ids[ring_pick]
    soa.age[tgt] = ages
    return count


def crash_restart_many_engine(
    engine: "SoAHost", node_ids: np.ndarray
) -> None:
    """Reset a whole batch of nodes to their freshly-booted state.

    One masked scatter per column, equivalent to the scalar
    :func:`repro.sim.faults.crash_restart` per id in any order (the resets
    are independent and idempotent): neighbors to the sentinels, the
    long-range link to self with age 0, ring cleared, and — where the
    engine holds per-node channels (the mirror) — queued messages dropped
    like the reference's ``channel.clear()``.
    """
    ids = np.ascontiguousarray(node_ids, dtype=np.float64)
    if len(ids) == 0:
        return
    soa = engine.soa
    idx, found = soa.lookup(ids)
    if not bool(found.all()):
        missing = float(ids[np.flatnonzero(~found)[0]])
        raise KeyError(f"no node with id {missing!r}")
    soa.l[idx] = NEG_INF
    soa.r[idx] = POS_INF
    soa.lrl[idx] = soa.ids[idx]
    soa.ring[idx] = np.nan
    soa.age[idx] = 0
    clear = getattr(engine, "crash_channel_clear", None)
    if clear is not None:
        for nid in ids.tolist():
            clear(nid)
