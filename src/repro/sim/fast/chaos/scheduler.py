"""Wave-dispatch faults: adversarial scheduling for the batched engine.

The reference simulator models adversarial scheduling by swapping the
per-node :class:`~repro.sim.schedulers.Scheduler`.  The batched engine has
no such object — every round it groups the inbox into per-kernel *waves*
and dispatches them in code order — so the analogous adversary perturbs
that dispatch instead.  :class:`WaveDispatchFault` plugs into
:meth:`~repro.sim.fast.batched.FastEngine.set_wave_fault` and, each round,

* **permutes** the wave dispatch order (``permute_waves``), and
* **starves** an i.i.d. ``starvation`` fraction of every wave's rows,
  deferring them to the next round via the engine's uncounted restage
  path (:meth:`~repro.sim.fast.buffers.Outbox.restage`).

On a wireless engine a starved row simply redelivers next round; on a
wired one restaged rows re-enter the wire and face the active wire
faults again — a strictly more adversarial model, documented in
docs/CHAOS.md.

Draw discipline: both draws (the permutation and the per-row coins) are
made every round regardless of configuration — a fixed draw budget keeps
the fault's private stream reproducible across settings, and keeps every
draw lexically top-level for the flow analyzer.
"""

from __future__ import annotations

import numpy as np

from repro.sim.fast.batched import WaveGroup

__all__ = ["WaveDispatchFault"]


class WaveDispatchFault:
    """Permute and starve the batched engine's per-round wave dispatch.

    Implements the :class:`~repro.sim.fast.batched.WaveFault` protocol.
    Rows starved out of a wave are returned to the engine for deferral;
    :attr:`permuted_rounds` and :attr:`starved_rows` count what happened.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        permute_waves: bool = True,
        starvation: float = 0.0,
    ) -> None:
        if not (0.0 <= starvation < 1.0):
            raise ValueError(f"starvation must be in [0, 1), got {starvation}")
        self.rng = rng
        self.permute_waves = permute_waves
        self.starvation = starvation
        #: Rounds whose wave order was actually permuted.
        self.permuted_rounds = 0
        #: Rows deferred to a later round so far.
        self.starved_rows = 0

    def rewrite(
        self, groups: list[WaveGroup]
    ) -> tuple[list[WaveGroup], list[WaveGroup]]:
        """Rewrite one round's wave groups; returns ``(dispatch, starved)``."""
        k = len(groups)
        if k == 0:
            return list(groups), []
        # Fixed draw budget (see module docstring): always one permutation
        # of the waves plus one coin per row, whatever the configuration.
        perm = self.rng.permutation(k)
        sizes = [len(rows) for _, rows in groups]
        coins = self.rng.random(int(sum(sizes)))
        if self.permute_waves:
            self.permuted_rounds += 1
        else:
            perm = np.arange(k)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        dispatch: list[WaveGroup] = []
        starved: list[WaveGroup] = []
        for j in perm.tolist():
            code, rows = groups[j]
            hold = coins[offsets[j] : offsets[j + 1]] < self.starvation
            held = int(hold.sum())
            if held:
                self.starved_rows += held
                starved.append((code, rows[hold]))
                rows = rows[~hold]
            if len(rows):
                dispatch.append((code, rows))
        return dispatch, starved
