"""Vectorized Algorithms 1–10 over struct-of-arrays state.

Each method is the batched counterpart of one handler in
:class:`repro.core.node.Node`, evaluated for a whole *batch* of receiving
nodes at once.  The reference handlers are ``elif`` chains; here each chain
becomes a sequence of disjoint boolean masks built from values read **once
at entry** — exactly the values the reference reads before its single
mutating branch executes, so the pre-read is faithful, not a race.

The one correctness precondition (asserted nowhere for speed, guaranteed by
construction everywhere): *within one handler call the rows that store hold
unique receiving indices*.  The batched engine's writer schedule
(:mod:`repro.sim.fast.batched`) hands a kernel either a batch of at most one
message per destination, or a read-only batch in which destinations repeat
and every masked store has an empty mask; every internal ``linearize``
cascade passes a subset of its caller's batch, so no fancy-indexed store
can hit the same slot twice.

RNG: :meth:`move_forget` draws one direction-coin array and one forget-coin
array per batch.  This is the *batched* draw discipline — distributionally
equal to, but not call-for-call identical with, the reference engine's
per-node draws (the mirror engine reproduces those instead; docs/PERF.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.forget import forget_probability_array
from repro.core.protocol import ProtocolConfig
from repro.ids import NEG_INF, POS_INF
from repro.sim.fast.buffers import (
    INCLRL,
    LIN,
    PROBL,
    PROBR,
    RESLRL,
    RESRING,
    RING,
    Outbox,
)
from repro.sim.fast.soa import SoAState

__all__ = ["Kernels"]


class Kernels:
    """The seven receive handlers plus the regular action, batched."""

    __slots__ = ("soa", "out", "config", "shortcuts", "maf", "probing_on")

    def __init__(self, soa: SoAState, out: Outbox, config: ProtocolConfig) -> None:
        self.soa = soa
        self.out = out
        self.config = config
        self.shortcuts = config.lrl_shortcuts
        self.maf = config.move_and_forget
        self.probing_on = config.probing

    # ------------------------------------------------------------------
    # Algorithm 2 — linearize(id)
    # ------------------------------------------------------------------
    def linearize(self, idx: np.ndarray, nid: np.ndarray) -> None:
        """Adopt each ``nid`` as a closer neighbor, else forward it."""
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        pr = s.r[idx]
        plrl = s.lrl[idx]

        right = nid > pid
        adopt = right & (nid < pr)
        handoff = adopt & (pr != POS_INF)
        self.out.send(LIN, nid[handoff], pr[handoff], origin=pid[handoff])
        s.r[idx[adopt]] = nid[adopt]
        rest = right & ~adopt
        if self.shortcuts:
            shortcut = rest & (nid > plrl) & (plrl > pr)
            self.out.send(LIN, plrl[shortcut], nid[shortcut], origin=pid[shortcut])
            rest = rest & ~shortcut
        forward = rest & (nid > pr)
        self.out.send(LIN, pr[forward], nid[forward], origin=pid[forward])

        left = nid < pid
        adopt = left & (nid > pl)
        handoff = adopt & (pl != NEG_INF)
        self.out.send(LIN, nid[handoff], pl[handoff], origin=pid[handoff])
        s.l[idx[adopt]] = nid[adopt]
        rest = left & ~adopt
        if self.shortcuts:
            shortcut = rest & (nid < plrl) & (plrl < pl)
            self.out.send(LIN, plrl[shortcut], nid[shortcut], origin=pid[shortcut])
            rest = rest & ~shortcut
        forward = rest & (nid < pl)
        self.out.send(LIN, pl[forward], nid[forward], origin=pid[forward])

    # ------------------------------------------------------------------
    # Algorithm 3 — respondlrl(id)
    # ------------------------------------------------------------------
    def respond_lrl(self, idx: np.ndarray, origin: np.ndarray) -> None:
        """Report each node's ring neighbors to its link's origin."""
        if not self.maf or len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        pr = s.r[idx]
        pring = s.ring[idx]
        has_l = pl != NEG_INF
        has_r = pr != POS_INF

        both = has_l & has_r
        self.out.send(
            RESLRL, origin[both], pid[both], pl[both], pr[both], origin=pid[both]
        )
        only_l = has_l & ~has_r
        wrap_r = np.where(np.isnan(pring), POS_INF, pring)
        self.out.send(
            RESLRL,
            origin[only_l],
            pid[only_l],
            pl[only_l],
            wrap_r[only_l],
            origin=pid[only_l],
        )
        # Reference's "nothing real to report" guard is unreachable in this
        # branch (has_right already implies p.r < +inf), so no extra mask.
        only_r = has_r & ~has_l
        wrap_l = np.where(np.isnan(pring), NEG_INF, pring)
        self.out.send(
            RESLRL,
            origin[only_r],
            pid[only_r],
            wrap_l[only_r],
            pr[only_r],
            origin=pid[only_r],
        )

    # ------------------------------------------------------------------
    # Algorithm 4 — move-forget(id1, id2)
    # ------------------------------------------------------------------
    def move_forget(
        self,
        idx: np.ndarray,
        responder: np.ndarray,
        id1: np.ndarray,
        id2: np.ndarray,
        rng: np.random.Generator,
        *,
        coins: np.ndarray | None = None,
        forget_u: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step each long-range-link token, then roll the forget coin.

        The ``lrl``/``age`` half of Algorithm 4 — the token walk, which
        nothing else in a receive phase reads into or steers.  Returns
        ``(lrl, forgotten)`` aligned with *idx*: the ``lrl`` each row
        leaves its node with, and the link it forgot (NaN where it kept
        it), for :meth:`place_token` to put into the node's sequence.

        *coins*/*forget_u* optionally inject the two uniform draws (both
        sized to the post-validation batch).  The sharded coordinator uses
        this to keep one global RNG stream: it draws for every shard's
        batch at once and scatters the slices, so any shard count replays
        the single-process draw sequence bit-for-bit.
        """
        s = self.soa
        forgotten = np.full(len(idx), np.nan)
        if not self.maf or len(idx) == 0:
            return s.lrl[idx], forgotten
        batch = idx
        valid = responder == s.lrl[idx]
        if not valid.all():
            idx = idx[valid]
            id1 = id1[valid]
            id2 = id2[valid]
            if len(idx) == 0:
                return s.lrl[batch], forgotten
        known1 = id1 != NEG_INF
        known2 = id2 != POS_INF
        both = known1 & known2
        if coins is None:
            coins = rng.random(len(idx))  # repro-flow: ignore[flow-branch-rng] injection seam, not a data branch: the sharded coordinator pre-draws this exact batch from the same stream position; uninjected callers draw here, one coin per validated row either way
        new_lrl = s.lrl[idx].copy()
        new_lrl[known1] = id1[known1]
        take2 = (known2 & ~known1) | (both & (coins >= 0.5))
        new_lrl[take2] = id2[take2]
        s.lrl[idx] = new_lrl
        s.age[idx] += 1
        phi = forget_probability_array(s.age[idx], self.config.epsilon)  # repro-flow: ignore[flow-read-after-write] reads the post-increment age on purpose: the reference node ages its token before rolling the forget coin
        forget = (rng.random(len(idx)) if forget_u is None else forget_u) < phi
        fidx = idx[forget]
        if len(fidx):
            forgotten[np.flatnonzero(valid)[forget]] = new_lrl[forget]
            s.lrl[fidx] = s.ids[fidx]  # repro-flow: ignore[flow-write-write] fidx selects a subset of idx rows for a sequential second pass (forget overrides update); same-slot rewrite is the intended semantics
            s.age[fidx] = 0  # repro-flow: ignore[flow-write-write] same forget subset as the lrl reset above; the age counter restarts for forgotten tokens
        return s.lrl[batch], forgotten  # repro-flow: ignore[flow-read-after-write] the point of the return: the lrl every row of the batch leaves behind, invalid rows included

    def place_token(
        self, idx: np.ndarray, lrl: np.ndarray, forgotten: np.ndarray
    ) -> None:
        """Put a walked token into its node's receive sequence.

        The other half of Algorithm 4, run where the ``reslrl`` row sits
        among its node's messages: store the ``lrl`` that
        :meth:`move_forget` recorded for the row and re-linearize the
        link it forgot.
        """
        if not self.maf or len(idx) == 0:
            return
        self.soa.lrl[idx] = lrl
        relink = ~np.isnan(forgotten)
        self.linearize(idx[relink], forgotten[relink])

    # ------------------------------------------------------------------
    # Algorithms 5/6 — probingr(id) / probingl(id)
    # ------------------------------------------------------------------
    def probing_r(self, idx: np.ndarray, dest: np.ndarray) -> None:
        """Forward rightward probes, repairing where the path is broken."""
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pr = s.r[idx]
        plrl = s.lrl[idx]
        rest = np.ones(len(idx), dtype=bool)
        if self.shortcuts:
            shortcut = (dest >= plrl) & (plrl > pr)
            self.out.send(PROBR, plrl[shortcut], dest[shortcut], origin=pid[shortcut])
            rest = ~shortcut
        forward = rest & (dest >= pr)
        self.out.send(PROBR, pr[forward], dest[forward], origin=pid[forward])
        repair = rest & ~forward & (pid < dest) & (dest < pr)
        self.linearize(idx[repair], dest[repair])

    def probing_l(self, idx: np.ndarray, dest: np.ndarray) -> None:
        """Mirror image of :meth:`probing_r` for leftward probes."""
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        plrl = s.lrl[idx]
        rest = np.ones(len(idx), dtype=bool)
        if self.shortcuts:
            shortcut = (dest <= plrl) & (plrl < pl)
            self.out.send(PROBL, plrl[shortcut], dest[shortcut], origin=pid[shortcut])
            rest = ~shortcut
        forward = rest & (dest <= pl)
        self.out.send(PROBL, pl[forward], dest[forward], origin=pid[forward])
        repair = rest & ~forward & (pid > dest) & (dest > pl)
        self.linearize(idx[repair], dest[repair])

    # ------------------------------------------------------------------
    # Algorithm 7 — respondring(id)
    # ------------------------------------------------------------------
    def respond_ring(self, idx: np.ndarray, origin: np.ndarray) -> None:
        """Answer ring-edge messages (witness or next candidate)."""
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        pr = s.r[idx]
        plrl = s.lrl[idx]
        left_witness = np.where(pl != NEG_INF, pl, pid)
        right_witness = np.where(pr != POS_INF, pr, pid)

        lt = origin < pid
        b1 = lt & (pl < origin)
        self.out.send(LIN, origin[b1], left_witness[b1], origin=pid[b1])
        b2 = lt & ~b1 & (plrl < origin)
        self.out.send(LIN, origin[b2], plrl[b2], origin=pid[b2])
        b3 = lt & ~b1 & ~b2 & (plrl > pr)
        self.out.send(RESRING, origin[b3], plrl[b3], origin=pid[b3])
        b4 = lt & ~b1 & ~b2 & ~b3
        self.out.send(RESRING, origin[b4], right_witness[b4], origin=pid[b4])

        gt = origin > pid
        g1 = gt & (pr > origin)
        self.out.send(LIN, origin[g1], left_witness[g1], origin=pid[g1])
        g2 = gt & ~g1 & (plrl > origin)
        self.out.send(LIN, origin[g2], plrl[g2], origin=pid[g2])
        g3 = gt & ~g1 & ~g2 & (plrl < pl)
        self.out.send(RESRING, origin[g3], plrl[g3], origin=pid[g3])
        g4 = gt & ~g1 & ~g2 & ~g3
        self.out.send(RESRING, origin[g4], left_witness[g4], origin=pid[g4])
        # origin == pid: self-addressed ring edge, no-op (DESIGN.md §4.5).

    # ------------------------------------------------------------------
    # Algorithm 8 — updatering(id)
    # ------------------------------------------------------------------
    def update_ring(self, idx: np.ndarray, candidate: np.ndarray) -> None:
        """Adopt improving ring candidates; re-linearize the replaced ones."""
        if len(idx) == 0:
            return
        s = self.soa
        pl = s.l[idx]
        pr = s.r[idx]
        pring = s.ring[idx]
        has_l = pl != NEG_INF
        has_r = pr != POS_INF
        unset = np.isnan(pring)
        # NaN comparisons are False, so the `unset |` term carries the
        # reference's `p.ring is None` branch.
        adopt = (~has_l & (unset | (candidate > pring))) | (
            has_l & ~has_r & (unset | (candidate < pring))
        )
        s.ring[idx[adopt]] = candidate[adopt]
        replaced = adopt & ~unset & (pring != candidate)
        self.linearize(idx[replaced], pring[replaced])

    # ------------------------------------------------------------------
    # Algorithms 9/10 — the regular action
    # ------------------------------------------------------------------
    def regular_action(self, idx: np.ndarray, rng: np.random.Generator) -> None:
        """``sendid(); probing()`` for every node in *idx* at once.

        Faithful to the per-node sequence fold-stale-ring → sendid →
        probing: neighbor arrays are re-read after every internal
        ``linearize`` cascade, because a node's own fold/repair may have
        just changed them (sends are staged, so there are no cross-node
        effects inside a round).
        """
        del rng  # the regular action is deterministic (coins live in Alg. 4)
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        pr = s.r[idx]
        pring = s.ring[idx]
        needs_ring = (pl == NEG_INF) | (pr == POS_INF)
        fold = ~needs_ring & ~np.isnan(pring)
        if fold.any():
            stale = pring[fold].copy()
            s.ring[idx[fold]] = np.nan
            self.linearize(idx[fold], stale)
            pl = s.l[idx]
            pr = s.r[idx]

        # Algorithm 9 — sendid()
        has_l = pl != NEG_INF
        has_r = pr != POS_INF
        own_l = pid[has_l]
        self.out.send(LIN, pl[has_l], own_l, origin=own_l)
        own_r = pid[has_r]
        self.out.send(LIN, pr[has_r], own_r, origin=own_r)
        need_target = ~has_l | ~has_r
        if need_target.any():
            target, valid = self._ring_target(idx, need_target)
            m = ~has_l & valid
            own = pid[m]
            self.out.send(RING, target[m], own, origin=own)
            # A node missing both neighbors sends the ring message twice,
            # exactly like the reference's two _ring_target() call sites.
            m = ~has_r & valid
            own = pid[m]
            self.out.send(RING, target[m], own, origin=own)
        if self.maf:
            self.out.send(INCLRL, s.lrl[idx], pid, origin=pid)

        # Algorithm 10 — probing()
        if not self.probing_on:
            return
        pl = s.l[idx]
        pr = s.r[idx]
        pring = s.ring[idx]  # may have been bootstrapped by _ring_target  # repro-flow: ignore[flow-read-after-write] re-read is the point: probing must see ring slots folded to nan above and any bootstrap _ring_target stored
        needs_ring = (pl == NEG_INF) | (pr == POS_INF)
        m = needs_ring & ~np.isnan(pring)
        self._probe_toward(idx[m], pring[m].copy())
        if self.maf:
            self._probe_toward(idx, s.lrl[idx])

    def _ring_target(
        self, idx: np.ndarray, need: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ring-target resolution with bootstrap (DESIGN.md §4.3).

        Returns ``(target, valid)`` aligned with *idx*; rows outside *need*
        or with no known identifier besides their own stay invalid.
        Bootstrap candidates are tried in the reference order lrl → r → l,
        and an adopted candidate is written back to ``ring``.
        """
        s = self.soa
        pid = s.ids[idx]
        pring = s.ring[idx]
        target = np.full(len(idx), np.nan, dtype=np.float64)
        ok = need & ~np.isnan(pring) & (pring != pid)
        target[ok] = pring[ok]
        valid = ok.copy()
        rem = need & ~valid
        for candidate, known in (
            (s.lrl[idx], None),
            (s.r[idx], s.r[idx] != POS_INF),
            (s.l[idx], s.l[idx] != NEG_INF),
        ):
            if not rem.any():
                break
            ok = rem & (candidate != pid)
            if known is not None:
                ok &= known
            target[ok] = candidate[ok]
            s.ring[idx[ok]] = candidate[ok]
            valid |= ok
            rem &= ~ok
        return target, valid

    def _probe_toward(self, idx: np.ndarray, target: np.ndarray) -> None:
        """Shared body of Algorithm 10's two symmetric blocks (batched)."""
        if len(idx) == 0:
            return
        s = self.soa
        pid = s.ids[idx]
        pl = s.l[idx]
        pr = s.r[idx]
        lt = target < pid
        fwd_l = lt & (target <= pl)
        self.out.send(PROBL, pl[fwd_l], target[fwd_l], origin=pid[fwd_l])
        gt = target > pid
        fwd_r = gt & (target >= pr)
        self.out.send(PROBR, pr[fwd_r], target[fwd_r], origin=pid[fwd_r])
        repair = (lt & ~fwd_l) | (gt & ~fwd_r)
        self.linearize(idx[repair], target[repair])
