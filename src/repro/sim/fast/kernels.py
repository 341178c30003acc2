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

Sends: each of the 28 send sites stages its rows through
:meth:`Kernels._send`, which turns the site's mask into row indices once
and gathers every column by them.  The sender-id column (``origin``) is
read by the chaos wire alone — its guard wraps outgoing rows and
addresses acks by it — so it is gathered only when the outbox's
``keep_origin`` is set, which only a wired
:class:`~repro.sim.fast.batched.FastEngine` does (its
:class:`~repro.sim.fast.chaos.batched.BatchedWire` reads it); every other
outbox stages ``None`` there.

RNG: no kernel draws.  :meth:`move_forget` takes one direction-coin array
and one forget-coin array for its validated rows; the engines walk a whole
segment of waves in one call and inject those arrays, cut from one draw per
segment (:func:`repro.sim.fast.batched.token_draws`).  This is the *batched* draw
discipline — distributionally equal to, but not call-for-call identical
with, the reference engine's per-node draws (the scalar oracle of
``tests/reference_mirror.py`` reproduces those instead; docs/PERF.md).
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

    def _send(
        self,
        code: int,
        mask: np.ndarray | None,
        dest: np.ndarray,
        a: np.ndarray,
        b: np.ndarray | None = None,
        c: np.ndarray | None = None,
        *,
        sender: np.ndarray,
    ) -> None:
        """Stage the rows *mask* selects (every row for ``None``):
        ``dest[mask]`` receives ``(a, b, c)[mask]`` from ``sender[mask]``.

        The mask becomes row indices once and every column is gathered by
        them, which on a large batch costs less than a boolean-mask pass
        per column; a mask that selects nothing stages nothing.  The sender
        column is gathered only into an outbox that keeps it (the chaos
        wire's); everywhere else it is staged as ``None``.
        """
        out = self.out
        origin = sender if out.keep_origin else None
        if mask is not None:
            rows = mask.nonzero()[0]
            if len(rows) == 0:
                return
            dest = dest[rows]
            a = a[rows]
            if b is not None:
                b = b[rows]
            if c is not None:
                c = c[rows]
            if origin is not None:
                origin = origin[rows]
        out.send(code, dest, a, b, c, origin=origin)

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
        self._send(LIN, handoff, nid, pr, sender=pid)
        s.r[idx[adopt]] = nid[adopt]
        rest = right & ~adopt
        if self.shortcuts:
            shortcut = rest & (nid > plrl) & (plrl > pr)
            self._send(LIN, shortcut, plrl, nid, sender=pid)
            rest = rest & ~shortcut
        forward = rest & (nid > pr)
        self._send(LIN, forward, pr, nid, sender=pid)

        left = nid < pid
        adopt = left & (nid > pl)
        handoff = adopt & (pl != NEG_INF)
        self._send(LIN, handoff, nid, pl, sender=pid)
        s.l[idx[adopt]] = nid[adopt]
        rest = left & ~adopt
        if self.shortcuts:
            shortcut = rest & (nid < plrl) & (plrl < pl)
            self._send(LIN, shortcut, plrl, nid, sender=pid)
            rest = rest & ~shortcut
        forward = rest & (nid < pl)
        self._send(LIN, forward, pl, nid, sender=pid)

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
        self._send(RESLRL, both, origin, pid, pl, pr, sender=pid)
        only_l = has_l & ~has_r
        wrap_r = np.where(np.isnan(pring), POS_INF, pring)
        self._send(RESLRL, only_l, origin, pid, pl, wrap_r, sender=pid)
        # Reference's "nothing real to report" guard is unreachable in this
        # branch (has_right already implies p.r < +inf), so no extra mask.
        only_r = has_r & ~has_l
        wrap_l = np.where(np.isnan(pring), NEG_INF, pring)
        self._send(RESLRL, only_r, origin, pid, wrap_l, pr, sender=pid)

    # ------------------------------------------------------------------
    # Algorithm 4 — move-forget(id1, id2)
    # ------------------------------------------------------------------
    def move_forget(
        self,
        idx: np.ndarray,
        responder: np.ndarray,
        id1: np.ndarray,
        id2: np.ndarray,
        *,
        coins: np.ndarray,
        forget_u: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step each long-range-link token, then roll the forget coin.

        The ``lrl``/``age`` half of Algorithm 4 — the token walk, which
        nothing else in a receive phase reads into or steers.  Returns
        ``(lrl, forgotten)`` aligned with *idx*: the ``lrl`` each row
        leaves its node with, and the link it forgot (NaN where it kept
        it), for :meth:`place_token` to put into the node's sequence.

        *coins*/*forget_u* are the two uniform draws, one per row that
        passes validation (``responder == lrl``), in row order.  Both
        engines walk a segment of several waves in one call and cut each
        row's coins from one draw per segment, in the order a wave-by-wave
        walk would draw them — and the sharded coordinator makes that draw
        for every shard at once, so any shard count replays the
        single-process draw sequence bit-for-bit.
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
        new_lrl = s.lrl[idx].copy()
        new_lrl[known1] = id1[known1]
        take2 = (known2 & ~known1) | (both & (coins >= 0.5))
        new_lrl[take2] = id2[take2]
        s.lrl[idx] = new_lrl
        s.age[idx] += 1
        phi = forget_probability_array(s.age[idx], self.config.epsilon)  # repro-flow: ignore[flow-read-after-write] reads the post-increment age on purpose: the reference node ages its token before rolling the forget coin
        forget = forget_u < phi
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
            self._send(PROBR, shortcut, plrl, dest, sender=pid)
            rest = ~shortcut
        forward = rest & (dest >= pr)
        self._send(PROBR, forward, pr, dest, sender=pid)
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
            self._send(PROBL, shortcut, plrl, dest, sender=pid)
            rest = ~shortcut
        forward = rest & (dest <= pl)
        self._send(PROBL, forward, pl, dest, sender=pid)
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
        self._send(LIN, b1, origin, left_witness, sender=pid)
        b2 = lt & ~b1 & (plrl < origin)
        self._send(LIN, b2, origin, plrl, sender=pid)
        b3 = lt & ~b1 & ~b2 & (plrl > pr)
        self._send(RESRING, b3, origin, plrl, sender=pid)
        b4 = lt & ~b1 & ~b2 & ~b3
        self._send(RESRING, b4, origin, right_witness, sender=pid)

        gt = origin > pid
        g1 = gt & (pr > origin)
        self._send(LIN, g1, origin, left_witness, sender=pid)
        g2 = gt & ~g1 & (plrl > origin)
        self._send(LIN, g2, origin, plrl, sender=pid)
        g3 = gt & ~g1 & ~g2 & (plrl < pl)
        self._send(RESRING, g3, origin, plrl, sender=pid)
        g4 = gt & ~g1 & ~g2 & ~g3
        self._send(RESRING, g4, origin, left_witness, sender=pid)
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
    def regular_action(self, idx: np.ndarray) -> None:
        """``sendid(); probing()`` for every node in *idx* at once.

        Faithful to the per-node sequence fold-stale-ring → sendid →
        probing: neighbor arrays are re-read after every internal
        ``linearize`` cascade, because a node's own fold/repair may have
        just changed them (sends are staged, so there are no cross-node
        effects inside a round).  It draws nothing: the protocol's coins
        are Algorithm 4's.
        """
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
        self._send(LIN, has_l, pl, pid, sender=pid)
        self._send(LIN, has_r, pr, pid, sender=pid)
        need_target = ~has_l | ~has_r
        if need_target.any():
            target, valid = self._ring_target(idx, need_target)
            self._send(RING, ~has_l & valid, target, pid, sender=pid)
            # A node missing both neighbors sends the ring message twice,
            # exactly like the reference's two _ring_target() call sites.
            self._send(RING, ~has_r & valid, target, pid, sender=pid)
        if self.maf:
            self._send(INCLRL, None, s.lrl[idx], pid, sender=pid)

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
        self._send(PROBL, fwd_l, pl, target, sender=pid)
        gt = target > pid
        fwd_r = gt & (target >= pr)
        self._send(PROBR, fwd_r, pr, target, sender=pid)
        repair = (lt & ~fwd_l) | (gt & ~fwd_r)
        self.linearize(idx[repair], target[repair])
