"""Sustained churn workloads: the overlay as a long-lived P2P system.

The paper motivates self-stabilization with "a large and highly dynamical
setting with nodes that might join, leave or fail" (§I).  Theorem 4.24
prices a *single* update; a real deployment sees a continuous stream.
:class:`ChurnWorkload` drives one: per round, joins and leaves each occur
with configurable probabilities, and the run records

* the fraction of rounds in which the sorted-ring invariant held
  (availability of the *perfect* structure),
* the fraction of consecutive pairs correctly linked per round (how far
  from perfect the structure strays under sustained pressure),
* greedy-routing success over the live membership sampled periodically.

The workload is host-generic: it drives the §IV-G calls of
``simulator.host`` (:class:`repro.sim.host.Host`), with the per-round
measurements vectorized over the SoA columns where the host has them (the
draw sequence is identical on every host, so twin-seeded runs make the
same membership decisions).

Experiment E17 sweeps the churn rate and reports the degradation curve;
its storm legs (:mod:`repro.churn.storms`) stress batched events instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.baselines.chord_like import greedy_route_with_failures
from repro.ids import is_real
from repro.sim.engine import BaseSimulator

__all__ = ["ChurnWorkload", "ChurnReport"]


@dataclass
class ChurnReport:
    """Aggregates of one sustained-churn run."""

    rounds: int = 0
    joins: int = 0
    leaves: int = 0
    ring_rounds: int = 0
    pair_fraction_sum: float = 0.0
    routing_samples: int = 0
    routing_success: int = 0
    routing_hops_sum: float = 0.0
    final_size: int = 0
    min_size: int = field(default=1 << 30)

    @property
    def ring_availability(self) -> float:
        """Fraction of rounds with the full sorted-ring invariant."""
        return self.ring_rounds / self.rounds if self.rounds else 0.0

    @property
    def mean_pair_fraction(self) -> float:
        """Average fraction of correctly linked consecutive pairs."""
        return self.pair_fraction_sum / self.rounds if self.rounds else 0.0

    @property
    def routing_success_rate(self) -> float:
        """Fraction of sampled greedy routes that terminated."""
        if not self.routing_samples:
            return 0.0
        return self.routing_success / self.routing_samples

    @property
    def mean_routing_hops(self) -> float:
        """Mean hops over successful sampled routes."""
        if not self.routing_success:
            return 0.0
        return self.routing_hops_sum / self.routing_success


class ChurnWorkload:
    """Drives joins/leaves against a simulator and records a report."""

    def __init__(
        self,
        simulator: BaseSimulator[Any],
        rng: np.random.Generator,
        *,
        join_probability: float,
        leave_probability: float,
        min_size: int = 4,
        route_every: int = 10,
        route_queries: int = 20,
    ) -> None:
        if not (0.0 <= join_probability <= 1.0 and 0.0 <= leave_probability <= 1.0):
            raise ValueError("probabilities must be in [0, 1]")
        if min_size < 4:
            raise ValueError("min_size must be at least 4")
        self.simulator = simulator
        self.rng = rng
        self.join_probability = join_probability
        self.leave_probability = leave_probability
        self.min_size = min_size
        self.route_every = route_every
        self.route_queries = route_queries

    def _maybe_join(self, report: ChurnReport) -> None:
        host = self.simulator.host
        if self.rng.random() >= self.join_probability:
            return
        new_id = float(self.rng.random())
        while new_id in host:  # pragma: no cover - measure-zero collision
            new_id = float(self.rng.random())
        ids = host.ids
        host.join(new_id, ids[int(self.rng.integers(len(ids)))])
        report.joins += 1

    def _maybe_leave(self, report: ChurnReport) -> None:
        host = self.simulator.host
        if len(host) <= self.min_size:
            return
        if self.rng.random() >= self.leave_probability:
            return
        ids = host.ids
        host.leave(ids[int(self.rng.integers(len(ids)))])
        report.leaves += 1

    # The two measurements below keep one body per data representation,
    # keyed on the host having SoA columns.
    def _pair_fraction(self) -> float:
        soa = getattr(self.simulator.host, "soa", None)
        if soa is not None:
            ids, idx = soa.sorted_live()
            if len(ids) < 2:
                return 1.0
            good = np.count_nonzero(
                (soa.r[idx][:-1] == ids[1:]) & (soa.l[idx][1:] == ids[:-1])
            )
            return float(good) / (len(ids) - 1)
        states = self.simulator.host.states()
        ordered = sorted(states)
        if len(ordered) < 2:
            return 1.0
        good = sum(
            1
            for a, b in zip(ordered, ordered[1:])
            if states[a].r == b and states[b].l == a
        )
        return good / (len(ordered) - 1)

    def _neighbor_matrix(self) -> np.ndarray:
        """Rank-indexed ``(n, 4)`` stored-link matrix (−1 = no live link)."""
        soa = getattr(self.simulator.host, "soa", None)
        if soa is not None:
            ids, idx = soa.sorted_live()
            n = len(ids)
            neighbors = np.full((n, 4), -1, dtype=np.int64)
            for j, col in enumerate((soa.l, soa.r, soa.lrl, soa.ring)):
                vals = col[idx]
                real = np.isfinite(vals)
                pos = np.searchsorted(ids, vals[real])
                pos = np.minimum(pos, n - 1)
                live = ids[pos] == vals[real]
                rows = np.flatnonzero(real)[live]
                neighbors[rows, j] = pos[live]
            return neighbors
        states = self.simulator.host.states()
        ordered = sorted(states)
        n = len(ordered)
        rank = {v: i for i, v in enumerate(ordered)}
        neighbors = np.full((n, 4), -1, dtype=np.int64)
        for nid, state in states.items():
            i = rank[nid]
            links = (state.l, state.r, state.lrl, state.ring)
            for j, target in enumerate(links):
                if target is not None and is_real(target) and target in rank:
                    neighbors[i, j] = rank[target]
        return neighbors

    def _sample_routing(self, report: ChurnReport) -> None:
        """Greedy routing over the *actual stored links* of the moment.

        Mid-churn, a node's real neighbors may differ from its rank
        neighbors, so the sample routes over each node's stored (l, r,
        lrl, ring) only — dead ends count as failures.
        """
        neighbors = self._neighbor_matrix()
        n = len(neighbors)
        q = self.route_queries
        src = self.rng.integers(0, n, q)
        dst = self.rng.integers(0, n, q)
        hops, ok = greedy_route_with_failures(
            n, neighbors, np.ones(n, dtype=bool), src, dst
        )
        report.routing_samples += q
        report.routing_success += int(ok.sum())
        report.routing_hops_sum += float(hops[ok].sum())

    def run(self, rounds: int) -> ChurnReport:
        """Drive *rounds* rounds of churn + protocol; return the report."""
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        report = ChurnReport()
        host = self.simulator.host
        for r in range(rounds):
            self._maybe_join(report)
            self._maybe_leave(report)
            self.simulator.step_round()
            report.rounds += 1
            report.min_size = min(report.min_size, len(host))
            report.ring_rounds += int(host.is_sorted_ring())
            report.pair_fraction_sum += self._pair_fraction()
            if (r + 1) % self.route_every == 0:
                self._sample_routing(report)
        report.final_size = len(host)
        return report
