"""Schedulers realizing the paper's fairness assumptions (§II-B).

The paper assumes (a) *fair message receipt* — every message in a channel is
eventually received — and (b) *weak fairness* of actions — an action enabled
in all but finitely many states executes infinitely often.  The regular
action's guard is ``true``, so every node must execute it infinitely often.

Two schedulers satisfy these assumptions:

* :class:`SynchronousScheduler` — the measurement scheduler.  One round =
  every node (in a fresh random order) first receives *all* messages
  delivered to it, then executes one regular action.  Messages sent during
  round ``t`` become receivable in round ``t+1``.  This is the standard
  round model used by the paper's O(·) statements ("communication rounds").

* :class:`AsyncScheduler` — a randomized asynchronous scheduler used to
  check that stabilization does not secretly depend on synchrony.  Each
  elementary step picks a uniformly random node and either delivers one
  uniformly random pending message to it or fires its regular action.  Fair
  receipt and weak fairness hold with probability 1.

Both expose ``execute_round(network, rng)``; for the asynchronous scheduler
a "round" is ``steps_per_round`` elementary steps (default: 4·n, roughly the
work a synchronous round performs), which makes round counts comparable.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.sim.network import Network

__all__ = ["Scheduler", "SynchronousScheduler", "AsyncScheduler"]


class Scheduler(Protocol):
    """Anything that can advance a network by one round."""

    def execute_round(self, network: Network, rng: np.random.Generator) -> None:
        """Advance *network* by one round."""
        ...  # pragma: no cover - protocol


class SynchronousScheduler:
    """Round-based scheduler: receive everything, then one regular action.

    Parameters
    ----------
    regular_actions:
        Whether nodes execute their regular action each round.  Disabling it
        is useful for draining in-flight messages in white-box tests; the
        protocol itself always runs with regular actions on.
    """

    def __init__(self, *, regular_actions: bool = True) -> None:
        self.regular_actions = regular_actions

    def execute_round(self, network: Network, rng: np.random.Generator) -> None:
        # Messages staged in the previous round become receivable now.
        network.flush()
        ids = network.ids
        if not ids:
            return
        order = rng.permutation(len(ids))
        for i in order:
            nid = ids[i]
            if nid not in network:
                continue  # removed mid-round by a churn hook
            node = network.node(nid)
            send = network.sender(nid)
            for message in network.channel(nid).drain(rng):
                node.on_message(message, send, rng)
            if self.regular_actions:
                node.regular_action(send, rng)


class AsyncScheduler:
    """Randomized asynchronous scheduler (scheduler-independence tests).

    Each elementary step:

    1. staged messages are made deliverable,
    2. a uniformly random node ``p`` is chosen,
    3. if ``p.C`` is non-empty, a fair coin decides between delivering one
       uniformly random message from ``p.C`` and firing ``p``'s regular
       action; an empty channel always fires the regular action.

    Every (node, pending message) pair and every regular action has positive
    probability at every step, so fair receipt and weak fairness hold almost
    surely.

    .. note:: **Seed-breaking change (PR 3).**  ``execute_round`` now
       pre-draws the whole round's node choices (one ``rng.integers`` call)
       and receive/act coins (one ``rng.random`` call) instead of one numpy
       call per elementary step — membership cannot change mid-round, so the
       batched draws are distributionally identical, but the *sequence* of
       RNG draws differs from earlier releases: fixed-seed traces recorded
       before this change do not replay.  Runs remain fully deterministic
       for a fixed seed (pinned by ``tests/test_sim_engine.py``).
       ``execute_step`` keeps the original one-draw-per-step behavior for
       callers that single-step.
    """

    def __init__(
        self, *, steps_per_round: int | None = None, receive_probability: float = 0.9
    ) -> None:
        # Default 0.9: a regular action emits ~4 messages while a receive
        # step consumes one, so receive_probability must exceed ~0.8 for
        # channel backlogs to stay bounded in expectation.  Weak fairness
        # is unaffected — the regular action still fires with probability
        # ≥ 0.1 whenever its node is scheduled.
        if not (0.0 < receive_probability < 1.0):
            raise ValueError("receive_probability must be in (0, 1)")
        self.steps_per_round = steps_per_round
        self.receive_probability = receive_probability

    def execute_round(self, network: Network, rng: np.random.Generator) -> None:
        n = len(network)
        if n == 0:
            return
        steps = self.steps_per_round if self.steps_per_round is not None else 4 * n
        # Batched draws: node choices and coins for the whole round in two
        # numpy calls.  Protocol handlers never add or remove nodes, so the
        # membership size is invariant across the round's steps; the guard
        # below falls back to per-step draws if an external hook ever
        # changes membership mid-round.
        node_choices = rng.integers(0, n, size=steps)
        coins = rng.random(steps)
        for k in range(steps):
            network.flush()
            ids = network.ids
            if len(ids) != n:
                # Pre-drawn choices index the original membership; re-draw
                # this step instead (the extra flush inside is a no-op).
                self.execute_step(network, rng)
                continue
            nid = ids[int(node_choices[k])]
            node = network.node(nid)
            channel = network.channel(nid)
            send = network.sender(nid)
            if channel and coins[k] < self.receive_probability:
                message = channel.pop_random(rng)
                node.on_message(message, send, rng)
            else:
                node.regular_action(send, rng)

    def execute_step(self, network: Network, rng: np.random.Generator) -> None:
        """One elementary asynchronous step."""
        network.flush()
        ids = network.ids
        if not ids:
            return
        nid = ids[int(rng.integers(len(ids)))]
        node = network.node(nid)
        channel = network.channel(nid)
        send = network.sender(nid)
        if channel and rng.random() < self.receive_probability:
            message = channel.pop_random(rng)
            node.on_message(message, send, rng)
        else:
            node.regular_action(send, rng)
