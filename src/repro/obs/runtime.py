"""Ambient observer activation (the engines' discovery point).

Experiment drivers construct their simulators internally, so telemetry
cannot be threaded through every call site without touching all 22
drivers.  Instead the harness *activates* an observer for the dynamic
extent of a run::

    with activated(observer):
        result = spec.run(**params)   # every simulator built inside
                                      # attaches itself automatically

and the engine constructors call :func:`attach_simulator` /
:func:`attach_campaign`, which are no-ops (returning ``None``) when no
observer is active.  This module is deliberately tiny — it is imported by
the simulation hot path, so it must not pull in the rest of the obs
package until an observer actually exists.

Activation is one process-wide pointer, set and restored by whoever
builds the simulators; it is not thread-safe.  The rounds themselves may
run on other threads: the serving host builds its engine under
:func:`activated` and then steps it on its own engine thread while
client threads read beside it, which is why the observer's layer tracer
(:class:`~repro.obs.spans.LayerTracer`) keeps one span stack per thread.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import CampaignHandle, Observer, SimHandle

__all__ = ["activated", "active", "attach_campaign", "attach_simulator"]

_active: "Observer | None" = None


def active() -> "Observer | None":
    """The currently activated observer, if any."""
    return _active


@contextmanager
def activated(observer: "Observer") -> "Iterator[Observer]":
    """Make *observer* ambient for the duration of the ``with`` body.

    Nests: the previous observer (usually ``None``) is restored on exit.
    """
    global _active
    previous = _active
    _active = observer
    try:
        yield observer
    finally:
        _active = previous


def attach_simulator(sim: Any) -> "SimHandle | None":
    """Attach *sim* to the ambient observer; ``None`` when inactive."""
    if _active is None:
        return None
    return _active.attach_simulator(sim)


def attach_campaign(campaign: Any) -> "CampaignHandle | None":
    """Attach *campaign* to the ambient observer; ``None`` when inactive."""
    if _active is None:
        return None
    return _active.attach_campaign(campaign)
