"""The benchmark suite's traced run still finds every layer it wraps.

``benchmarks/suite/tracing.py`` (``run.py --trace 1``) wraps its targets
by ``owner.__dict__[attr]`` — module attributes such as
``repro.sim.fast.batched.build_inbox`` and the ``prepare_inbox`` /
``finalize_inbox`` / ``draw_delivery_keys`` names of ``buffers``,
``shard.core`` and ``shard.engine``, the ``ShardCore`` phases, the
``Kernels`` methods — so renaming or dropping one of them in ``src/``
breaks the traced run with a ``KeyError`` at install.  The suite's own
tests are not tier-1; this one loads the tracer from its file, read-only,
and installs and uninstalls it here.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "suite" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("suite_tracing_under_test", TRACING)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their annotations through the module.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_is_an_attribute_of_its_owner(tracing) -> None:
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing._targets()
        if attr not in owner.__dict__
    ]
    assert not missing, missing


def test_tracer_installs_and_puts_every_attribute_back(tracing) -> None:
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not was for owner, attr, was in before)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is was for owner, attr, was in before)
