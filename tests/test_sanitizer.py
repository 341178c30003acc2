"""Tests for the runtime flow sanitizer (the dynamic half of ISSUE 6).

Pins the contract of :mod:`repro.sim.fast.sanitize`: sanitized runs are
bit-exact with plain runs on every engine mode, violations of the wave
precondition / store disjointness / static cross-check raise
:class:`FlowSanitizerError`, and activation works through both the
``sanitize=`` flag and the ``REPRO_SANITIZE`` environment variable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.fast.batched import FastEngine
from repro.sim.fast.engine import FastSimulator
from repro.sim.fast.sanitize import (
    FlowSanitizer,
    FlowSanitizerError,
    SanitizedSoAState,
    sanitize_enabled,
)
from repro.sim.fast.soa import SoAState
from repro.topology.generators import TOPOLOGIES
from tests.reference_mirror import mirror_simulator

N = 48
SEED = 977
ROUNDS = 20


def make_states(seed: int = SEED):
    return TOPOLOGIES["gnp"](N, np.random.default_rng(seed))


#: The two hosts under the sanitizer: the batched kernels and the
#: mirror oracle's scalar handlers.
BUILD = {"batched": FastSimulator.from_states, "mirror": mirror_simulator}


def run_sim(mode: str, *, sanitize: bool, rounds: int = ROUNDS):
    sim = BUILD[mode](
        make_states(),
        sanitize=sanitize,
        rng=np.random.default_rng([SEED, 1]),
    )
    for _ in range(rounds):
        sim.step_round()
    return sim


# ----------------------------------------------------------------------
# Bit-exactness: sanitizing must not perturb the run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["batched", "mirror"])
def test_sanitized_run_is_bit_exact(mode):
    plain = run_sim(mode, sanitize=False)
    sanitized = run_sim(mode, sanitize=True)
    assert plain.state_snapshot() == sanitized.state_snapshot()
    san = sanitized.engine.sanitizer
    assert san is not None and san.rounds_checked > 0
    assert plain.engine.sanitizer is None


# ----------------------------------------------------------------------
# Violation detection
# ----------------------------------------------------------------------
def test_wave_precondition_violation_raises():
    san = FlowSanitizer.for_kernels()
    with pytest.raises(FlowSanitizerError, match="wave precondition"):
        san.begin("linearize", np.array([3, 5, 3], dtype=np.int64))


def test_duplicate_fancy_store_raises():
    san = FlowSanitizer.for_kernels()
    soa = SoAState.from_states(make_states())
    proxy = SanitizedSoAState(soa, san)
    san.begin("linearize", np.array([0, 1], dtype=np.int64))
    with pytest.raises(FlowSanitizerError, match="non-unique fancy-indexed"):
        proxy.l[np.array([2, 2], dtype=np.int64)] = 0.5
    san.abort()


def test_read_only_window_admits_repeats_and_refuses_stores():
    """A read-only group of the writer schedule may hold a destination
    many times — and then nothing may be stored, not even one element;
    an empty store mask (what every kernel issues there) is fine."""
    san = FlowSanitizer.for_kernels()
    soa = SoAState.from_states(make_states())
    proxy = SanitizedSoAState(soa, san)
    repeated = np.array([3, 5, 3, 3], dtype=np.int64)
    san.begin("linearize", repeated, read_only=True)
    proxy.r[repeated[np.zeros(4, dtype=bool)]] = np.empty(0)
    proxy.l[np.zeros(soa.size, dtype=bool)] = 0.5
    san.end()
    san.begin("linearize", repeated, read_only=True)
    with pytest.raises(FlowSanitizerError, match="read-only window"):
        proxy.r[np.array([5], dtype=np.int64)] = 0.5
    san.abort()
    # A writer window is what it was: unique destinations or nothing.
    with pytest.raises(FlowSanitizerError, match="wave precondition"):
        san.begin("linearize", repeated)


def test_access_cross_check_raises_on_undeclared_write():
    san = FlowSanitizer.for_kernels()
    soa = SoAState.from_states(make_states())
    proxy = SanitizedSoAState(soa, san)
    # ``linearize`` statically never writes ``age``; doing so inside its
    # window must fail the end-of-window subset check.
    san.begin("linearize", np.array([0, 1], dtype=np.int64))
    proxy.age[np.array([0, 1], dtype=np.int64)] = 7
    with pytest.raises(FlowSanitizerError, match="exceeded its static"):
        san.end()


def test_unknown_kernel_name_raises_at_end():
    san = FlowSanitizer.for_kernels()
    san.begin("not_a_kernel")
    with pytest.raises(FlowSanitizerError, match="no static access set"):
        san.end()


def test_abort_discards_window_without_checking():
    san = FlowSanitizer.for_kernels()
    san.begin("not_a_kernel")
    san.abort()  # no error: the kernel itself raised, nothing to check
    assert san.rounds_checked == 0


def test_proxy_rejects_column_rebinding():
    san = FlowSanitizer.for_kernels()
    proxy = SanitizedSoAState(SoAState.from_states(make_states()), san)
    with pytest.raises(FlowSanitizerError, match="never rebind"):
        proxy.l = np.zeros(4)


def test_accesses_outside_windows_are_ambient():
    san = FlowSanitizer.for_kernels()
    soa = SoAState.from_states(make_states())
    proxy = SanitizedSoAState(soa, san)
    # Engine bookkeeping between kernels (snapshots, churn) records
    # nothing and never raises — even non-unique stores.
    proxy.age[np.array([0, 0], dtype=np.int64)] = 1
    _ = proxy.lrl[2]
    san.begin("linearize", np.array([0], dtype=np.int64))
    san.end()  # the ambient accesses did not leak into the window


# ----------------------------------------------------------------------
# Static reference sets
# ----------------------------------------------------------------------
def test_static_sets_cover_every_dispatched_kernel():
    from repro.sim.fast.batched import KERNEL_NAMES
    from tests.reference_mirror import _HANDLER_OF_CODE, mirror_sanitizer

    kernels = FlowSanitizer.for_kernels().expected
    for name in (*KERNEL_NAMES, "regular_action"):
        assert name in kernels, name
    mirror = mirror_sanitizer().expected
    for name in (*_HANDLER_OF_CODE.values(), "_run_regular"):
        assert name in mirror, name


# ----------------------------------------------------------------------
# Activation paths
# ----------------------------------------------------------------------
def test_env_flag_parsing(monkeypatch):
    for value, expected in (
        ("", False),
        ("0", False),
        ("false", False),
        (" False ", False),
        ("1", True),
        ("yes", True),
    ):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert sanitize_enabled() is expected
    monkeypatch.delenv("REPRO_SANITIZE")
    assert not sanitize_enabled()


def test_env_flag_activates_engines(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    engine = FastEngine(make_states())
    assert engine.sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert FastEngine(make_states()).sanitizer is None
    # An explicit flag beats the environment in both directions.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert FastEngine(make_states(), sanitize=False).sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert FastEngine(make_states(), sanitize=True).sanitizer is not None


@pytest.mark.parametrize("mode", ["batched", "mirror"])
def test_chaos_modes_accept_sanitize_flag(mode):
    sim = BUILD[mode](
        make_states(),
        wire=True,
        sanitize=True,
        rng=np.random.default_rng([SEED, 2]),
    )
    for _ in range(5):
        sim.step_round()
    san = sim.engine.sanitizer
    assert san is not None and san.rounds_checked > 0
