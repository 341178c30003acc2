"""Per-rule unit tests for the protocol-aware lint pass.

Every rule family has at least one known-bad fixture proving it fires and
known-good fixtures proving it stays silent (ISSUE 1's acceptance
criterion).  Fixtures live in ``tests/fixtures/analysis/`` and are parsed,
never imported.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.lint import (
    ALL_RULES,
    RULES_BY_ID,
    Severity,
    exit_code,
    lint_paths,
    lint_source,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analysis"


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(str(path), path.read_text(encoding="utf-8"))


def fired(findings) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Known-good fixtures stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture", ["good_node.py", "good_rng_threading.py", "ignored_with_pragma.py"]
)
def test_good_fixture_is_clean(fixture):
    findings = lint_fixture(fixture)
    assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# Known-bad fixtures fire exactly their rule family
# ----------------------------------------------------------------------
def test_store_literal_fires():
    findings = lint_fixture("bad_store_literal.py")
    assert fired(findings) == {"store-literal"}
    assert len(findings) == 3  # 0.75, 0.125 (arithmetic), 1e-3 (IfExp body)
    messages = " ".join(f.message for f in findings)
    for literal in ("0.75", "0.125", "0.001"):
        assert literal in messages


def test_send_literal_fires():
    findings = lint_fixture("bad_send_literal.py")
    assert fired(findings) == {"send-literal"}
    values = sorted(f.message.split()[1] for f in findings)
    # One finding per fabricated literal — the payload of the nested
    # lin(0.25) constructor is reported exactly once, and the literal
    # laundered through the _mk helper is still caught.
    assert values == ["0.25", "0.5", "0.875", "7"]


def test_dispatch_completeness_fires_and_names_missing_types():
    findings = lint_fixture("bad_dispatch_missing.py")
    assert fired(findings) == {"dispatch-complete"}
    (finding,) = findings
    assert "RESRING" in finding.message and "RING" in finding.message
    assert "LIN" not in finding.message.split("type(s) ")[1].split(",")[0]


def test_foreign_mutation_fires_on_state_and_channel():
    findings = lint_fixture("bad_foreign_mutation.py")
    assert fired(findings) == {"foreign-mutation"}
    messages = " ".join(f.message for f in findings)
    assert "writes through 'other'" in messages
    assert "channel" in messages
    # Direct write, channel access, and the tuple-unpacked foreign write;
    # the self.state.r leg of the tuple assignment is exempt.
    assert len(findings) == 3
    assert sum("writes through 'other'" in f.message for f in findings) == 2


def test_stdlib_random_fires_on_both_import_forms():
    findings = lint_fixture("bad_stdlib_random.py")
    assert fired(findings) == {"stdlib-random"}
    assert len(findings) == 2  # import random; from random import choice


def test_legacy_np_random_fires():
    findings = lint_fixture("bad_legacy_np_random.py")
    assert fired(findings) == {"legacy-np-random"}
    messages = " ".join(f.message for f in findings)
    assert "np.random.seed" in messages
    assert "np.random.random" in messages
    assert "numpy.random.rand" in messages


def test_import_time_rng_fires_at_module_scope_only():
    findings = lint_fixture("bad_import_time_rng.py")
    assert fired(findings) == {"import-time-rng"}
    # Plain assignment, if-header, for-iterable, and function default —
    # all evaluate at import time; function *bodies* stay exempt.
    assert sorted(f.line for f in findings) == [5, 8, 11, 15]


def test_hygiene_rules_fire():
    findings = lint_fixture("bad_hygiene.py")
    assert fired(findings) == {
        "bare-except",
        "broad-except",
        "silent-except",
        "mutable-default",
    }
    by_rule = {f.rule: f for f in findings}
    assert by_rule["bare-except"].severity is Severity.ERROR
    # Ratcheted twice (ISSUE 2, ISSUE 4): silent-except and then
    # broad-except were each promoted from the advisory slot to errors.
    assert by_rule["silent-except"].severity is Severity.ERROR
    assert by_rule["broad-except"].severity is Severity.ERROR
    # Two silent excepts: the bare one and the ValueError one.  The
    # 'except Exception' handler has a real body, so only broad-except
    # fires there.
    assert sum(1 for f in findings if f.rule == "silent-except") == 2
    assert sum(1 for f in findings if f.rule == "broad-except") == 1


# ----------------------------------------------------------------------
# Regression details for individual rules (REVIEW round 1)
# ----------------------------------------------------------------------
def test_store_literal_sees_through_tuple_unpacking():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        p = self.state\n"
        "        p.l, p.r = 0.5, m.id\n"
    )
    findings = [f for f in lint_source("<mem>", src) if f.rule == "store-literal"]
    # The 0.5 pairs with p.l only; m.id into p.r is legitimate.
    assert len(findings) == 1
    assert "0.5" in findings[0].message and "'l'" in findings[0].message


def test_foreign_mutation_exempts_local_containers():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        buf = {}\n"
        "        buf[m.id] = m.sender\n"
        "        order = list()\n"
        "        order[:] = [m.id]\n"
    )
    assert all(f.rule != "foreign-mutation" for f in lint_source("<mem>", src))


def test_foreign_mutation_catches_tuple_unpacked_targets():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        self.state.l, other.state.r = m.id, m.id\n"
    )
    findings = [f for f in lint_source("<mem>", src) if f.rule == "foreign-mutation"]
    assert len(findings) == 1
    assert "writes through 'other'" in findings[0].message


def test_send_literal_laundered_through_helper_is_caught_once():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        self._send(send, m.sender, self._mk(5))\n"
        "        self._send(send, m.sender, lin(self._wrap(7)))\n"
    )
    findings = [f for f in lint_source("<mem>", src) if f.rule == "send-literal"]
    assert sorted(f.message.split()[1] for f in findings) == ["5", "7"]


def test_import_time_rng_in_with_header_and_decorator():
    src = (
        "import numpy as np\n"
        "with ctx(np.random.default_rng(0)):\n"
        "    pass\n"
        "@register(np.random.default_rng(1))\n"
        "def f():\n"
        "    pass\n"
    )
    findings = [f for f in lint_source("<mem>", src) if f.rule == "import-time-rng"]
    assert sorted(f.line for f in findings) == [2, 4]


def test_import_time_rng_still_ignores_function_bodies():
    src = (
        "import numpy as np\n"
        "def fresh():\n"
        "    return np.random.default_rng(0)\n"
    )
    assert lint_source("<mem>", src) == []


# ----------------------------------------------------------------------
# Pragmas: auditable suppression
# ----------------------------------------------------------------------
def test_pragma_suppresses_named_rule_only():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        pass\n"
        "    def h(self):\n"
        "        self.state.r = 0.5  # repro-lint: ignore[store-literal]\n"
    )
    findings = lint_source("<mem>", src)
    # store-literal suppressed; dispatch-complete still reported.
    assert fired(findings) == {"dispatch-complete"}


def test_pragma_wildcard_suppresses_everything_on_line():
    src = (
        "class N:\n"
        "    def on_message(self, m, send, rng):\n"
        "        self.state.r = 0.5  # repro-lint: ignore[*]\n"
    )
    findings = lint_source("<mem>", src)
    assert "store-literal" not in fired(findings)


def test_pragma_in_docstring_is_prose_not_suppression():
    src = '"""docs say use # repro-lint: ignore[store-literal]"""\nx = 1\n'
    assert lint_source("<mem>", src) == []


def test_malformed_and_unknown_pragmas_are_reported():
    findings = lint_fixture("bad_pragmas.py")
    assert fired(findings) == {"bad-pragma", "unknown-rule"}
    unknown = next(f for f in findings if f.rule == "unknown-rule")
    assert "no-such-rule" in unknown.message


# ----------------------------------------------------------------------
# Engine behavior
# ----------------------------------------------------------------------
def test_syntax_error_is_a_finding_not_a_crash():
    findings = lint_source("<mem>", "def broken(:\n")
    assert fired(findings) == {"syntax-error"}
    assert exit_code(findings) == 1


def test_unreadable_file_is_a_finding_not_a_crash(tmp_path):
    # Latin-1 bytes that are not valid UTF-8: fail loudly on that file,
    # keep linting the rest of the tree.
    bad = tmp_path / "bad_latin1.py"
    bad.write_bytes(b"# caf\xe9\nimport random\n")
    good = tmp_path / "also_checked.py"
    good.write_text("import random\n", encoding="utf-8")
    findings = lint_paths([str(tmp_path)])
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)
    assert [f.path for f in by_rule["unreadable-file"]] == [str(bad)]
    assert "UTF-8" in by_rule["unreadable-file"][0].message
    # The sibling file was still linted after the failure.
    assert [f.path for f in by_rule["stdlib-random"]] == [str(good)]
    assert exit_code(findings) == 1


def test_exit_code_semantics():
    # Strict-mode semantics pinned with a synthetic warning finding
    # (real warning-rule coverage: test_scalar_loop_over_soa_*).
    from repro.analysis.lint.findings import Finding

    warnings = [
        Finding("future-rule", Severity.WARNING, "x.py", 1, 0, "advisory")
    ]
    errors = lint_fixture("bad_hygiene.py")
    assert all(f.severity is Severity.ERROR for f in errors)
    assert exit_code([]) == 0
    assert exit_code(warnings) == 0
    assert exit_code(warnings, strict=True) == 1
    assert exit_code(errors) == 1


def test_rule_selection_subsets_findings():
    rules = [RULES_BY_ID["stdlib-random"]]
    path = FIXTURES / "bad_hygiene.py"
    findings = lint_source(str(path), path.read_text(encoding="utf-8"), rules)
    assert findings == []


def test_lint_paths_discovers_fixture_directory():
    findings = lint_paths([str(FIXTURES)])
    assert {f.rule for f in findings} >= {
        "store-literal",
        "send-literal",
        "dispatch-complete",
        "foreign-mutation",
        "stdlib-random",
        "legacy-np-random",
        "import-time-rng",
        "bare-except",
        "mutable-default",
    }
    # Every finding points at a bad_* fixture; good fixtures stay clean.
    for finding in findings:
        assert pathlib.Path(finding.path).name.startswith("bad_")


def test_registry_is_consistent():
    assert len({rule.id for rule in ALL_RULES}) == len(ALL_RULES)
    for rule in ALL_RULES:
        assert RULES_BY_ID[rule.id] is rule
        assert rule.summary
        assert rule.grounding


# ----------------------------------------------------------------------
# scalar-loop-over-soa (error since the sharding PR; path-gated to
# repro/sim/fast — every deliberate scalar site carries its pragma)
# ----------------------------------------------------------------------
def test_scalar_loop_over_soa_fires_under_fast_path():
    source = (FIXTURES / "bad_scalar_loop.py").read_text(encoding="utf-8")
    findings = lint_source("src/repro/sim/fast/snippet.py", source)
    assert fired(findings) == {"scalar-loop-over-soa"}
    (finding,) = findings  # one finding per loop; the vectorized twin is clean
    assert finding.severity is Severity.ERROR
    assert finding.line == 9
    assert "slow_export" in finding.message
    assert exit_code(findings) == 1  # the ratchet landed: errors gate CI


def test_scalar_loop_over_soa_is_path_gated():
    # The same loop outside repro/sim/fast is fine — scalar exports and
    # reference-engine code are allowed to iterate.
    findings = lint_fixture("bad_scalar_loop.py")
    assert findings == []


# ----------------------------------------------------------------------
# obs-blocking-in-wave (advisory; path-gated to repro/sim/fast — ISSUE 9's
# never-block telemetry contract)
# ----------------------------------------------------------------------
def test_obs_blocking_in_wave_fires_under_fast_path():
    source = (FIXTURES / "bad_obs_blocking.py").read_text(encoding="utf-8")
    findings = lint_source("src/repro/sim/fast/snippet.py", source)
    assert fired(findings) == {"obs-blocking-in-wave"}
    assert len(findings) == 4  # print, open, time.sleep, conn.recv
    assert all(f.severity is Severity.WARNING for f in findings)
    messages = " ".join(f.message for f in findings)
    for label in ("print()", "open()", "time.sleep()", "conn.recv()"):
        assert label in messages
    # The message-bus twin (out.send / profiler.add / out.flush) is clean.
    assert all(f.line < 20 for f in findings)


def test_obs_blocking_in_wave_scope_and_exemptions():
    # Outside repro/sim/fast the rule never applies (harness/exporter
    # code is allowed to do real I/O).
    assert lint_fixture("bad_obs_blocking.py") == []
    # The pragma names the rule and suppresses it like any other.
    pragma = (
        "def f():\n"
        "    print('x')  # repro-lint: ignore[obs-blocking-in-wave] demo\n"
    )
    assert lint_source("src/repro/sim/fast/s.py", pragma) == []
