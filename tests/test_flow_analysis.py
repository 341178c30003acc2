"""Tests for the flow pass: fixtures, engine, access sets, CLI, clean tree.

Mirrors ``tests/test_lint_rules.py``: every flow rule has a ``bad_*``
fixture proving it fires at pinned lines and ``good_*`` / pragma'd
fixtures proving it stays silent.  Fixtures live in
``tests/fixtures/flow/`` and are parsed, never imported.  The clean-tree
half is the acceptance criterion of ISSUE 6: the shipped source produces
zero error-class findings (all deliberate hazards carry justified
pragmas), while the broken fixtures keep producing theirs.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis.flow import (
    FLOW_RULES,
    FLOW_RULES_BY_ID,
    Severity,
    analyze_paths,
    analyze_source,
    class_access_sets,
    exit_code,
    provably_disjoint,
)
from repro.analysis.flow.cli import main as flow_main
from repro.analysis.flow.masks import TRUE, MaskEnv

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "flow"
SRC_ROOT = pathlib.Path(repro.__file__).parent


def flow_fixture(name: str):
    path = FIXTURES / name
    return analyze_source(str(path), path.read_text(encoding="utf-8"))


def fired(findings) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Known-good fixtures stay silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture", ["good_kernel.py", "flow_ignored_with_pragma.py"]
)
def test_good_fixture_is_clean(fixture):
    findings = flow_fixture(fixture)
    assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# Known-bad fixtures fire exactly their rule at pinned lines
# ----------------------------------------------------------------------
def test_write_write_fires():
    findings = flow_fixture("bad_overlap_masks.py")
    assert fired(findings) == {"flow-write-write"}
    assert [f.line for f in findings] == [8, 13, 20]
    # Overlapping masks, an unmasked second store, and a store whose
    # base index vector was rebound in between — each names its column.
    cols = [f.message.split("'")[1] for f in findings]
    assert cols == ["lrl", "age", "ring"]


def test_read_after_write_fires():
    findings = flow_fixture("bad_read_after_write.py")
    assert fired(findings) == {"flow-read-after-write"}
    assert [f.line for f in findings] == [6, 12]  # leaf RHS + branch header


def test_inplace_alias_fires():
    findings = flow_fixture("bad_inplace_alias.py")
    assert fired(findings) == {"flow-inplace-alias"}
    assert [f.line for f in findings] == [7, 11, 16]  # +=, out=, view +=


def test_branch_rng_fires():
    findings = flow_fixture("bad_branch_rng.py")
    assert fired(findings) == {"flow-branch-rng"}
    assert [f.line for f in findings] == [6, 11]
    assert "a loop" in findings[0].message
    assert "a data-dependent branch" in findings[1].message
    # The config-pure branch in the same fixture stays silent — only the
    # two seeded hazards fire.


def test_all_flow_findings_are_errors():
    for fixture in FIXTURES.glob("bad_*.py"):
        for finding in flow_fixture(fixture.name):
            assert finding.severity is Severity.ERROR


# ----------------------------------------------------------------------
# Engine-level behaviors
# ----------------------------------------------------------------------
def test_syntax_error_is_a_finding():
    findings = analyze_source("broken.py", "def kernel(:\n")
    assert [f.rule for f in findings] == ["syntax-error"]
    assert exit_code(findings, strict=False) == 1


def test_bad_pragma_and_unknown_rule_are_findings():
    source = (
        "def kernel(soa, idx, vals):\n"
        "    soa.age[idx] = vals  # repro-flow: ignore flow-write-write\n"
        "    soa.lrl[idx] = vals  # repro-flow: ignore[no-such-rule] why\n"
    )
    findings = analyze_source("pragmas.py", source)
    assert fired(findings) == {"bad-pragma", "unknown-rule"}
    by_rule = {f.rule: f for f in findings}
    assert by_rule["bad-pragma"].line == 2  # missing brackets
    assert "no-such-rule" in by_rule["unknown-rule"].message


def test_pragma_namespaces_stay_separate():
    """One engine, two namespaces: a pass reads only its own pragmas."""
    from repro.analysis.lint import lint_source

    flow_hazard = (
        "def kernel(soa, idx, vals):\n"
        "    soa.age[idx] = vals\n"
        "    soa.age[idx] = vals + 1  # repro-lint: ignore[flow-write-write]\n"
    )
    lint_hazard = "import random  # repro-flow: ignore[stdlib-random]\n"
    # A lint pragma does not suppress a flow finding, nor a flow pragma a
    # lint finding.
    assert [(f.rule, f.line) for f in analyze_source("a.py", flow_hazard)] == [
        ("flow-write-write", 3)
    ]
    assert [(f.rule, f.line) for f in lint_source("b.py", lint_hazard)] == [
        ("stdlib-random", 1)
    ]
    # Each pass calls the other's rule id unknown under its own prefix.
    (lint_unknown,) = lint_source("a.py", flow_hazard)
    assert (lint_unknown.rule, lint_unknown.line) == ("unknown-rule", 3)
    assert "'flow-write-write'" in lint_unknown.message
    (flow_unknown,) = analyze_source("b.py", lint_hazard)
    assert (flow_unknown.rule, flow_unknown.line) == ("unknown-rule", 1)
    assert "'stdlib-random'" in flow_unknown.message


def test_one_engine_serves_both_passes():
    """The flow pass has no engine or unit of its own, and the
    ``bad-pragma`` finding is built in one module only."""
    import ast
    import importlib.util

    for name in ("engine", "unit"):
        assert importlib.util.find_spec(f"repro.analysis.flow.{name}") is None
    sites = []
    for path in sorted((SRC_ROOT / "analysis").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(
            isinstance(node, ast.keyword)
            and node.arg == "rule"
            and isinstance(node.value, ast.Constant)
            and node.value.value == "bad-pragma"
            for node in ast.walk(tree)
        ):
            sites.append(path.relative_to(SRC_ROOT).as_posix())
    assert sites == ["analysis/lint/engine.py"]


def test_mask_prover_certifies_complement_and_refuses_overlap():
    import ast

    env = MaskEnv()
    env.observe_assign(ast.parse("m = vals > age").body[0])
    m = env.expr_of(ast.parse("m", mode="eval").body)
    not_m = env.expr_of(ast.parse("~m", mode="eval").body)
    other = env.expr_of(ast.parse("vals < cutoff", mode="eval").body)
    assert provably_disjoint(m, not_m)
    assert not provably_disjoint(m, other)
    assert not provably_disjoint(m, TRUE)
    assert not provably_disjoint(m, None)


# ----------------------------------------------------------------------
# Access-set extraction (the sanitizer's static reference)
# ----------------------------------------------------------------------
def test_kernels_access_sets_match_known_shape():
    source = (SRC_ROOT / "sim" / "fast" / "kernels.py").read_text(
        encoding="utf-8"
    )
    sets = class_access_sets(source, "Kernels")
    assert "move_forget" in sets and "linearize" in sets
    mf = sets["move_forget"]
    assert {"age", "lrl"} <= mf.writes
    assert {"age", "ids", "lrl"} <= mf.reads
    # place_token (the replay half of Algorithm 4) delegates to linearize,
    # so the closure inherits its sends; linearize itself sends LIN.
    assert "LIN" in sets["linearize"].sends
    assert sets["linearize"].sends <= sets["place_token"].sends


# ----------------------------------------------------------------------
# The shipped tree is flow-clean (ISSUE 6 acceptance criterion)
# ----------------------------------------------------------------------
def test_src_tree_has_no_flow_errors():
    findings = analyze_paths([str(SRC_ROOT)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_module_entry_point_runs_clean():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.flow", str(SRC_ROOT)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_suppressed_hazards_still_fire_without_their_pragmas():
    """Guard against the pass going blind: every ``repro-flow`` pragma in
    the shipped tree suppresses a finding that actually fires when the
    pragma is stripped (no stale pragmas, no silently-dead rules)."""
    import re

    # Count *real* pragmas with the tokenizer-backed parser — pragma
    # syntax quoted in docstrings and message strings is prose, and
    # regex-stripping it would corrupt those files.
    from repro.analysis.lint.ignores import IgnorePragmas

    pragma_re = re.compile(r"# repro-flow: ignore\[[a-z][a-z-]*\][^\n]*")
    stripped_total = 0
    for path in SRC_ROOT.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        pragma_lines = IgnorePragmas(text, tool="repro-flow").rules_by_line()
        if not pragma_lines:
            continue
        pragmas = len(pragma_lines)
        lines = text.splitlines(keepends=True)
        for lineno in pragma_lines:
            lines[lineno - 1] = pragma_re.sub("", lines[lineno - 1])
        bare = "".join(lines)
        findings = analyze_source(str(path), bare)
        assert len(findings) == pragmas, (
            f"{path}: {pragmas} pragma(s) but {len(findings)} finding(s) "
            "when stripped:\n" + "\n".join(f.render() for f in findings)
        )
        stripped_total += pragmas
    assert stripped_total >= 9  # the tree's documented deliberate hazards


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert flow_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in FLOW_RULES:
        assert rule.id in out
    assert set(FLOW_RULES_BY_ID) == {r.id for r in FLOW_RULES}


def test_cli_select_restricts_rules(capsys):
    target = str(FIXTURES / "bad_overlap_masks.py")
    assert flow_main(["--select", "flow-branch-rng", target]) == 0
    assert "clean" in capsys.readouterr().out
    assert flow_main(["--select", "flow-write-write", target]) == 1
    assert "flow-write-write" in capsys.readouterr().out


def test_cli_ignore_drops_rules(capsys):
    target = str(FIXTURES / "bad_branch_rng.py")
    assert flow_main(["--ignore", "flow-branch-rng", target]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_unknown_rule_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        flow_main(["--select", "not-a-rule", str(FIXTURES)])
    assert excinfo.value.code == 2


def test_cli_missing_path_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        flow_main([str(FIXTURES / "no_such_file.py")])
    assert excinfo.value.code == 2


def test_cli_json_format(capsys):
    target = str(FIXTURES / "bad_read_after_write.py")
    assert flow_main(["--format", "json", target]) == 1
    payload = json.loads(capsys.readouterr().out)["findings"]
    assert [f["rule"] for f in payload] == ["flow-read-after-write"] * 2
    assert all(f["severity"] == "error" for f in payload)


def test_cli_access_report(capsys):
    target = str(SRC_ROOT / "sim" / "fast" / "kernels.py")
    assert flow_main(["--access", "--format", "json", target]) == 0
    payload = json.loads(capsys.readouterr().out)
    (per_file,) = payload.values()
    assert "Kernels.move_forget" in per_file
    assert "lrl" in per_file["Kernels.move_forget"]["writes"]
