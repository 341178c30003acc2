"""Smoke test: the real source tree satisfies its own lint pass.

This is the backstop ISSUE 1 installs for every future scaling PR: if a
change fabricates identifiers, drops a message type from dispatch, reaches
into foreign state, or introduces hidden RNG state anywhere under
``src/repro``, this test fails locally long before CI.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
from repro.analysis.lint import Severity, lint_paths

SRC_ROOT = pathlib.Path(repro.__file__).parent
#: The scalar oracle kept beside the tests; linted with the tree.
MIRROR = pathlib.Path(__file__).parent / "reference_mirror.py"


def test_src_tree_has_no_lint_errors():
    findings = lint_paths([str(SRC_ROOT), str(MIRROR)])
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors == [], "\n".join(f.render() for f in errors)


def test_src_tree_has_no_lint_warnings_either():
    # The tree is currently warning-clean too; keep it that way so the
    # advisory rules can be ratcheted to errors (ROADMAP open item).
    findings = lint_paths([str(SRC_ROOT), str(MIRROR)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_module_entry_point_runs_clean():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(SRC_ROOT)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_node_module_is_covered_by_protocol_rules():
    """Guard against the rules going blind: the real Node class must be
    recognized as a protocol node class (otherwise the compare-store-send
    rules silently stop applying to the code they exist for)."""
    import ast

    from repro.analysis.lint.rules.protocol import protocol_node_classes

    node_py = SRC_ROOT / "core" / "node.py"
    tree = ast.parse(node_py.read_text(encoding="utf-8"))
    names = [cls.name for cls in protocol_node_classes(tree)]
    assert names == ["Node"]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_baseline():  # pragma: no cover - exercised in CI
    result = subprocess.run(
        ["ruff", "check", str(SRC_ROOT)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_baseline():  # pragma: no cover - exercised in CI
    repo_root = SRC_ROOT.parents[1]
    result = subprocess.run(
        ["mypy", "--config-file", str(repo_root / "pyproject.toml")],
        capture_output=True,
        text=True,
        check=False,
        cwd=repo_root,
    )
    assert result.returncode == 0, result.stdout + result.stderr
