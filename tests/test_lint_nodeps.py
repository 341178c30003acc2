"""The static-analysis passes must run without the scientific stack.

The repro-lint and flow-analysis CI jobs (.github/workflows/ci.yml)
deliberately install no dependencies: both passes are stdlib-only so a
compare-store-send, RNG or kernel-conflict violation fails the build in
seconds, before numpy/networkx are even downloaded.  That claim is only
honest if ``python -m repro.analysis.lint`` (and ``.flow``) imports
cleanly when numpy, scipy, and networkx are *absent* — which in
turn requires the ``repro`` and ``repro.analysis`` package ``__init__``
modules to stay lazy (PEP 562) instead of eagerly importing the heavy
measurement modules.

These tests simulate the no-deps container by installing a meta-path
finder that refuses to import the scientific stack, then running the real
CLI in a subprocess (``tests/blocked_imports.py``, shared with
``tests/test_import_footprint.py``).
"""

from __future__ import annotations

from tests.blocked_imports import run_blocked


def test_cli_lints_src_without_scientific_stack():
    # Exactly the repro-lint CI invocation: python -m repro.analysis.lint src/
    proc = run_blocked(
        """
        import runpy
        sys.argv = ["repro-lint", sys.argv[1]]
        runpy.run_module("repro.analysis.lint", run_name="__main__")
        """,
        "src",
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
    assert "ModuleNotFoundError" not in proc.stderr


def test_flow_cli_runs_without_scientific_stack():
    # The flow-analysis CI job installs nothing either: its findings run
    # and its --access report must both work on the stdlib alone.
    run_flow = """
        import runpy
        sys.argv = ["repro-flow", *sys.argv[1:]]
        runpy.run_module("repro.analysis.flow", run_name="__main__")
        """
    proc = run_blocked(run_flow, "src")
    assert proc.returncode == 0, proc.stderr
    assert "repro-flow: clean" in proc.stdout
    proc = run_blocked(
        run_flow, "--access", "--format", "json", "src/repro/sim/fast"
    )
    assert proc.returncode == 0, proc.stderr
    assert "Kernels.move_forget" in proc.stdout
    assert "ModuleNotFoundError" not in proc.stderr


def test_lint_api_imports_without_scientific_stack():
    proc = run_blocked(
        """
        from repro.analysis.lint import ALL_RULES, lint_source
        assert len(ALL_RULES) >= 10
        findings = lint_source("<mem>", "import random\\n")
        assert [f.rule for f in findings] == ["stdlib-random"]
        print("OK")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


def test_heavy_api_still_fails_loudly_without_stack():
    # Lazy does not mean silent: touching a numpy-backed export without
    # numpy installed must raise ModuleNotFoundError, not return junk.
    proc = run_blocked(
        """
        import repro
        try:
            repro.Simulator
        except ModuleNotFoundError:
            print("RAISED")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert "RAISED" in proc.stdout
