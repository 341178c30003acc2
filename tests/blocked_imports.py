"""Run Python in a subprocess where some top-level packages cannot load.

A meta-path finder placed first on ``sys.meta_path`` refuses every module
whose top-level name is blocked, and anything already imported under those
names is dropped.  ``tests/test_lint_nodeps.py`` blocks the scientific
stack to stand in for the dependency-free lint CI jobs;
``tests/test_import_footprint.py`` blocks scipy and networkx to hold the
workload paths to numpy and the stdlib.  Not collected by pytest (no
``test_`` prefix).
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap
from collections.abc import Iterable

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: The packages the dependency-free lint CI jobs do not install.
SCIENTIFIC_STACK = ("numpy", "scipy", "networkx", "matplotlib", "pandas")

_PREAMBLE = """
import sys

_BLOCKED = {blocked!r}

class _BlockImports:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in _BLOCKED:
            raise ModuleNotFoundError(
                f"No module named {{name!r}} (blocked in this subprocess)"
            )
        return None

sys.meta_path.insert(0, _BlockImports())
for _name in list(sys.modules):
    if _name.split(".")[0] in _BLOCKED:
        del sys.modules[_name]
"""


def run_blocked(
    body: str, *argv: str, blocked: Iterable[str] = SCIENTIFIC_STACK
) -> subprocess.CompletedProcess[str]:
    """Run *body* (dedented) with *argv* in a fresh interpreter that
    cannot import *blocked*, with ``src`` on ``PYTHONPATH``."""
    code = _PREAMBLE.format(blocked=frozenset(blocked)) + textwrap.dedent(body)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
