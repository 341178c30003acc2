"""A round reuses the pages the previous round freed.

Under glibc's default heap policy the freed top of the heap goes back to
the kernel after every round and the next round faults it in again, page
by page: ~620 minor faults a round at these sizes.  Building an engine pins
glibc's mmap and trim thresholds (``repro.sim.fast.heap``), and a warmed
round then faults almost nothing.  Each leg counts
``resource.getrusage(RUSAGE_SELF).ru_minflt`` over a fixed block of rounds
in a fresh interpreter, so nothing this test process allocated before
bears on the count.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's"
)

_BODY = """
import resource
import numpy as np
from repro.churn.experiments import stable_simulator
from repro.sim.host import make_simulator
from repro.topology.generators import line_soa

leg = {leg!r}
if leg == "stationary":
    sim = stable_simulator(2048, np.random.default_rng(7), engine="fast")
    warm, counted = 5, 20
else:
    rng = np.random.default_rng(7)
    sim = make_simulator(line_soa(4096, rng), engine="fast", rng=rng)
    warm, counted = 10, 30
sim.run(warm)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sim.run(counted)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / counted)
"""


def faults_per_round(leg: str) -> float:
    """Minor faults per counted round of *leg*, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_BODY.format(leg=leg))],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return float(done.stdout.split()[-1])


@pytest.mark.parametrize(
    "leg,bound",
    # Under the default policy: ~617 and ~621 faults a round.
    [("stationary", 50), ("line", 60)],
)
def test_warm_rounds_do_not_refault_the_heap(leg, bound) -> None:
    """20 rounds of a warmed 2 048-node stable overlay (after 5) and 30
    cold rounds of a shuffled 4 096-node line (after 10), seed 7."""
    faults = faults_per_round(leg)
    assert faults <= bound, faults
