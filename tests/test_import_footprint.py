"""The workload paths load numpy and the stdlib, not scipy or networkx.

Every benchmark workload is one of four paths: a cold line start to the
sorted list (batched, and on two inline shards), the churn storms on a
warmed stable overlay, and the serving plane.  Importing scipy and
networkx cost each of them ~37 MB of resident memory that nothing on
those paths called, so this ratchet keeps them out: in a subprocess that
cannot import either package (``tests/blocked_imports.py``), import what
the benchmark suite's workload and layer modules import, run each path at
n = 128, and check that neither package was loaded.  networkx stays where
a graph is built — the reference predicates and views, the
``NodeState`` topology families, the small-world metrics — imported in
the function that builds it, and no module under ``src`` names scipy.
"""

from __future__ import annotations

import ast
import json

from tests.blocked_imports import SRC, run_blocked

HEAVY = ("scipy", "networkx")

WORKLOAD_PATHS = """
import http.client
import json

import numpy as np

from repro.churn.experiments import stable_simulator
from repro.churn.scale import recovery_cap, storm_recovery_trial
from repro.core.messages import MessageType
from repro.experiments.common import seed_rng
from repro.serve.load import LoadReport
from repro.serve.service import OverlayService, build_service
from repro.serve.slo import build_slo_summary, hop_bound, validate_slo_summary
from repro.sim.engine import StabilizationTimeout
from repro.sim.fast import predicates
from repro.sim.fast.batched import KERNEL_NAMES
from repro.sim.fast.engine import FastSimulator
from repro.topology.generators import TOPOLOGIES

N = 128

for mode in ("batched", "sharded"):
    sim = FastSimulator.from_states(
        TOPOLOGIES["line"](N, np.random.default_rng(7)),
        mode=mode,
        shards=2,
        workers=0,
        rng=np.random.default_rng(7),
    )
    sim.run_until(predicates.fast_is_sorted_list, max_rounds=64 * N, check_every=8)
    holds = {
        name: check(sim.engine)
        for name, check in predicates.fast_phase_predicates().items()
    }
    assert holds[predicates.PHASE_CONNECTED], (mode, holds)
    assert holds[predicates.PHASE_SORTED_LIST], (mode, holds)

sim = stable_simulator(N, seed_rng(7, N), None, engine="fast")
for storm in ("flash_crowd", "correlated_departure"):
    result = storm_recovery_trial(
        N, storm=storm, seed=7, engine="fast", sim=sim, max_rounds=recovery_cap(N)
    )
    assert result.recovered, storm
assert sim.engine.cc_components() == 1

service = build_service(n=N, topology="stable", engine="fast", seed=7)
service.start()
try:
    view = service.host.view
    outcome = service.lookup_batch(view.ids[:32], rng=np.random.default_rng(0))
    assert outcome.ok.all()
    address, _, port = service.api_address.rpartition(":")
    connection = http.client.HTTPConnection(address, int(port), timeout=30)
    connection.request("GET", f"/lookup?target={float(view.ids[0])!r}")
    response = connection.getresponse()
    body = response.read()
    connection.close()
    assert response.status == 200 and json.loads(body)["ok"], body
finally:
    service.stop()

print(json.dumps(sorted(sys.modules)))
"""


def test_workload_paths_load_neither_scipy_nor_networkx() -> None:
    proc = run_blocked(WORKLOAD_PATHS, blocked=HEAVY)
    assert proc.returncode == 0, proc.stderr[-4000:]
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "numpy" in loaded
    assert not [m for m in loaded if m.split(".")[0] in HEAVY]


def _imported(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module.split(".")[0]]
    return []


def test_src_imports_networkx_only_in_functions_and_never_scipy() -> None:
    top_level = []
    scipy = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if "scipy" in _imported(node):
                scipy.append(f"{where}:{node.lineno}")
        # Module-level statements only: an ``if TYPE_CHECKING:`` block is
        # an ``ast.If``, so its imports are not among them.
        for node in tree.body:
            if "networkx" in _imported(node):
                top_level.append(f"{where}:{node.lineno}")
    assert not scipy, scipy
    assert not top_level, top_level
