"""Import budget: each entry point loads only what its path runs.

A cold process pays for every module it imports, and the suite runs
many short simulations, so start-up cost is a large share of what a
user waits for.  These checks run in fresh interpreters (the test
process itself has imported everything) and pin the layering:

- the cluster core and a packet-fidelity cell never load numpy, the
  benchmark suite (``repro.vibe``), the programming-model layers, the
  snapshot package or the service;
- the service never loads numpy at import;
- numpy does load once the fast-forward planner actually runs (the
  positive control that keeps the first two checks honest).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"

_REPORT = """
import json, sys
print(json.dumps({"loaded": sorted(sys.modules), "out": OUT}))
"""


def _run(body: str) -> dict:
    """Run ``body`` (which sets ``OUT``) in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", body + _REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded(report: dict, *names: str) -> list[str]:
    """Which of ``names`` (packages include their submodules) loaded."""
    return sorted({n for n in names for m in report["loaded"]
                   if m == n or m.startswith(n + ".")})


def test_packet_cluster_cell_loads_only_the_simulation_stack():
    report = _run("""
from repro.cluster import ClusterConfig, run_cluster_once
cfg = ClusterConfig(nodes=2, clients=2, requests=2)
OUT = run_cluster_once("clan", cfg, 500.0)["violations"]
""")
    assert report["out"] == []
    assert _loaded(report, "numpy", "repro.vibe", "repro.layers",
                   "repro.snap", "repro.serve") == []


def test_service_import_loads_no_numpy():
    report = _run("""
import repro.serve
OUT = None
""")
    assert _loaded(report, "numpy") == []


def test_fast_forward_run_loads_numpy_and_bursts():
    report = _run("""
from repro.sim import core
sims = []
_init = core.Simulator.__init__

def _record(self, *args, **kwargs):
    _init(self, *args, **kwargs)
    sims.append(self)

core.Simulator.__init__ = _record
from repro.vibe import run_benchmark
run_benchmark("base_bandwidth", "mvia", sizes=[16384], fidelity="auto")
OUT = sum(sim.ff_bursts for sim in sims)
""")
    assert report["out"] > 0
    assert _loaded(report, "numpy") == ["numpy"]
