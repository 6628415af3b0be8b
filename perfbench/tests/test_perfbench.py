"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` as a subprocess in ``--tiny`` mode
(one provider per suite and cluster unit, a one-second window), the way
a user would.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run("--workload", workload, "--seconds", "1", "--tiny",
               "--trace", trace)
    out = result(proc)
    table = SPEC["end_to_end" if trace == "0" else "per_layer"]
    expected = {m["name"]: m["unit"] for m in table}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    assert out["correct"] is True
    assert out["attempted"] >= 1
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_corrupted_golden_raises_failed_frac(tmp_path):
    with open(os.path.join(BENCH_DIR, "goldens.json")) as fh:
        goldens = json.load(fh)
    goldens["cluster_sweep"]["plain:clan"] = "0" * 16
    bad = tmp_path / "goldens.json"
    bad.write_text(json.dumps(goldens))

    good = result(run("--workload", "cluster_sweep", "--seconds", "1",
                      "--tiny"))
    out = result(run("--workload", "cluster_sweep", "--seconds", "1",
                     "--tiny", "--goldens", str(bad)))
    assert good["failed"] == 0 and good["correct"] is True
    assert out["failed"] >= 1
    assert out["correct"] is False


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
