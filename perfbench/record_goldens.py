"""Record the golden output digests the benchmark checks against.

    python3 perfbench/record_goldens.py     # rewrites perfbench/goldens.json

Every digest is computed at the default seed through the reference path,
never through the path being measured:

- ``suite_paper``: each call's points at packet fidelity, so the
  ``auto`` bandwidth phase must reproduce the packet-level points, keyed
  by the call's inputs so they apply at every seed that draws them;
- ``cluster_sweep``: each cell's point JSON;
- ``serve_mixed``: the ``execute_spec`` body of every ``run`` spec the
  mix can draw (these do not depend on the seed) and of the first
  :data:`serve_mixed.GOLDEN_ROUNDS` rounds of fresh cluster specs per
  client.

Re-record only when a change to the program is meant to change results.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import DEFAULT_SEED, SRC, canonical, digest  # noqa: E402


def record() -> dict:
    sys.path.insert(0, SRC)
    from repro.cluster import run_cluster_once
    from repro.serve import ExperimentSpec, execute_spec
    from repro.vibe import run_benchmark

    import cluster_sweep
    import serve_mixed
    import suite_paper

    suite = {}
    for bench, kwargs in suite_paper.make_inputs(DEFAULT_SEED).items():
        packet = {k: v for k, v in kwargs.items() if k != "fidelity"}
        for provider in suite_paper.PROVIDERS:
            result = run_benchmark(bench, provider, **packet)
            suite[suite_paper.call_key(bench, provider, kwargs)] = digest(
                suite_paper.points_json(result))

    cluster = {}
    for kind, provider, cfg, rate in cluster_sweep.make_cells(DEFAULT_SEED):
        point = run_cluster_once(provider, cfg, rate)
        cluster[f"{kind}:{provider}"] = digest(canonical(point))

    def served(spec: dict) -> str:
        return digest(execute_spec(ExperimentSpec.from_dict(spec)))

    run = {}
    for params in serve_mixed.run_templates():
        spec = {"kind": "run", "params": params}
        run[serve_mixed.golden_key(spec)] = served(spec)
    specs = [spec for c in range(serve_mixed.CLIENTS)
             for rnd in range(serve_mixed.GOLDEN_ROUNDS)
             for kind, spec in serve_mixed.round_plan(DEFAULT_SEED, c, rnd)
             if kind == "cluster"]
    clusters = {serve_mixed.golden_key(s): served(s) for s in specs}
    return {"seed": DEFAULT_SEED,
            "suite_paper": suite,
            "cluster_sweep": cluster,
            "serve_mixed": {"run": run, "cluster": clusters}}


def main() -> int:
    goldens = record()
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
