"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite_paper --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported
from ``src/``.  The untraced run (``--trace 0``) times the set-up in
fresh processes, measures the workload for ``--seconds``, checks every
output and prints the end-to-end metrics.  The traced run (``--trace
1``) measures a third of the time untraced as a reference, the rest with
spans, kernel counters and cProfile on, and prints the per-layer
metrics.  Each run prints a
readable report first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric names
and units come from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (DEFAULT_SEED, LAYERS, ROOT, SRC, WORK_DIR,  # noqa: E402
                    Profile, Tracer, median)
from cluster_sweep import ClusterSweep  # noqa: E402
from serve_mixed import ServeMixed  # noqa: E402
from suite_paper import SuitePaper  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_REPEATS = 5
WORKLOADS = {"suite_paper": SuitePaper, "cluster_sweep": ClusterSweep,
             "serve_mixed": ServeMixed}


def metric_units(table: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[table]}


def setup_probe(args) -> float:
    """Seconds from a cold start to the first operation's end: import
    the public API, build the workload, run its warm-up operation."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload](args.seed, {}, tiny=args.tiny)
    try:
        wl.warm_up()
        return time.perf_counter() - t0
    finally:
        wl.close()


def setup_seconds(args) -> float:
    """Median of :data:`SETUP_REPEATS` set-ups, each in a fresh process,
    so lazy imports and first-call costs count every time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


def untraced(wl, args) -> tuple[dict, dict, int, int, list]:
    """Set up, measure, check; returns the end-to-end metrics."""
    setup = setup_seconds(args)
    wl.warm_up()
    window = wl.window(args.seconds)
    problems = wl.verify(window)
    metrics = {"setup_s": setup, **wl.figures(window),
               "peak_rss_mb": window.peak_mb}
    figures = wl.report(window)
    attempted = len(window.ops)
    failed = min(attempted, window.failed + len(problems))
    return metrics, figures, attempted, failed, problems


def traced(wl, seconds: float, span_path: str):
    """Reference window, then the traced window; per-layer metrics."""
    wl.warm_up()
    ref = wl.window(seconds / 3)
    tracer = Tracer()
    tracer.sims.install()
    try:
        with Profile() if wl.profiled else contextlib.nullcontext() as prof:
            window = wl.window(seconds * 2 / 3, tracer)
    finally:
        tracer.sims.uninstall()
    problems = wl.verify(window)
    tracer.write(span_path)

    # times come from the reference window, free of cProfile's overhead;
    # counts and shares come from the traced window
    m = dict.fromkeys(metric_units("per_layer"), 0.0)
    ops = window.ops
    units = window.units or 1
    ref_unit_s = median(ref.unit_s)
    counts = [op.detail["counts"] for op in ops if "counts" in op.detail]
    tot = {k: sum(c[k] for c in counts)
           for k in ("events", "ctx_switches", "ff_bursts", "ff_skipped",
                     "ff_time", "now")}
    if counts:
        m["sim.events"] = tot["events"] / units
        m["sim.ctx_switches"] = tot["ctx_switches"] / units
        m["providers.ff_bursts"] = tot["ff_bursts"] / units
        m["providers.ff_skip_frac"] = tot["ff_skipped"] / max(
            1, tot["events"] + tot["ff_skipped"])
        m["providers.ff_time_frac"] = tot["ff_time"] / (tot["now"] or 1.0)
        m["sim.host_ns_per_event"] = ref_unit_s / (
            m["sim.events"] or 1.0) * 1e9
    if prof is not None:
        shares = prof.self_frac()
        for layer in LAYERS:
            m[f"{layer}.self_frac"] = shares.get(layer, 0.0)
        m["providers.build_ms"] = prof.build_frac() * ref_unit_s * 1e3
    layer = wl.layer_metrics(window, ref)
    unknown = set(layer) - set(m)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    m.update(layer)
    m["trace.wall_s"] = window.wall_s
    ref_rate = len(ref.ops) / ref.wall_s
    m["trace.overhead_frac"] = ref_rate / (len(ops) / window.wall_s) - 1.0
    attempted = len(ops)
    failed = min(attempted, window.failed + len(problems))
    return m, attempted, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one provider per suite and cluster unit "
                         "(a quick check that every metric prints)")
    ap.add_argument("--goldens", default=GOLDENS,
                    help="golden digests to check outputs against")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup_probe(args))
        return 0
    sys.path.insert(0, SRC)
    with open(args.goldens) as fh:
        goldens = json.load(fh)
    wl = WORKLOADS[args.workload](args.seed, goldens, tiny=args.tiny)
    try:
        if args.trace:
            span_path = os.path.join(
                WORK_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, attempted, failed, problems = traced(
                wl, args.seconds, span_path)
            units = metric_units("per_layer")
            print(f"spans written to {os.path.relpath(span_path)}")
        else:
            metrics, figures, attempted, failed, problems = untraced(
                wl, args)
            units = metric_units("end_to_end")
            for name, (value, unit, *count) in figures.items():
                samples = f"  (n={count[0]})" if count else ""
                print(f"{name:36s} {value:14.4f} {unit}{samples}")
    finally:
        wl.close()

    for name, value in metrics.items():
        print(f"{name:36s} {value:14.4f} {units[name]}")
    print(f"{'failed_frac':36s} {failed / attempted:14.4f} frac"
          f"  ({failed} of {attempted} operations)")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and not wl.mismatched
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
