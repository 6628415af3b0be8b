"""Record (or check) the simulation-kernel throughput baseline.

Measures the two kernel-bound workloads from ``bench_simulator_perf.py``
and writes ``BENCH_simkernel.json``::

    python benchmarks/record_baseline.py                 # record
    python benchmarks/record_baseline.py --check PATH    # CI smoke

``--cluster`` switches to the cluster-serving baseline
(``BENCH_cluster.json``): simulated requests pushed through an 8-client
star cluster per wall-second, plus each provider's saturation-knee
offered load from the quick rate grid.  The knees are exact simulation
outputs — byte-deterministic — so ``--check`` requires them to match
the baseline bit-for-bit while throughput gets the usual tolerance.
Each provider's ``slo_knee_rps`` (largest offered load at which every
tenant still meets its SLO, swept with retries and admission control
on) is recorded alongside as a trend line only — ``--check`` prints
it but never gates on it, because it moves whenever overload-policy
defaults are retuned.

Raw events/sec are machine-dependent, so each figure is also stored
*normalized* by a pure-Python calibration loop timed on the same
machine; ``--check`` compares normalized throughput against the
committed baseline and exits non-zero if it drops by more than
``--tolerance`` (default 20 %).  That keeps the CI guardrail meaningful
on runners slower or faster than the machine that recorded the file.

The streaming pair additionally pins the flow-level fast-forward win:
the same fragmented-message stream is timed at packet fidelity and at
``fidelity="auto"``, and ``--check`` fails if the speedup ever falls
below :data:`MIN_STREAM_SPEEDUP` — wall-clock ratios taken in the same
process cancel out machine speed, so the floor is absolute.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.providers import Testbed           # noqa: E402
from repro.sim import Simulator               # noqa: E402
from repro.via import Descriptor              # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_simkernel.json"
CLUSTER_OUT = pathlib.Path(__file__).resolve().parent / "BENCH_cluster.json"

EVENTS_N = 20_000
MESSAGES_N = 300

#: streaming workload: large fragmented messages, the burst hot path
#: (64 KiB over a 1 KiB MTU = 64 wire packets per message, so the
#: per-message posting overhead amortizes and the burst win dominates)
STREAM_N = 60
STREAM_SIZE = 65_536
STREAM_MTU = 1_024

#: ``--check`` requires the fast-forward streaming speedup to hold this
#: floor (a same-process wall-clock ratio, so machine speed cancels out)
MIN_STREAM_SPEEDUP = 5.0

#: warm-state reuse: restoring a deep-warmed testbed from a state blob
#: must beat re-simulating its warm-up by at least this ratio (also a
#: same-process wall-clock ratio — machine speed cancels)
MIN_WARM_SPEEDUP = 1.5

#: ping-pong iterations baked into the warm state blob; deep enough
#: that the restore win is about skipped *simulation*, not construction
WARM_ITERS = 8

#: one cluster throughput cell: 8 clients x 16 requests at a mid rate
CLUSTER_REQUESTS_N = 128


def _calibrate(repeats: int = 5) -> float:
    """Machine speed score: iterations/sec of a fixed pure-Python loop."""
    n = 200_000
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    assert acc >= 0
    return n / best


def _events_workload() -> None:
    sim = Simulator()
    for i in range(EVENTS_N):
        sim.timeout(float(i % 97))
    sim.run()
    assert sim.now == 96.0


def _messages_workload() -> None:
    tb = Testbed("clan")

    def client():
        h = tb.open("node0", "c")
        vi = yield from h.create_vi()
        r = h.alloc(64)
        mh = yield from h.register_mem(r)
        yield from h.connect(vi, "node1", 3)
        segs = [h.segment(r, mh, 0, 4)]
        for _ in range(MESSAGES_N):
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

    def server():
        h = tb.open("node1", "s")
        vi = yield from h.create_vi()
        r = h.alloc(64)
        mh = yield from h.register_mem(r)
        segs = [h.segment(r, mh, 0, 4)]
        for _ in range(MESSAGES_N):
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(3)
        yield from h.accept(req, vi)
        for _ in range(MESSAGES_N):
            yield from h.recv_wait(vi)

    cp = tb.spawn(client())
    sp = tb.spawn(server())
    tb.run(cp)
    tb.run(sp)


def _stream_workload(fidelity: str = "packet") -> None:
    """Stream large fragmented messages: the burst-batching hot path.

    64 KiB messages over a 1 KiB-MTU clan fabric fragment into 64 wire
    packets each; with ``fidelity="auto"`` every message collapses into
    one fast-forwarded burst, with ``"packet"`` each packet is its own
    event cascade.  Both fidelities produce bit-identical completion
    times — only the wall-clock differs.
    """
    tb = Testbed("clan", mtu=STREAM_MTU, fidelity=fidelity)

    def client():
        h = tb.open("node0", "c")
        vi = yield from h.create_vi()
        r = h.alloc(STREAM_SIZE)
        mh = yield from h.register_mem(r)
        yield from h.connect(vi, "node1", 5)
        segs = [h.segment(r, mh, 0, STREAM_SIZE)]
        for _ in range(STREAM_N):
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

    def server():
        h = tb.open("node1", "s")
        vi = yield from h.create_vi()
        r = h.alloc(STREAM_SIZE)
        mh = yield from h.register_mem(r)
        segs = [h.segment(r, mh, 0, STREAM_SIZE)]
        for _ in range(STREAM_N):
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(5)
        yield from h.accept(req, vi)
        for _ in range(STREAM_N):
            yield from h.recv_wait(vi)

    cp = tb.spawn(client())
    sp = tb.spawn(server())
    tb.run(cp)
    tb.run(sp)


def _warm_comparison(repeats: int = 10) -> dict:
    """Cold warm-up vs state-blob restore, summed across providers.

    The cold side rebuilds each provider's deep-warmed testbed by
    re-simulating its :data:`WARM_ITERS`-iteration ping-pong; the warm
    side restores the identical endpoint from a state-tier checkpoint.
    Both are timed best-of in the same process, so the ratio is
    machine-independent — ``--check`` holds it to
    :data:`MIN_WARM_SPEEDUP` as an absolute floor.
    """
    from repro import snap
    from repro.check import ALL_PROVIDERS

    def best(fn):
        t_best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    cold_s = warm_s = 0.0
    for provider in ALL_PROVIDERS:
        blob = snap.snapshot_state(
            snap.warmed_testbed(provider, iters=WARM_ITERS))
        cold_s += best(lambda: snap.warmed_testbed(provider,
                                                   iters=WARM_ITERS))
        warm_s += best(lambda: snap.restore_state(blob))
    return {
        "warm_cold_ms": cold_s * 1e3,
        "warm_restore_ms": warm_s * 1e3,
        "warm_speedup": cold_s / warm_s,
        "warm_iters": WARM_ITERS,
    }


def _serve_comparison(repeats: int = 3) -> dict:
    """Control-plane wall-clock: cold submit vs warm pool vs cache hit.

    One in-process ``vibe serve`` instance, one small sweep spec.  The
    cold figure includes worker spawn and testbed construction; the
    warm-pool figure resubmits fresh seeds against the already-armed
    workers; the cache-hit figure resubmits the identical spec and is
    answered from the content-addressed result cache without any
    simulation.  Trend only — never gated: all three move with machine
    load, and the cache-hit win is obvious enough not to need a floor.
    """
    import tempfile

    from repro.serve import ExperimentService, ServiceClient

    def spec(seed):
        return {"kind": "cluster",
                "params": {"nodes": 2, "clients": 2, "requests": 4,
                           "providers": ["mvia"], "rates": [8_000.0]},
                "seed": seed}

    def timed(client, s):
        t0 = time.perf_counter()
        job = client.submit(s)
        client.wait(job["id"], timeout=600, poll=0.02)
        _body, hit = client.result(job["id"])
        return (time.perf_counter() - t0) * 1e3, hit

    with tempfile.TemporaryDirectory() as tmp:
        svc = ExperimentService(port=0, workers=2, cache_dir=tmp)
        svc.start()
        try:
            client = ServiceClient(svc.url, client="bench")
            cold_ms, hit = timed(client, spec(7_000))
            assert not hit, "fresh spec must not be a cache hit"
            warm_ms = min(timed(client, spec(7_001 + i))[0]
                          for i in range(repeats))
            cache_ms = float("inf")
            for _ in range(repeats):
                ms, hit = timed(client, spec(7_000))
                assert hit, "resubmitted spec must be a cache hit"
                cache_ms = min(cache_ms, ms)
        finally:
            svc.stop()
    return {
        "serve_cold_ms": cold_ms,
        "serve_warm_pool_ms": warm_ms,
        "serve_cache_hit_ms": cache_ms,
        "serve_cold_over_cache_hit": cold_ms / cache_ms,
    }


def _rate(fn, n: int, repeats: int) -> float:
    """Best-of-``repeats`` operations/sec for ``fn`` (n ops per call)."""
    fn()  # warm-up: imports, pools, code caches
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return n / best


def measure(repeats: int = 5) -> dict:
    # calibrate on both sides of the workloads and keep the best: a
    # transient load spike during either sample would otherwise skew
    # every normalized figure at once
    calib = _calibrate()
    events = _rate(_events_workload, EVENTS_N, repeats)
    messages = _rate(_messages_workload, MESSAGES_N, repeats)
    stream = _rate(lambda: _stream_workload("packet"), STREAM_N, repeats)
    stream_ff = _rate(lambda: _stream_workload("auto"), STREAM_N, repeats)
    warm = _warm_comparison()
    calib = max(calib, _calibrate())
    return {
        **warm,
        "calibration_ops_per_sec": calib,
        "events_per_sec": events,
        "messages_per_sec": messages,
        "stream_messages_per_sec": stream,
        "stream_messages_per_sec_ff": stream_ff,
        "events_per_sec_normalized": events / calib,
        "messages_per_sec_normalized": messages / calib,
        "stream_messages_per_sec_normalized": stream / calib,
        "stream_messages_per_sec_ff_normalized": stream_ff / calib,
        "stream_ff_speedup": stream_ff / stream,
        "events_n": EVENTS_N,
        "messages_n": MESSAGES_N,
        "stream_n": STREAM_N,
    }


def _cluster_workload() -> None:
    from repro.cluster import ClusterConfig, run_cluster_once

    cfg = ClusterConfig(nodes=4, clients=8, requests=16)
    pt = run_cluster_once("clan", cfg, 8_000.0)
    assert pt["completed"] == CLUSTER_REQUESTS_N


def measure_cluster(repeats: int = 3) -> dict:
    from repro.check import ALL_PROVIDERS
    from repro.cluster import QUICK_RATE_GRID, ClusterConfig, run_cluster

    calib = _calibrate()
    requests = _rate(_cluster_workload, CLUSTER_REQUESTS_N, repeats)
    report = run_cluster(ALL_PROVIDERS, ClusterConfig(),
                         rates=QUICK_RATE_GRID)
    assert report.ok, "knee sweep hit violations; baseline not recorded"
    # SLO-capacity trend: the same quick grid re-swept with retries and
    # admission control on, against a slow server (fixed:100 caps one
    # server at 10k rps) so the top rate genuinely overloads.  Trend
    # only — never gated: the slo knee moves whenever overload-policy
    # defaults are retuned, so ``--check`` prints it for the dashboard
    # but does not compare it.
    slo_cfg = ClusterConfig(service="fixed:100", retry="on",
                            server_policy="depth=16,shed=deadline",
                            tenants=2, deadline_us=400_000.0)
    slo_report = run_cluster(ALL_PROVIDERS, slo_cfg, rates=QUICK_RATE_GRID)
    assert slo_report.ok, "slo sweep hit violations; baseline not recorded"
    return {
        "calibration_ops_per_sec": calib,
        "requests_per_wallsec": requests,
        "requests_per_wallsec_normalized": requests / calib,
        "requests_n": CLUSTER_REQUESTS_N,
        "rate_grid": list(QUICK_RATE_GRID),
        "knee_rps": {p: report.results[p]["knee_rps"]
                     for p in ALL_PROVIDERS},
        "peak_goodput_rps": {p: report.results[p]["peak_goodput_rps"]
                             for p in ALL_PROVIDERS},
        "slo_knee_rps": {p: slo_report.results[p]["slo_knee_rps"]
                         for p in ALL_PROVIDERS},
    }


def check_cluster(baseline_path: pathlib.Path, tolerance: float,
                  repeats: int) -> int:
    baseline = json.loads(baseline_path.read_text())
    fresh = measure_cluster(repeats)
    failed = False
    key = "requests_per_wallsec_normalized"
    old, new = baseline[key], fresh[key]
    drop = 1.0 - new / old
    status = "FAIL" if drop > tolerance else "ok"
    failed |= drop > tolerance
    print(f"{status:>4}  {key}: baseline {old:.3f}, "
          f"now {new:.3f} ({-drop:+.1%})")
    # the knees are simulation outputs, not timings: exact match required
    for metric in ("knee_rps", "peak_goodput_rps"):
        for prov, old_v in baseline[metric].items():
            new_v = fresh[metric][prov]
            ok = new_v == old_v
            failed |= not ok
            print(f"{'ok' if ok else 'FAIL':>4}  {metric}[{prov}]: "
                  f"baseline {old_v}, now {new_v}")
    # the slo knee is a trend line, not a gate: it shifts whenever the
    # overload-policy defaults are retuned, so print it and move on
    for prov, old_v in baseline.get("slo_knee_rps", {}).items():
        new_v = fresh["slo_knee_rps"][prov]
        print(f"info  slo_knee_rps[{prov}] (trend only): "
              f"baseline {old_v}, now {new_v}")
    if failed:
        print(f"cluster baseline regressed against {baseline_path}",
              file=sys.stderr)
        return 1
    return 0


def check(baseline_path: pathlib.Path, tolerance: float,
          repeats: int) -> int:
    baseline = json.loads(baseline_path.read_text())
    fresh = measure(repeats)
    failed = False
    for key in ("events_per_sec_normalized", "messages_per_sec_normalized",
                "stream_messages_per_sec_normalized",
                "stream_messages_per_sec_ff_normalized"):
        if key not in baseline:   # older baseline without stream keys
            continue
        old, new = baseline[key], fresh[key]
        drop = 1.0 - new / old
        status = "FAIL" if drop > tolerance else "ok"
        failed |= drop > tolerance
        print(f"{status:>4}  {key}: baseline {old:.3f}, "
              f"now {new:.3f} ({-drop:+.1%})")
    # the fast-forward win is a same-process wall-clock ratio, so it is
    # machine-independent: hold the absolute floor, not a tolerance band
    speedup = fresh["stream_ff_speedup"]
    ok = speedup >= MIN_STREAM_SPEEDUP
    failed |= not ok
    print(f"{'ok' if ok else 'FAIL':>4}  stream_ff_speedup: "
          f"{speedup:.1f}x (floor {MIN_STREAM_SPEEDUP:.0f}x)")
    # warm-state reuse is the same kind of in-process ratio: hold the floor
    warm = fresh["warm_speedup"]
    ok = warm >= MIN_WARM_SPEEDUP
    failed |= not ok
    print(f"{'ok' if ok else 'FAIL':>4}  warm_speedup: "
          f"{warm:.1f}x (floor {MIN_WARM_SPEEDUP:.1f}x)")
    if failed:
        print(f"kernel throughput dropped >"
              f"{tolerance:.0%} below {baseline_path}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                    help="baseline file to write (record mode)")
    ap.add_argument("--check", type=pathlib.Path, metavar="BASELINE",
                    help="compare against BASELINE instead of recording")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed normalized-throughput drop (default 0.20)")
    ap.add_argument("--repeats", type=int, default=5,
                    help="timing repeats, best-of (default 5)")
    ap.add_argument("--cluster", action="store_true",
                    help="record/check the cluster-serving baseline "
                         "(BENCH_cluster.json) instead of the kernel one")
    ap.add_argument("--warm", action="store_true",
                    help="measure only the warm-state reuse comparison "
                         "(cold warm-up vs checkpoint restore) and merge "
                         "its keys into the existing kernel baseline")
    ap.add_argument("--serve", action="store_true",
                    help="measure only the control-plane comparison "
                         "(cold submit vs warm pool vs cache hit through "
                         "`vibe serve`) and merge its keys into the "
                         "kernel baseline; trend only, never gated")
    args = ap.parse_args(argv)

    if args.cluster and args.out == DEFAULT_OUT:
        args.out = CLUSTER_OUT
    if args.check:
        if args.cluster:
            return check_cluster(args.check, args.tolerance, args.repeats)
        return check(args.check, args.tolerance, args.repeats)

    if args.serve:
        serve = _serve_comparison(args.repeats)
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged.update(serve)
        args.out.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"updated {args.out}")
        for k, v in serve.items():
            print(f"  {k}: {v:,.3f}" if isinstance(v, float)
                  else f"  {k}: {v}")
        return 0

    if args.warm:
        warm = _warm_comparison()
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged.update(warm)
        args.out.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"updated {args.out}")
        for k, v in warm.items():
            print(f"  {k}: {v:,.3f}" if isinstance(v, float)
                  else f"  {k}: {v}")
        floor_ok = warm["warm_speedup"] >= MIN_WARM_SPEEDUP
        print(f"  floor {MIN_WARM_SPEEDUP:.1f}x: "
              f"{'ok' if floor_ok else 'FAIL'}")
        return 0 if floor_ok else 1

    result = measure_cluster(args.repeats) if args.cluster \
        else measure(args.repeats)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    for k, v in result.items():
        print(f"  {k}: {v:,.3f}" if isinstance(v, float) else f"  {k}: {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
