"""``suite_paper``: the paper's micro-benchmarks on mvia, bvia and clan.

One unit is one pass over the suite, in two phases:

- latency, at packet fidelity: the non-data costs and every ping-pong
  benchmark of the paper;
- bandwidth, at ``fidelity="auto"``: the streaming benchmarks, where
  the fast-forward burst planner engages.

Each ``run_benchmark`` call is one operation.  The seed draws the
message sizes (three size classes, each moved down by a few words) and
the testbed seeds of the benchmarks that take one; every pass of a run
repeats the same inputs, so passes are identical work.  Golden digests
are keyed by a call's inputs (:func:`call_key`), so a call whose inputs
do not depend on the seed is checked against its golden at every seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from common import Op, Window, canonical, digest, rng, run_units

PROVIDERS = ("mvia", "bvia", "clan")

LATENCY = ("nondata", "memreg", "base_latency", "base_latency_blocking",
           "reuse_latency", "cq_latency", "multivi_latency",
           "client_server")
BANDWIDTH = ("base_bandwidth", "mtu_bandwidth", "pipeline_bandwidth",
             "multivi_bandwidth")
BENCHMARKS = LATENCY + BANDWIDTH

#: one message size per class; the seed shifts each down by 0-3 words,
#: which keeps every size in the same fragment count
SIZE_CLASSES = (16, 1024, 16384)


def make_inputs(seed: int) -> dict[str, dict]:
    """Keyword arguments of every suite benchmark at this seed.

    The bandwidth phase shifts only its smallest size: how much of a
    stream the fast-forward planner can skip depends on how the larger
    sizes split into frames, and the seed must not change the work.
    """
    r = rng(seed, "suite")

    def shift(base: int) -> int:
        return base - 4 * r.randrange(4)

    sizes = [shift(b) for b in SIZE_CLASSES]
    tb_seed = r.randrange(1000)
    auto = {"fidelity": "auto"}
    return {
        "nondata": {"seed": tb_seed},
        "memreg": {"sizes": sizes, "seed": tb_seed},
        "base_latency": {"sizes": sizes},
        "base_latency_blocking": {"sizes": sizes},
        "reuse_latency": {"sizes": sizes},
        "cq_latency": {"sizes": sizes},
        "multivi_latency": {"size": shift(16)},
        "client_server": {"reply_sizes": sizes, "seed": tb_seed},
        "base_bandwidth": {"sizes": [sizes[0], *SIZE_CLASSES[1:]], **auto},
        "mtu_bandwidth": {"size": 16384, **auto},
        "pipeline_bandwidth": {"size": 4096, **auto},
        "multivi_bandwidth": {"size": 4096, **auto},
    }


def call_key(bench: str, provider: str, kwargs: dict) -> str:
    """Golden key of one call: its inputs, fidelity left out (the
    goldens are recorded at packet fidelity)."""
    inputs = {k: v for k, v in kwargs.items() if k != "fidelity"}
    return digest(canonical([bench, provider, inputs]))


def points_json(result) -> str:
    """Canonical JSON of a call's measured points (metadata excluded)."""
    results = result if isinstance(result, list) else [result]
    return canonical([[asdict(p) for p in r.points] for r in results])


class SuitePaper:
    #: the simulations run in this thread, so cProfile sees them
    profiled = True

    def __init__(self, seed: int, goldens: dict, tiny: bool = False):
        from repro.vibe import run_benchmark

        self.run_benchmark = run_benchmark
        self.seed = seed
        self.inputs = make_inputs(seed)
        self.providers = ("clan",) if tiny else PROVIDERS
        goldens = goldens.get("suite_paper", {})
        #: golden digest of each operation whose inputs were recorded
        self.goldens = {
            f"{b}:{p}": goldens[call_key(b, p, self.inputs[b])]
            for b in BENCHMARKS for p in self.providers
            if call_key(b, p, self.inputs[b]) in goldens}
        #: first pass's points per operation; later passes must match
        self.first: dict[str, str] = {}
        self.mismatched = False
        #: ``auto`` points of the bandwidth calls no golden pins, which
        #: :meth:`verify` repeats at packet fidelity
        self.unpinned_bw: dict[str, str] = {}

    def warm_up(self) -> float:
        t0 = time.perf_counter()
        self.run_benchmark("base_latency", "clan", sizes=[4])
        return time.perf_counter() - t0

    def _call(self, bench: str, provider: str, tracer, parent) -> Op:
        kwargs = self.inputs[bench]
        t0 = time.perf_counter()
        result = self.run_benchmark(bench, provider, **kwargs)
        t1 = time.perf_counter()
        key = f"{bench}:{provider}"
        out = points_json(result)
        failed = False
        ref = self.goldens.get(key) or self.first.setdefault(key, digest(out))
        if digest(out) != ref:
            failed = self.mismatched = True
        if bench in BANDWIDTH and key not in self.goldens:
            self.unpinned_bw.setdefault(key, out)
        phase = "bandwidth" if bench in BANDWIDTH else "latency"
        detail = {"bench": bench}
        if tracer is not None:
            counts = tracer.sims.take()
            detail["counts"] = counts
            tracer.span(f"vibe.run_benchmark:{key}", t0, t1, parent,
                        layer="vibe", phase=phase, **counts)
        return Op(phase, key, t1 - t0, failed, detail)

    def unit(self, tracer) -> list[Op]:
        ops = []
        for phase, benches in (("latency", LATENCY),
                               ("bandwidth", BANDWIDTH)):
            t0 = time.perf_counter()
            parent = None
            if tracer is not None:
                parent = tracer.span(f"suite.{phase}", t0, t0)
            for bench in benches:
                for provider in self.providers:
                    ops.append(self._call(bench, provider, tracer, parent))
            if tracer is not None:
                tracer.end(parent)
        return ops

    def window(self, seconds: float, tracer=None) -> Window:
        return run_units(self.unit, seconds, tracer)

    def verify(self, window: Window) -> list[str]:
        """Bandwidth calls no golden pins (``base_bandwidth``, whose
        smallest size moves with the seed) are repeated at packet
        fidelity after the timed window and must give the ``auto``
        points.  The goldens pin every other bandwidth call."""
        problems = []
        for key, auto in self.unpinned_bw.items():
            bench, provider = key.split(":")
            kwargs = dict(self.inputs[bench], fidelity="packet")
            packet = self.run_benchmark(bench, provider, **kwargs)
            if points_json(packet) != auto:
                problems.append(f"{key}: auto points differ from packet")
        return problems

    def layer_metrics(self, traced: Window, ref: Window) -> dict:
        """Per-benchmark seconds of a typical untraced pass."""
        typical = ref.typical()
        return {f"vibe.bench_s.{bench}": sum(
                    typical[f"{bench}:{p}"] for p in self.providers)
                for bench in BENCHMARKS}

    def close(self) -> None:
        pass

    def figures(self, window: Window) -> dict:
        return window.unit_figures()

    def report(self, window: Window) -> dict:
        """Each phase's time in a typical pass (printed, not gated)."""
        typical = window.typical()
        phase = {op.name: op.kind for op in window.ops}
        return {f"suite_{kind}_s": (sum(s for name, s in typical.items()
                                        if phase[name] == kind), "s")
                for kind in ("latency", "bandwidth")}
