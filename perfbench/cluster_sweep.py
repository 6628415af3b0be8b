"""``cluster_sweep``: ``run_cluster_once`` cells over all four providers.

One unit is one sweep of twelve cells, three kinds per provider:

- ``plain``: star, 4 nodes, 8 clients, Poisson arrivals at 8k rps;
- ``overload``: the same cluster at 32k rps with the SLO setup of
  ``benchmarks/record_baseline.py`` (slow server, retries, shedding,
  two tenants);
- ``fattree``: 8 nodes at 16k rps, ``fidelity="auto"``.

Each cell is one operation.  The seed draws each cell's cluster seed
(arrival times and service draws); every sweep of a run repeats the
same cells.
"""

from __future__ import annotations

import time

from common import (DEFAULT_SEED, Op, Window, canonical, derive, digest, median,
                    run_units)

PROVIDERS = ("mvia", "bvia", "clan", "iba")
KINDS = ("plain", "overload", "fattree")

_SHAPES = {
    "plain": ({"topology": "star", "nodes": 4, "clients": 8}, 8_000.0),
    "overload": ({"topology": "star", "nodes": 4, "clients": 8,
                  "service": "fixed:100", "retry": "on",
                  "server_policy": "depth=16,shed=deadline",
                  "tenants": 2, "deadline_us": 400_000.0}, 32_000.0),
    "fattree": ({"topology": "fattree", "nodes": 8, "clients": 8,
                 "fidelity": "auto"}, 16_000.0),
}


def make_cells(seed: int, providers=PROVIDERS) -> list[tuple]:
    """``(kind, provider, ClusterConfig, rate)`` of one sweep."""
    from repro.cluster import ClusterConfig

    cells = []
    for kind in KINDS:
        params, rate = _SHAPES[kind]
        for p in providers:
            cfg = ClusterConfig(
                seed=derive(seed, "cluster", kind, p) % 100_000, **params)
            cells.append((kind, p, cfg, rate))
    return cells


class ClusterSweep:
    #: the simulations run in this thread, so cProfile sees them
    profiled = True

    def __init__(self, seed: int, goldens: dict, tiny: bool = False):
        from repro.cluster import run_cluster_once

        self.run_cluster_once = run_cluster_once
        self.seed = seed
        self.cells = make_cells(seed, ("clan",) if tiny else PROVIDERS)
        self.goldens = goldens.get("cluster_sweep", {}) \
            if seed == DEFAULT_SEED else {}
        self.first: dict[str, str] = {}
        self.mismatched = False

    def warm_up(self) -> float:
        _kind, provider, cfg, rate = self.cells[0]
        t0 = time.perf_counter()
        self.run_cluster_once(provider, cfg, rate)
        return time.perf_counter() - t0

    def _cell(self, kind, provider, cfg, rate, tracer, parent) -> Op:
        t0 = time.perf_counter()
        point = self.run_cluster_once(provider, cfg, rate)
        t1 = time.perf_counter()
        key = f"{kind}:{provider}"
        out = canonical(point)
        ref = self.goldens.get(key) or self.first.setdefault(key, digest(out))
        # a wrong point or a conformance violation is a wrong output
        failed = digest(out) != ref or bool(point["violations"])
        self.mismatched |= failed
        detail = {"point": point}
        if tracer is not None:
            counts = tracer.sims.take()
            detail["counts"] = counts
            tracer.span(f"cluster.run_cluster_once:{key}", t0, t1, parent,
                        layer="cluster", kind=kind, **counts)
        return Op(kind, key, t1 - t0, failed, detail)

    def unit(self, tracer) -> list[Op]:
        t0 = time.perf_counter()
        parent = tracer.span("cluster.sweep", t0, t0) if tracer else None
        ops = [self._cell(*cell, tracer, parent) for cell in self.cells]
        if tracer is not None:
            tracer.end(parent)
        return ops

    def window(self, seconds: float, tracer=None) -> Window:
        return run_units(self.unit, seconds, tracer)

    def verify(self, window: Window) -> list[str]:
        """Every cell's check (no violations; the same point in every
        sweep, and the golden one at the default seed) ran in-window."""
        return []

    def layer_metrics(self, traced: Window, ref: Window) -> dict:
        """Exact per-sweep counts from the traced window, cell times
        from the untraced one."""
        points = [op.detail["point"] for op in traced.ops]

        def per_sweep(*fields) -> float:
            return sum(p[f] for p in points for f in fields) / traced.units

        def events_per_req(ops) -> float:
            events = sum(op.detail["counts"]["events"] for op in ops)
            completed = sum(op.detail["point"]["completed"] for op in ops)
            return events / max(1, completed)

        m = {
            "hw.port_contended": per_sweep("port_contended"),
            "hw.port_drops": per_sweep("port_drops"),
            "providers.retransmissions": per_sweep("retransmissions"),
            "cluster.retried": per_sweep("retried"),
            "cluster.shed": per_sweep("shed_queue", "shed_deadline"),
            "sim.events_per_req": events_per_req(traced.ops),
        }
        typical = ref.typical()
        for kind in KINDS:
            m[f"cluster.cell_s.{kind}"] = median(
                s for name, s in typical.items() if name.startswith(f"{kind}:"))
            m[f"cluster.events_per_req.{kind}"] = events_per_req(
                [op for op in traced.ops if op.kind == kind])
        return m

    def close(self) -> None:
        pass

    def figures(self, window: Window) -> dict:
        return window.unit_figures()

    def report(self, window: Window) -> dict:
        per_sweep = sum(op.detail["point"]["completed"]
                        for op in window.ops[:len(self.cells)])
        sweep_s = sum(window.typical().values())
        return {"cluster_req_per_s": (per_sweep / sweep_s, "1/s")}
