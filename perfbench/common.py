"""Shared pieces of the benchmark: inputs, timing, spans, profiling.

Everything here measures the program from outside.  It imports only the
public API of ``repro`` and reads counters off public objects; the one
hook it installs (:class:`SimCollector`) wraps ``Simulator.__init__``
and is used by the traced run only.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space for caches and span files, inside the checkout
WORK_DIR = os.path.join(ROOT, ".perfbench_out")

#: the seed the golden digests were recorded at
DEFAULT_SEED = 0

#: the packages a ``*.self_frac`` metric is reported for
LAYERS = ("sim", "hw", "via", "providers", "cluster")


def derive(seed: int, *labels) -> int:
    """A stable 31-bit integer drawn from the workload seed and labels."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


def rng(seed: int, *labels) -> random.Random:
    return random.Random(derive(seed, *labels))


def digest(text: str) -> str:
    """Short content digest of one operation's output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- statistics -------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); 0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- operations and measurement windows -------------------------------


@dataclass
class Op:
    """One benchmark operation: a suite call, a cluster cell, a job."""

    kind: str            # phase / cell kind / job kind
    name: str            # what ran, e.g. "base_latency:clan"
    seconds: float
    failed: bool = False
    detail: dict = field(default_factory=dict)


@dataclass
class Window:
    """Every operation of one timed window, and its wall time."""

    ops: list[Op]
    wall_s: float
    units: int = 0
    unit_s: list[float] = field(default_factory=list)
    #: peak resident set once the window's fixed first work was done
    peak_mb: float = 0.0

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    def typical(self) -> dict[str, float]:
        """Median seconds of each operation over the window's units."""
        by_name: dict[str, list[float]] = {}
        for op in self.ops:
            by_name.setdefault(op.name, []).append(op.seconds)
        return {name: median(s) for name, s in by_name.items()}

    def unit_figures(self) -> dict:
        """Throughput and latency of a typical unit.

        Every unit runs the same operations, so each operation's median
        over the units is robust to a stall that hits one unit; a unit
        of those medians gives the rate and the quantiles.
        """
        typical = self.typical()
        ms = [s * 1e3 for s in typical.values()]
        return {"ops_per_s": len(typical) / sum(typical.values()),
                "op_ms_p50": quantile(ms, 0.5),
                "op_ms_p90": quantile(ms, 0.9)}


def run_units(unit, seconds: float, tracer=None) -> Window:
    """Repeat ``unit(tracer)`` (a list of Ops each) for ``seconds``.

    At least one unit always runs, and a started unit always finishes,
    so every window holds whole units of identical work.  Peak memory is
    read after the first unit, so it reflects a fixed amount of work
    however many units the window holds.
    """
    ops: list[Op] = []
    unit_s: list[float] = []
    peak = 0.0
    t0 = time.perf_counter()
    while not unit_s or time.perf_counter() - t0 < seconds:
        u0 = time.perf_counter()
        ops.extend(unit(tracer))
        unit_s.append(time.perf_counter() - u0)
        peak = peak or peak_rss_mb()
    return Window(ops, time.perf_counter() - t0, len(unit_s), unit_s, peak)


# -- tracing ----------------------------------------------------------


class Tracer:
    """In-memory spans plus the hooks of the traced run.

    A span is ``{"id", "parent", "name", "start", "end", **info}`` with
    times in seconds since the tracer started; spans of one operation
    share the operation's span as parent.  ``write`` dumps them as JSON
    at the end of the run.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.sims = SimCollector()

    def span(self, name: str, start: float, end: float,
             parent: int | None = None, **info) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "parent": parent, "name": name,
                           "start": start - self.t0, "end": end - self.t0,
                           **info})
        return sid

    def end(self, sid: int) -> None:
        """Close a span opened with ``start == end``."""
        self.spans[sid]["end"] = time.perf_counter() - self.t0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class SimCollector:
    """Collects every ``Simulator`` created while installed.

    Wraps ``repro.sim.core.Simulator.__init__`` (the class every
    testbed instantiates) and restores it on ``uninstall``.  ``take``
    returns the kernel counters of the simulators created since the
    last call and forgets them.
    """

    def __init__(self) -> None:
        self._sims: list = []
        self._orig = None

    def install(self) -> None:
        from repro.sim import core

        orig = self._orig = core.Simulator.__init__
        sims = self._sims

        def init(sim, *args, **kwargs):
            orig(sim, *args, **kwargs)
            sims.append(sim)

        core.Simulator.__init__ = init

    def uninstall(self) -> None:
        from repro.sim import core

        if self._orig is not None:
            core.Simulator.__init__ = self._orig
            self._orig = None

    def take(self) -> dict:
        sims, self._sims[:] = list(self._sims), []
        return {
            "events": sum(s.events_run for s in sims),
            "ctx_switches": sum(s.ctx_switches for s in sims),
            "ff_bursts": sum(s.ff_bursts for s in sims),
            "ff_skipped": sum(s.ff_events_skipped for s in sims),
            "ff_time": sum(s.ff_time for s in sims),
            "now": sum(s.now for s in sims),
        }


class Profile:
    """cProfile of the calling thread, grouped by top-level package."""

    def __init__(self) -> None:
        self.prof = cProfile.Profile()

    def __enter__(self) -> "Profile":
        self.prof.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.prof.disable()

    def _stats(self) -> dict:
        return pstats.Stats(self.prof).stats

    def self_frac(self) -> dict:
        """Share of self time per ``repro`` package (others pooled)."""
        by_pkg: dict[str, float] = {}
        for (path, _line, _fn), (_cc, _nc, tt, _ct, _callers) \
                in self._stats().items():
            by_pkg[_package(path)] = by_pkg.get(_package(path), 0.0) + tt
        total = sum(by_pkg.values()) or 1.0
        return {pkg: t / total for pkg, t in by_pkg.items()}

    def build_frac(self) -> float:
        """Share of profiled time inside testbed construction.

        Sums ``build_testbed`` with the ``Testbed.create`` and
        ``Testbed.__init__`` calls not already nested in it, using the
        profile's caller edges so no call is counted twice.
        """
        stats = self._stats()

        def find(suffix, name):
            return [k for k in stats
                    if k[0].endswith(suffix) and k[2] == name]

        total = 0.0
        build = find(os.path.join("cluster", "topology.py"), "build_testbed")
        for key in build:
            total += stats[key][3]
        registry = os.path.join("providers", "registry.py")
        nested = set(build)
        for name in ("create", "__init__"):
            for key in find(registry, name):
                for caller, edge in stats[key][4].items():
                    if caller not in nested:
                        total += edge[3]
                nested.add(key)
        return total / (sum(v[2] for v in stats.values()) or 1.0)


def _package(path: str) -> str:
    marker = os.sep + "repro" + os.sep
    if marker not in path:
        return "other"
    rest = path.split(marker, 1)[1]
    return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"
