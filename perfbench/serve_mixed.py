"""``serve_mixed``: a closed-loop job mix against ``ExperimentService``.

The service runs in this process with ``workers=2``; two client threads,
each with its own ``ServiceClient``, submit one job at a time, follow
its SSE stream to the end, then fetch the result.  Each client works
through rounds of the same kinds of job (:func:`round_plan`).
The job shapes are the service's documented uses (README,
EXPERIMENTS.md, the CI ``serve`` job):

- ``cluster``: a fresh ``--quick`` sweep on one provider, as the CI
  ``serve`` job submits it (``vibe submit cluster --quick --provider
  mvia --nodes 2 --clients 2 --requests 4``): three cells fanned out
  over the pool, a compute plus a cache store;
- ``hit``: the same sweep resubmitted later in the round, answered from
  the content-addressed cache, as the CI job and EXPERIMENTS.md do;
- ``run``: a fresh ``run`` spec, as ``vibe submit run base_latency
  --provider clan`` (default sizes);
- ``bad``: a malformed spec (``sizes`` on a benchmark that takes none).
  It should be refused with a 4xx at submit.  Today the service accepts
  it and the job fails in a worker with a ``TypeError``; those jobs
  count as failed operations (see NOTES.md).

How many of each kind a round holds is an assumption, not a measured
usage profile (NOTES.md says what it is chosen to exercise).  Each job
is one operation.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import threading
import time

from common import (DEFAULT_SEED, WORK_DIR, Op, Window, canonical, derive,
                    digest, median, peak_rss_mb, quantile, rng)

PROVIDERS = ("mvia", "bvia", "clan", "iba")
CLIENTS = 2
WORKERS = 2

#: benchmarks of the fresh ``run`` specs, one each per round; bandwidth
#: runs at ``auto``
RUN_BENCHES = ("base_latency", "cq_latency", "base_bandwidth")
#: fresh sweeps per round, each resubmitted once as documented; how many
#: sweeps, ``run`` specs and malformed specs a round holds is assumed
SWEEPS = 2
JOBS_PER_ROUND = len(RUN_BENCHES) + 2 * SWEEPS + 1
#: the CI job's sweep: ``--quick`` (three rates) on a small cluster
SWEEP = {"quick": True, "nodes": 2, "clients": 2, "requests": 4}
#: benchmarks that take no ``sizes``: the malformed slice
BAD_BENCHES = ("client_server", "nondata")

WARM_SPEC = {"kind": "run", "seed": 0,
             "params": {"benchmark": "base_latency", "provider": "clan"}}

#: rounds per client after which the window reads peak memory; every
#: window runs at least this many, so the reading covers fixed work
MEMORY_ROUNDS = 2
#: how many rounds per client the cluster goldens cover
GOLDEN_ROUNDS = 24


def run_template(bench: str, provider: str) -> dict:
    params = {"benchmark": bench, "provider": provider}
    if bench == "base_bandwidth":
        params["fidelity"] = "auto"
    return params


def run_templates() -> list[dict]:
    """Every params dict a fresh ``run`` spec can carry."""
    return [run_template(b, p) for b in RUN_BENCHES for p in PROVIDERS]


def round_plan(seed: int, client: int, rnd: int) -> list[tuple[str, dict]]:
    """One round of one client: ``(kind, spec)`` pairs in submit order.

    Every round holds the same kinds of work: each run benchmark once,
    on three distinct providers, and two sweeps on two distinct
    providers; the seed draws the providers, the sweep seeds and the
    order.  Each sweep's resubmit comes at a seeded place after it.
    """
    r = rng(seed, "serve-round", client, rnd)
    providers = list(PROVIDERS)
    r.shuffle(providers)
    # ``run`` results do not depend on the spec seed, so a unique seed
    # only makes the spec new to the cache
    unique = 1 + client * 1_000_000 + rnd * 100
    jobs = [("run", {"kind": "run", "seed": unique + k,
                     "params": run_template(bench, provider)})
            for k, (bench, provider) in enumerate(zip(RUN_BENCHES,
                                                      providers))]
    r.shuffle(providers)
    base = derive(seed, "serve-cluster") % 100_000_000
    sweeps = [{"kind": "cluster", "seed": base + unique + 10 + k,
               "params": {**SWEEP, "providers": [providers[k]]}}
              for k in range(SWEEPS)]
    jobs += [("cluster", spec) for spec in sweeps]
    jobs.append(("bad", {"kind": "run", "seed": unique + 99, "params": {
        "benchmark": r.choice(BAD_BENCHES), "provider": r.choice(PROVIDERS),
        "sizes": [16]}}))
    r.shuffle(jobs)
    for spec in sweeps:
        after = next(i for i, (_k, s) in enumerate(jobs) if s is spec)
        jobs.insert(r.randint(after + 1, len(jobs)), ("hit", spec))
    return jobs


def golden_key(spec: dict) -> str:
    """``run`` bodies depend on the params only; others on the seed too."""
    return digest(canonical(spec["params"] if spec["kind"] == "run"
                            else spec))


class ServeMixed:
    #: the simulations run in pool worker processes, out of cProfile's
    #: sight, so the traced run profiles nothing here
    profiled = False

    def __init__(self, seed: int, goldens: dict, tiny: bool = False):
        from repro.serve import ExperimentService, ServiceClient, ServiceError

        self.Service = ExperimentService
        self.Client = ServiceClient
        self.ServiceError = ServiceError
        self.seed = seed
        serve = goldens.get("serve_mixed", {})
        self.run_goldens = serve.get("run", {})
        self.cluster_goldens = serve.get("cluster", {}) \
            if seed == DEFAULT_SEED else {}
        self.svc = None
        self.cache_dirs: list[str] = []
        #: golden key -> full digest of the first miss's body, for the
        #: hit check (digests keep memory flat however many jobs run)
        self.first_body: dict[str, str] = {}
        #: (spec, body digest) of misses no golden digest pins
        self.unchecked: list[tuple[dict, str]] = []
        self.mismatched = False
        #: the next round of each client
        self.next_round = [0] * CLIENTS
        #: change of the service's ``/metrics`` counters over the last window
        self.service_delta: dict = {}

    # -- service lifecycle --------------------------------------------

    def warm_up(self) -> float:
        """Start a fresh service and run one job on it."""
        self.close_service()
        cache_dir = os.path.join(WORK_DIR, f"serve-cache-{os.getpid()}-"
                                           f"{len(self.cache_dirs)}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache_dirs.append(cache_dir)
        t0 = time.perf_counter()
        self.svc = self.Service(port=0, workers=WORKERS, cache_dir=cache_dir)
        self.svc.start()
        op = self._job(self.Client(self.svc.url, client="warm-up"),
                       "run", WARM_SPEC, None)
        if op.failed:
            raise RuntimeError("serve warm-up job failed")
        return time.perf_counter() - t0

    def close_service(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.svc = None

    def close(self) -> None:
        self.close_service()
        for d in self.cache_dirs:
            shutil.rmtree(d, ignore_errors=True)

    def metrics(self) -> dict:
        raw = self.Client(self.svc.url).metrics()["metrics"]
        return {k: v["value"] for k, v in raw.items()}

    # -- one job --------------------------------------------------------

    def _check_body(self, kind: str, spec: dict, body: str) -> bool:
        """Whether a served body is right; records it for later checks."""
        key = golden_key(spec)
        full = hashlib.sha256(body.encode()).hexdigest()
        if kind == "hit":
            return full == self.first_body.get(key)
        golden = (self.run_goldens.get(key) if spec["kind"] == "run"
                  else self.cluster_goldens.get(key))
        self.first_body.setdefault(key, full)
        if golden is None:
            self.unchecked.append((spec, full))
            return True
        return digest(body) == golden

    def _job(self, client, kind: str, spec: dict, tracer) -> Op:
        err = self.ServiceError
        t0 = time.perf_counter()
        name = f"{kind}:{golden_key(spec)}"
        stamps = {}
        try:
            summary = client.submit(spec)
        except err as exc:
            t1 = time.perf_counter()
            refused = kind == "bad" and 400 <= exc.status < 500
            return Op(kind, name, t1 - t0, not refused, {"submit": t1 - t0})
        stamps["submit"] = time.perf_counter()
        final = None
        try:
            for event in client.follow(summary["id"]):
                now = time.perf_counter()
                if event["event"] == "running":
                    stamps["running"] = now
                elif event["event"] in ("done", "failed", "cancelled"):
                    stamps["end"] = now
                    final = event["event"]
            if final != "done" or kind == "bad":
                raise err(0, f"job ended {final}")
            body, hit = client.result(summary["id"])
        except err:
            return Op(kind, name, time.perf_counter() - t0, True, {})
        t_res = time.perf_counter()
        right = self._check_body(kind, spec, body)
        if not right:
            self.mismatched = True
        failed = not right or hit != (kind == "hit")
        detail = {"hit": hit,
                  "submit": stamps["submit"] - t0,
                  "result": t_res - stamps["end"]}
        if "running" in stamps:
            detail["queue_wait"] = stamps["running"] - t0
            detail["exec"] = stamps["end"] - stamps["running"]
        if tracer is not None:
            self._spans(tracer, name, t0, stamps, t_res, hit)
        return Op(kind, name, t_res - t0, failed, detail)

    @staticmethod
    def _spans(tracer, name, t0, stamps, t_res, hit) -> None:
        parent = tracer.span(f"serve.job:{name}", t0, t_res, layer="serve",
                             hit=hit)
        tracer.span("serve.submit", t0, stamps["submit"], parent)
        if "running" in stamps:
            tracer.span("serve.queue_wait", t0, stamps["running"], parent)
            tracer.span("serve.exec", stamps["running"], stamps["end"],
                        parent)
        tracer.span("serve.result", stamps["end"], t_res, parent)

    # -- the timed window ---------------------------------------------

    def window(self, seconds: float, tracer=None) -> Window:
        """Both clients run whole rounds until ``seconds`` have passed,
        and at least :data:`MEMORY_ROUNDS` each; peak memory is read as
        each client ends that many, so it covers fixed work."""
        results: list[list[Op]] = [[] for _ in range(CLIENTS)]
        rounds: list[float] = []
        peaks: list[float] = []
        deadline = time.perf_counter() + seconds

        def loop(cid: int, out: list[Op]) -> None:
            client = self.Client(self.svc.url, client=f"client-{cid}")
            done = 0
            while True:
                started = time.perf_counter()
                rnd = self.next_round[cid]
                for kind, spec in round_plan(self.seed, cid, rnd):
                    out.append(self._job(client, kind, spec, tracer))
                self.next_round[cid] = rnd + 1
                done += 1
                now = time.perf_counter()
                rounds.append(now - started)
                if done == MEMORY_ROUNDS:
                    peaks.append(peak_rss_mb())
                if done >= MEMORY_ROUNDS and now >= deadline:
                    return

        threads = [threading.Thread(target=loop, args=(cid, out),
                                    name=f"perfbench-client-{cid}")
                   for cid, out in enumerate(results)]
        before = self.metrics()
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 60)
        wall = time.perf_counter() - t0
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a serve client did not finish in time")
        after = self.metrics()
        self.service_delta = {k: after.get(k, 0) - before.get(k, 0)
                              for k in after}
        ops = [op for out in results for op in out]
        return Window(ops, wall, len(rounds), rounds, max(peaks))

    def figures(self, window: Window) -> dict:
        """Jobs per second from the median round (both clients' rounds
        overlap, so a round's time already reflects the shared load);
        latency quantiles over every job."""
        ms = [op.seconds * 1e3 for op in window.ops]
        rate = CLIENTS * JOBS_PER_ROUND / median(window.unit_s)
        return {"ops_per_s": rate, "op_ms_p50": quantile(ms, 0.5),
                "op_ms_p90": quantile(ms, 0.9)}

    def verify(self, window: Window) -> list[str]:
        """Recompute a seeded sample of unpinned misses with
        ``execute_spec``, outside the timed window."""
        from repro.serve import ExperimentSpec, execute_spec

        problems = []
        r = rng(self.seed, "serve-verify")
        sample = r.sample(self.unchecked, min(3, len(self.unchecked)))
        for spec, full in sample:
            body = execute_spec(ExperimentSpec.from_dict(spec))
            if hashlib.sha256(body.encode()).hexdigest() != full:
                problems.append(f"served body differs from execute_spec "
                                f"for {canonical(spec)}")
        return problems

    def layer_metrics(self, traced: Window, ref: Window) -> dict:
        """Step latencies of the traced window (nothing is profiled in
        this workload, so its spans carry no profiler overhead)."""
        def p50(key: str) -> float:
            return quantile([op.detail[key] * 1e3 for op in traced.ops
                             if key in op.detail], 0.5)

        delta = self.service_delta
        return {"serve.submit_ms_p50": p50("submit"),
                "serve.queue_wait_ms_p50": p50("queue_wait"),
                "serve.exec_ms_p50": p50("exec"),
                "serve.result_ms_p50": p50("result"),
                "serve.hit_ratio": delta.get("serve.jobs.cache_hits", 0) /
                max(1, delta.get("serve.jobs.submitted", 0)),
                "serve.cells_executed": delta.get("serve.cells.executed", 0)}

    def report(self, window: Window) -> dict:
        miss = [op.seconds * 1e3 for op in window.ops
                if op.kind in ("run", "cluster") and not op.failed]
        hit = [op.seconds * 1e3 for op in window.ops
               if op.kind == "hit" and not op.failed]
        return {
            "serve_miss_ms_p50": (quantile(miss, 0.5), "ms", len(miss)),
            "serve_miss_ms_p90": (quantile(miss, 0.9), "ms", len(miss)),
            "serve_hit_ms_p50": (quantile(hit, 0.5), "ms", len(hit)),
            "serve_hit_ms_p90": (quantile(hit, 0.9), "ms", len(hit)),
            "serve_jobs_per_s": (self.figures(window)["ops_per_s"], "1/s"),
        }
