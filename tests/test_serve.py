"""Tests for the experiment service: specs, queue, cache, HTTP, SSE.

The service's core contract is byte-identity: a result fetched over the
control plane must equal, byte for byte, what the direct CLI path
produces — whether it was simulated by the warm pool, reassembled from
per-cell checkpoints, or served whole from the result cache.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import (
    ExperimentService,
    ResultCache,
    ServiceClient,
    ServiceError,
    ExperimentSpec,
    SpecError,
    execute_spec,
)
from repro.serve.jobs import Job, JobQueue, QueueFullError

SMALL_CLUSTER = {"nodes": 2, "clients": 2, "requests": 2,
                 "providers": ["mvia"], "rates": [500.0]}


def _cluster_spec(seed, **over):
    params = dict(SMALL_CLUSTER)
    params.update(over)
    return {"kind": "cluster", "params": params, "seed": seed}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = ExperimentService(port=0, workers=2,
                            cache_dir=str(tmp_path_factory.mktemp("cache")))
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url, client="pytest")


# -- specs ------------------------------------------------------------------

def test_spec_round_trips_and_keys_are_stable():
    spec = ExperimentSpec.from_dict(_cluster_spec(3))
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.result_key() == spec.result_key()


def test_sparse_and_explicit_cluster_specs_share_one_key():
    sparse = ExperimentSpec.from_dict(_cluster_spec(5))
    explicit = ExperimentSpec.from_dict(_cluster_spec(
        5, topology="star", window=4, arrival="poisson", mode="open",
        service="fixed:20", tenants=1))
    assert sparse.result_key() == explicit.result_key()


def test_quick_flag_and_spelled_out_grid_share_one_key():
    from repro.cluster import QUICK_RATE_GRID

    quick = ExperimentSpec.from_dict(
        {"kind": "cluster", "params": {"quick": True}, "seed": 1})
    spelled = ExperimentSpec.from_dict(
        {"kind": "cluster",
         "params": {"rates": list(QUICK_RATE_GRID)}, "seed": 1})
    assert quick.result_key() == spelled.result_key()


def test_submit_flags_describe_the_same_canonical_spec():
    from repro.cli import _submit_spec, build_parser

    parse = build_parser().parse_args
    cluster = _submit_spec(parse(
        ["submit", "cluster", "--quick", "--provider", "mvia,clan",
         "--nodes", "4", "--clients", "4", "--requests", "8"]))
    spelled = {"kind": "cluster", "seed": 0, "params": {
        "quick": True, "providers": ["mvia", "clan"], "nodes": 4,
        "clients": 4, "requests": 8}}
    assert (ExperimentSpec.from_dict(cluster).result_key()
            == ExperimentSpec.from_dict(spelled).result_key())
    run = _submit_spec(parse(
        ["submit", "run", "base_latency", "--sizes", "4,64", "--seed", "3"]))
    assert ExperimentSpec.from_dict(run).params["sizes"] == (4, 64)
    chaos = _submit_spec(parse(
        ["submit", "chaos", "--provider", "mvia", "--quick"]))
    assert ExperimentSpec.from_dict(chaos).params["providers"] == ("mvia",)


def test_seed_and_params_change_the_key():
    base = ExperimentSpec.from_dict(_cluster_spec(0))
    assert base.result_key() != \
        ExperimentSpec.from_dict(_cluster_spec(1)).result_key()
    assert base.result_key() != \
        ExperimentSpec.from_dict(_cluster_spec(0, requests=4)).result_key()


@pytest.mark.parametrize("bad", [
    {"kind": "nope", "params": {}},
    {"kind": "run", "params": {"benchmark": "no_such_bench"}},
    {"kind": "run", "params": {"benchmark": "base_latency",
                               "fidelity": "warp"}},
    {"kind": "cluster", "params": {"bogus_param": 1}},
    {"kind": "cluster", "params": {"providers": ["enoexist"]}},
    {"kind": "chaos", "params": {"scenarios": ["no_such_scenario"]}},
    {"kind": "run", "params": {"benchmark": "base_latency"}, "seed": "x"},
])
def test_malformed_specs_raise_spec_error(bad):
    with pytest.raises(SpecError):
        ExperimentSpec.from_dict(bad)


@pytest.mark.parametrize("bench", ["client_server", "nondata"])
def test_sizes_on_a_benchmark_without_sizes_is_refused(bench):
    spec = {"kind": "run", "params": {"benchmark": bench, "sizes": [16]}}
    with pytest.raises(SpecError, match="takes no sizes"):
        ExperimentSpec.from_dict(spec)


def test_sizes_reach_benchmarks_that_take_them():
    for bench in ("base_latency", "base_latency_blocking"):
        spec = ExperimentSpec.from_dict(
            {"kind": "run", "params": {"benchmark": bench, "sizes": [16]}})
        assert spec.params["sizes"] == (16,)


# -- job queue --------------------------------------------------------------

def _job(client="c", seed=0):
    return Job(ExperimentSpec.from_dict(_cluster_spec(seed)), client)


def test_queue_is_fifo_within_a_client_and_round_robin_across():
    q = JobQueue(capacity=16)
    a1, a2, b1 = _job("alice", 1), _job("alice", 2), _job("bob", 3)
    for j in (a1, a2, b1):
        q.submit(j)
    taken = [q.take(0.1) for _ in range(3)]
    assert taken == [a1, b1, a2]  # alice, bob, alice again
    assert q.take(0.01) is None


def test_queue_capacity_overflow_raises():
    q = JobQueue(capacity=2)
    q.submit(_job(seed=1))
    q.submit(_job(seed=2))
    with pytest.raises(QueueFullError):
        q.submit(_job(seed=3))


def test_cancel_queued_job_is_removed_and_queue_not_wedged():
    q = JobQueue(capacity=8)
    first, victim, last = _job(seed=1), _job(seed=2), _job(seed=3)
    for j in (first, victim, last):
        q.submit(j)
    assert q.cancel(victim.id)
    assert victim.state == "cancelled"
    assert [q.take(0.1), q.take(0.1)] == [first, last]
    assert q.take(0.01) is None


# -- result cache -----------------------------------------------------------

def test_result_cache_round_trip_and_corruption_defences(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = ExperimentSpec.from_dict(_cluster_spec(9))
    key = spec.result_key()
    assert cache.get(key) is None
    cache.put(key, spec.to_dict(), '{"fine": 1}')
    assert cache.get(key) == '{"fine": 1}'
    # flipping a byte of the stored payload must read as a miss
    path = cache.path(key)
    entry = json.loads(open(path).read())
    entry["result"] = '{"fine": 2}'
    open(path, "w").write(json.dumps(entry))
    assert cache.get(key) is None


def test_code_version_skew_invalidates_cached_results(tmp_path,
                                                      monkeypatch):
    cache = ResultCache(str(tmp_path))
    spec = ExperimentSpec.from_dict(_cluster_spec(10))
    old_key = spec.result_key()
    cache.put(old_key, spec.to_dict(), "{}")
    assert cache.get(old_key) == "{}"
    # the same entry read by a build with a bumped CODE_VERSION: stale
    monkeypatch.setattr("repro.serve.cache.CODE_VERSION", "repro-9.9.9")
    assert cache.get(old_key) is None
    # and the key itself moves, so the new build never even looks there
    monkeypatch.setattr("repro.snap.format.CODE_VERSION", "repro-9.9.9")
    assert spec.result_key() != old_key


# -- end-to-end over HTTP ---------------------------------------------------

def _submit_and_fetch(client, spec, timeout=240.0):
    job = client.submit(spec)
    client.wait(job["id"], timeout=timeout)
    body, hit = client.result(job["id"])
    return client.job(job["id"]), body, hit


def test_served_cluster_result_is_byte_identical_to_direct(client):
    spec = _cluster_spec(21)
    direct = execute_spec(ExperimentSpec.from_dict(spec))
    summary, body, hit = _submit_and_fetch(client, spec)
    assert summary["state"] == "done"
    assert body == direct
    assert hit is False
    assert summary["cells_total"] == 1
    assert summary["cells_done"] == 1


def test_served_run_result_is_byte_identical_to_direct(client):
    spec = {"kind": "run",
            "params": {"benchmark": "base_latency", "provider": "clan",
                       "sizes": [64, 256]},
            "seed": 22}
    direct = execute_spec(ExperimentSpec.from_dict(spec))
    summary, body, hit = _submit_and_fetch(client, spec)
    assert body == direct
    assert hit is False


def test_resubmit_is_a_cache_hit_with_identical_bytes(client):
    spec = _cluster_spec(23)
    _, first, hit0 = _submit_and_fetch(client, spec)
    job = client.submit(spec)
    # a cache-hit job is born finished: no queue, no simulation
    assert job["state"] == "done"
    assert job["cache_hit"] is True
    body, hit = client.result(job["id"])
    assert hit is True
    assert body == first


def test_concurrent_clients_get_isolated_correct_results(service):
    specs = {"one": _cluster_spec(31),
             "two": _cluster_spec(32, requests=3)}
    direct = {name: execute_spec(ExperimentSpec.from_dict(s))
              for name, s in specs.items()}
    assert direct["one"] != direct["two"]
    out, errors = {}, []

    def go(name):
        try:
            c = ServiceClient(service.url, client=name)
            _, body, _hit = _submit_and_fetch(c, specs[name])
            out[name] = body
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=go, args=(n,)) for n in specs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert out == direct


def test_sse_stream_reports_every_cell_exactly_once(client):
    spec = _cluster_spec(33, providers=["mvia", "bvia"],
                         rates=[500.0, 1000.0])
    job = client.submit(spec)
    events = list(client.follow(job["id"]))
    cells = [e for e in events if e["event"] == "cell"]
    assert len(cells) == 4
    assert sorted(e["index"] for e in cells) == [0, 1, 2, 3]
    assert {(e["provider"], e["rate"]) for e in cells} == {
        ("mvia", 500.0), ("mvia", 1000.0),
        ("bvia", 500.0), ("bvia", 1000.0)}
    assert [e["event"] for e in events].count("done") == 1
    # the event log replays identically for a late subscriber
    again = list(client.follow(job["id"]))
    assert again == events


def test_http_errors_are_structured(client):
    with pytest.raises(ServiceError) as err:
        client.job("job-999999")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.submit({"kind": "run",
                       "params": {"benchmark": "enoexist"}})
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.result("job-999999")
    assert err.value.status == 404


def test_bad_run_spec_is_refused_at_submit_not_in_a_worker(client):
    with pytest.raises(ServiceError) as err:
        client.submit({"kind": "run", "params": {
            "benchmark": "client_server", "sizes": [16]}})
    assert err.value.status == 400
    assert "takes no sizes" in str(err.value)


def _raw_post(service, content_length: str, body: bytes = b"",
              stall: bool = False) -> tuple[int, dict]:
    """POST /jobs over a bare socket; returns the reply's status code
    and decoded JSON body.  ``stall`` keeps the connection open after
    the bytes sent."""
    with socket.create_connection((service.host, service.port),
                                  timeout=10) as sock:
        sock.sendall(b"POST /jobs HTTP/1.0\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: " + content_length.encode()
                     + b"\r\n\r\n" + body)
        if not stall:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(payload)


def _spec_body(case_id: str, kind: str, **params):
    """A well-framed POST of one spec the service must refuse with 400."""
    body = json.dumps({"spec": {"kind": kind, "params": params}}).encode()
    return pytest.param(str(len(body)), body, 400, id=case_id)


@pytest.mark.parametrize("length, body, status", [
    ("abc", b"", 400),            # not an integer
    ("-5", b"", 400),             # negative: would read to EOF
    ("1000000000000", b"", 413),  # over the cap: refused unread
    ("100", b'{"kind": ', 400),   # body ends before Content-Length
    # spec values no normaliser can coerce
    _spec_body("sizes-str", "run", benchmark="base_latency", sizes="abc"),
    _spec_body("sizes-int", "run", benchmark="base_latency", sizes=5),
    _spec_body("rates-str", "cluster", rates=["x"]),
    # specs that would otherwise fail later, in a worker
    _spec_body("nodes-str", "cluster", nodes="abc"),
    _spec_body("topology", "cluster", topology="ring"),
    _spec_body("servers", "cluster", nodes=2, servers=9),
    _spec_body("provider", "run", benchmark="base_latency", provider="nope"),
])
def test_request_body_reads_are_bounded(service, client, length, body,
                                        status):
    got, reply = _raw_post(service, length, body)
    assert got == status
    assert isinstance(reply["error"], str) and reply["error"]
    assert client.health()["ok"] is True


def test_stalled_request_body_times_out(tmp_path, monkeypatch):
    import repro.serve.service as service_mod

    monkeypatch.setattr(service_mod, "REQUEST_TIMEOUT_S", 0.5)
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    try:
        assert _raw_post(svc, "100", b'{"kind": ', stall=True)[0] == 408
        assert ServiceClient(svc.url).health()["ok"] is True
    finally:
        svc.stop()


def test_health_and_metrics_endpoints(client):
    from repro.snap import CODE_VERSION

    health = client.health()
    assert health["ok"] is True
    assert health["code_version"] == CODE_VERSION
    metrics = client.metrics()
    assert "serve.jobs.submitted" in metrics["metrics"]
    assert metrics["meta"]["code_version"] == CODE_VERSION


def test_jobs_listing_includes_submitted_jobs(client):
    listed = {j["id"] for j in client.jobs()}
    job = client.submit(_cluster_spec(23))  # cached by earlier test
    assert job["id"] not in listed
    assert job["id"] in {j["id"] for j in client.jobs()}


# -- cancellation under a busy worker ---------------------------------------

def test_cancel_queued_job_via_api_never_wedges_the_worker(tmp_path):
    svc = ExperimentService(port=0, workers=1,
                            cache_dir=str(tmp_path / "cache"))
    svc.start()
    try:
        c = ServiceClient(svc.url, client="cancel-test")
        # requests=6 keeps the single worker busy long enough for the
        # next submissions to be reliably queued behind it
        busy = c.submit(_cluster_spec(41, requests=6))
        victim = c.submit(_cluster_spec(42))
        out = c.cancel(victim["id"])
        assert out["cancelled"] is True
        assert c.wait(victim["id"], timeout=60)["state"] == "cancelled"
        # the worker survives: both the running job and a fresh one
        # still complete normally
        assert c.wait(busy["id"], timeout=240)["state"] == "done"
        after = c.submit(_cluster_spec(43))
        assert c.wait(after["id"], timeout=240)["state"] == "done"
    finally:
        svc.stop()


# -- cell-cache sharing with campaign checkpoints ---------------------------

def test_service_reuses_cluster_checkpoint_cells(tmp_path):
    """A --checkpoint-dir campaign and the service share cell identity:
    cells simulated by one are cache hits for the other."""
    from repro.cluster import ClusterConfig, run_cluster

    cache_dir = str(tmp_path / "shared")
    cfg = ClusterConfig(nodes=2, clients=2, requests=2, seed=51)
    direct = run_cluster(("mvia",), cfg, rates=(500.0,),
                         checkpoint_dir=cache_dir)
    svc = ExperimentService(port=0, workers=1, cache_dir=cache_dir)
    svc.start()
    try:
        c = ServiceClient(svc.url, client="ckpt")
        summary, body, hit = _submit_and_fetch(
            c, _cluster_spec(51))
        # whole-spec cache can't hit (the campaign never stored one),
        # but every cell must come from the campaign's checkpoints
        assert hit is False
        assert summary["cell_cache_hits"] == summary["cells_total"] == 1
        assert body == direct.to_json()
    finally:
        svc.stop()
