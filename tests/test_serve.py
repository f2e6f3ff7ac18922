"""Tests for the ``repro serve`` results service (:mod:`repro.serve`).

One in-process :class:`ResultsService` per module (ephemeral port, serial
job backend, fast drain interval) exercises the whole API surface: health,
hit/miss/pending semantics, byte-identity of served bodies with
``ScenarioResult.to_json()``, the /compare design-space endpoint, error
mapping, failure reporting, the library client and the ``repro query``
subcommand.
"""

import json
import select
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from urllib.parse import urlencode

import pytest

from repro.cli import main as cli_main
from repro.core.scenario import (ScenarioResult, available_scenarios,
                                 get_scenario, run_scenario)
from repro.results import ResultsStore, run_cached
from repro.serve import (ResultsService, query_compare, query_health,
                         query_scenario, request_json)
from repro.serve.service import (HANDLER_THREADS, READ_TIMEOUT_S, _Handler,
                                 _scenario_from_query)
from repro.workloads.registry import (WORKLOAD_SYNTHETIC, WORKLOADS,
                                      WorkloadEntry)

SMALL = 150

#: Generous wall-clock budget for one queued scenario to land (CI-safe).
WAIT = 60.0


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve") / "cache"
    instance = ResultsService(store=ResultsStore(root=root),
                              execution="serial", port=0,
                              poll_interval=0.02)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def scenario():
    return replace(get_scenario("base"), num_instructions=SMALL)


# ---------------------------------------------------------------------- health
def test_health_reports_store_and_backend(service):
    reply = query_health(service.url)
    assert reply.code == 200
    payload = reply.payload
    assert payload["status"] == "ok"
    assert payload["store"] == str(service.store.root)
    assert payload["backend"] == "serial"
    assert payload["fingerprint"] == service.store.fingerprint


def test_health_counts_quarantine_without_reading_reasons(tmp_path,
                                                          monkeypatch):
    service = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                             execution="serial", port=0)
    for index in range(3):
        victim = tmp_path / f"torn{index}.json"
        victim.write_text("torn")
        service.store.quarantine_file(victim, reason="torn")

    def no_read(path, *args, **kwargs):
        raise AssertionError(f"/health read {path}")

    monkeypatch.setattr(Path, "read_text", no_read)
    assert service.health()["quarantined"] == 3


# ------------------------------------------------------------ scenario queries
def test_miss_is_queued_then_served_bit_identically(service, scenario):
    first = query_scenario(service.url, scenario)
    assert first.code == 202
    assert first.status == "pending"
    key = first.key
    assert key == service.store.key_for(scenario)

    served = query_scenario(service.url, scenario, wait=WAIT, poll=0.05)
    assert served.code == 200
    assert served.status == "hit"
    assert served.headers["X-Repro-Key"] == key
    # acceptance: the served body is byte-identical to the stored result's
    # canonical JSON (what repro run --json writes)
    expected = run_cached(scenario, store=service.store)
    assert expected.cached
    assert served.body == expected.outcome.to_json()


def test_hit_without_recompute(service, scenario):
    """A stored scenario is answered 200 straight from the store."""
    before = service.store.hits
    reply = query_scenario(service.url, scenario)
    assert reply.code == 200 and reply.status == "hit"
    assert service.store.hits > before


def test_burst_of_concurrent_hits_all_served(service, scenario):
    """32 clients at once: the listen backlog queues them all, and every
    reply is a 200 with the same bytes."""
    assert service._server.request_queue_size == 128
    expected = run_cached(scenario, store=service.store).outcome.to_json()
    barrier = threading.Barrier(32)
    replies = []

    def hit():
        barrier.wait()
        replies.append(query_scenario(service.url, scenario))

    threads = [threading.Thread(target=hit) for _ in range(32)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert [reply.code for reply in replies] == [200] * 32
    assert {reply.body for reply in replies} == {expected}


def test_query_by_name_with_field_overrides(service, scenario):
    url = (f"{service.url}/scenario?name=base"
           f"&num_instructions={SMALL}")
    reply = request_json(url)
    assert reply.code == 200  # same key as the canonical-JSON spelling
    assert json.loads(reply.body)["scenario"]["num_instructions"] == SMALL


def test_unknown_endpoint_404(service):
    assert request_json(f"{service.url}/nope").code == 404


def test_unknown_scenario_name_404(service):
    reply = request_json(f"{service.url}/scenario?name=no-such-scenario")
    assert reply.code == 404
    assert "no-such-scenario" in reply.payload["error"]


def test_bad_field_and_missing_params_400(service):
    reply = request_json(f"{service.url}/scenario?name=base&bogus=1")
    assert reply.code == 400
    assert "bogus" in reply.payload["error"]
    assert request_json(f"{service.url}/scenario").code == 400


@pytest.mark.parametrize("overrides, code", [
    ({"topology": "no-such-topology"}, 404),
    ({"workload": "no-such-workload"}, 404),
    ({"policy": "no-such-policy"}, 404),
    ({"controller": "no-such-controller"}, 404),
    ({"slowdowns": '{"no-such-domain": 1.5}'}, 400),
    ({"slowdowns": '{"fetch": "abc"}'}, 400),
    ({"config": '{"no_such_field": 1}'}, 400),
], ids=["topology", "workload", "policy", "controller", "slowdown-domain",
        "slowdown-value", "config-field"])
def test_malformed_scenario_is_refused_not_queued(service, overrides, code):
    query = urlencode({"name": "gals5", "num_instructions": SMALL,
                       **overrides})
    reply = request_json(f"{service.url}/scenario?{query}")
    assert reply.code == code
    assert "error" in reply.payload
    assert service.health()["pending"] == 0


def test_failed_computation_reports_500_once(service, monkeypatch):
    def raising_factory(num_instructions, seed, kernel_size):
        raise ValueError("doomed workload")

    monkeypatch.setitem(WORKLOADS, "doomed", WorkloadEntry(
        name="doomed", kind=WORKLOAD_SYNTHETIC, description="",
        factory=raising_factory))
    bad = replace(get_scenario("base"), workload="doomed",
                  num_instructions=SMALL)
    reply = query_scenario(service.url, bad, wait=WAIT, poll=0.05)
    assert reply.code == 500
    assert reply.payload["status"] == "failed"
    assert "doomed" in reply.payload["error"]
    # the failure was consumed: the next query re-queues from scratch
    assert query_scenario(service.url, bad).code == 202
    service.drain_once()  # settle the re-queued job before teardown


# -------------------------------------------------------------------- hit path
#: Every registered scenario, plus a controller run (non-empty dvfs_trace),
#: a phased-workload run and a cluster2 run outside the registry.
HIT_PATH_SCENARIOS = [*available_scenarios(), "controller", "phased",
                      "cluster2"]


def _hit_path_scenario(name):
    if name == "controller":
        return replace(get_scenario("gals5"), name="controller",
                       controller="occupancy", num_instructions=SMALL)
    if name == "phased":
        return replace(get_scenario("gals5"), name="phased",
                       workload="phased:membound-osc", num_instructions=SMALL)
    if name == "cluster2":
        return replace(get_scenario("base"), name="cluster2",
                       topology="cluster2", workload="gcc",
                       num_instructions=SMALL)
    return replace(get_scenario(name), num_instructions=SMALL)


@pytest.fixture
def offline_service(tmp_path):
    """A service that is never started: lookup() is called in-process."""
    return ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                          execution="serial", port=0)


@pytest.mark.parametrize("name", HIT_PATH_SCENARIOS)
def test_hit_body_is_the_canonical_rendering(offline_service, name):
    scenario = _hit_path_scenario(name)
    outcome = run_scenario(scenario)
    if name == "controller":
        assert outcome.result.dvfs_trace
    offline_service.store.put(outcome)
    status, _, body = offline_service.lookup(scenario)
    assert status == "hit"
    canonical = json.dumps(outcome.to_dict(), indent=2, sort_keys=True)
    assert body == outcome.to_json() == canonical


def test_hit_body_carries_the_requested_scenario(offline_service, scenario):
    outcome = run_scenario(replace(scenario, name="stored-as",
                                   description="stored description"))
    offline_service.store.put(outcome)
    asked = replace(scenario, name="asked-as", description="asked for")
    status, _, body = offline_service.lookup(asked)
    assert status == "hit"
    assert body == ScenarioResult(asked, outcome.result).to_json()
    assert json.loads(body)["scenario"]["name"] == "asked-as"
    assert json.loads(body)["scenario"]["description"] == "asked for"


def test_hit_hashes_the_key_once(offline_service, scenario, monkeypatch):
    offline_service.store.put(run_scenario(scenario))
    calls = []
    key_for = ResultsStore.key_for

    def counting_key_for(store, probed):
        calls.append(probed)
        return key_for(store, probed)

    monkeypatch.setattr(ResultsStore, "key_for", counting_key_for)
    assert offline_service.lookup(scenario)[0] == "hit"
    assert len(calls) == 1


# ------------------------------------------------------------------ HTTP layer
def raw_request(service, request):
    """Send raw request bytes on one connection; every byte of the reply."""
    with socket.create_connection((service.host, service.port),
                                  timeout=WAIT) as conn:
        conn.sendall(request)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize("request_bytes, code", [
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /health HTTP/2.0\r\n\r\n", 400),
    (b"POST /health HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 501),
    (b"GET /" + b"x" * 65536 + b" HTTP/1.0\r\n\r\n", 414),
    (b"GET /health HTTP/1.0\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
], ids=["malformed", "version", "post", "long-line", "many-headers"])
def test_bad_requests_get_their_error_codes(service, request_bytes, code):
    reply = raw_request(service, request_bytes)
    assert reply.startswith(f"HTTP/1.0 {code} ".encode())
    assert "error" in json.loads(reply.partition(b"\r\n\r\n")[2])


def test_bare_http10_request_gets_a_byte_identical_hit(service, scenario):
    expected = run_cached(scenario, store=service.store).outcome.to_json()
    query = urlencode({"scenario": scenario.to_json(indent=None)})
    reply = raw_request(service,
                        f"GET /scenario?{query} HTTP/1.0\r\n\r\n".encode())
    head, _, body = reply.partition(b"\r\n\r\n")
    assert body == expected.encode()
    assert head.decode().split("\r\n") == [
        "HTTP/1.0 200 OK",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "X-Repro-Status: hit",
        f"X-Repro-Key: {service.store.key_for(scenario)}",
    ]


def trickle(conn, limit=WAIT):
    """Send one byte every 50 ms, never a full line; seconds until closed."""
    began = time.monotonic()
    while time.monotonic() - began < limit:
        try:
            conn.send(b"G")
            if select.select([conn], [], [], 0.05)[0]:
                conn.recv(1)  # b"": the server closed the connection
                break
        except OSError:
            break
    return time.monotonic() - began


def test_silent_connection_neither_delays_a_hit_nor_lingers(
        service, scenario, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.2)
    expected = run_cached(scenario, store=service.store).outcome.to_json()
    with socket.create_connection((service.host, service.port),
                                  timeout=WAIT) as silent:
        reply = query_scenario(service.url, scenario)
        assert reply.code == 200 and reply.body == expected
        # the hit was answered while the silent connection is still open
        assert select.select([silent], [], [], 0)[0] == []
        assert silent.recv(1) == b""  # closed by the server's read timeout


def test_more_silent_connections_than_idle_threads_do_not_block_hits(
        service, scenario):
    expected = run_cached(scenario, store=service.store).outcome.to_json()
    silent = [socket.create_connection((service.host, service.port),
                                       timeout=WAIT)
              for _ in range(HANDLER_THREADS + 1)]
    try:
        began = time.monotonic()
        reply = query_scenario(service.url, scenario)
        elapsed = time.monotonic() - began
        assert reply.code == 200 and reply.body == expected
        # well inside the read timeout the silent connections hold out for
        assert elapsed < READ_TIMEOUT_S / 2
        assert select.select(silent, [], [], 0)[0] == []
    finally:
        for conn in silent:
            conn.close()


def test_trickling_client_is_cut_off_at_the_request_deadline(
        service, scenario, monkeypatch):
    # each byte comes well inside 0.3 s, so only a deadline for the
    # whole request head ends this connection
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    with socket.create_connection((service.host, service.port),
                                  timeout=WAIT) as conn:
        assert trickle(conn) < 5.0
    assert query_scenario(service.url, scenario).code in (200, 202)


def test_taken_port_raises_oserror(service, tmp_path):
    second = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                            execution="serial", port=service.port)
    with pytest.raises(OSError):
        second.start()


def test_stop_joins_the_handler_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.3)
    instance = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                              execution="serial", port=0).start()
    prefix = f"repro-serve-handler-{instance.port}"
    conn = socket.create_connection((instance.host, instance.port),
                                    timeout=WAIT)
    trickler = threading.Thread(target=trickle, args=(conn,))
    try:
        assert query_health(instance.url).code == 200
        assert any(thread.name.startswith(prefix)
                   for thread in threading.enumerate())
        trickler.start()
        time.sleep(0.1)
    finally:
        began = time.monotonic()
        instance.stop()
        stopped = time.monotonic() - began
        trickler.join()
        conn.close()
    # stop() waits at most for the trickling client's request deadline
    assert stopped < 5.0
    assert not [thread for thread in threading.enumerate()
                if thread.name.startswith(prefix) and thread.is_alive()]


# -------------------------------------------------------------------- /compare
def test_compare_cold_202_then_complete(service):
    params = {"topologies": "base,gals5", "workloads": "perl",
              "instructions": str(SMALL)}
    reply = query_compare(service.url, params, wait=WAIT, poll=0.05)
    assert reply.code == 200
    payload = reply.payload
    assert payload["status"] == "complete" and payload["total"] == 2
    assert len(payload["records"]) == 2
    assert "base" in payload["table"] and "gals5" in payload["table"]
    # warm repeat answers 200 immediately (no queue involved)
    assert query_compare(service.url, params).code == 200


# ------------------------------------------------------------- query URL parse
def test_scenario_from_query_requires_json_object():
    with pytest.raises(ValueError, match="JSON object"):
        _scenario_from_query({"scenario": ["[1, 2]"]})


# ------------------------------------------------------------- repro query CLI
def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_query_round_trip(service, scenario, capsys, tmp_path):
    out_path = tmp_path / "served.json"
    code, out, _ = run_cli(capsys, "query", "base",
                           "--instructions", str(SMALL),
                           "--url", service.url,
                           "--wait", str(WAIT),
                           "--json", str(out_path))
    assert code == 0
    assert "hit" in out
    expected = run_cached(scenario, store=service.store)
    assert out_path.read_text() == expected.outcome.to_json()


def test_cli_query_pending_exit_code(service, capsys):
    code, _, err = run_cli(capsys, "query", "base",
                           "--instructions", str(SMALL + 1),
                           "--seed", "9",
                           "--url", service.url)
    assert code == 3
    assert "pending" in err
    service.drain_once()  # settle the queued job before teardown


def test_cli_query_unreachable_service(capsys):
    code, _, err = run_cli(capsys, "query", "base",
                           "--url", "http://127.0.0.1:9")  # discard port
    assert code == 2
    assert "error" in err


def test_cli_query_prints_summary_without_json(service, scenario, capsys):
    code, out, _ = run_cli(capsys, "query", "base",
                           "--instructions", str(SMALL),
                           "--url", service.url, "--wait", str(WAIT))
    assert code == 0
    assert "instructions in" in out  # the ScenarioResult summary rendering
