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
    ({"config": '{"technology": 1}'}, 400),
    ({"config": '{"memory.no_such_field": 1}'}, 400),
    ({"config": '{"predictor_kind": "bogus"}'}, 400),
    ({"config": '{"memory.replacement": "bogus"}'}, 400),
    # the deleted scan wakeup's knob: a stale override must not be queued
    ({"config": '{"wakeup_scheme": "scan"}'}, 400),
    # a negative synchronizer depth would make forwarding faster than base
    ({"config": '{"forwarding_sync_cycles": -1}'}, 400),
    # wrong-typed fields: each would fail or misread only in the run
    ({"seed": "abc"}, 400),
    ({"seed": "1.0"}, 400),
    ({"phase_seed": "true"}, 400),
    ({"num_instructions": "300.5"}, 400),
    ({"kernel_size": "big"}, 400),
    ({"scale_voltages": "no"}, 400),
    ({"base_period": "fast"}, 400),
    ({"controller_epoch": "null"}, 400),
    # out-of-range fields and contradictions validate() refuses
    ({"controller": "occupancy", "slowdowns": '{"fetch": 0.5}'}, 400),
    ({"controller": "occupancy", "controller_args": '{"bogus": 1}'}, 400),
    ({"controller_args": '{"low": 0.1}'}, 400),
    ({"controller_epoch": "0"}, 400),
    ({"num_instructions": "0"}, 400),
    ({"base_period": "-1"}, 400),
    ({"base_period": "NaN"}, 400),
    ({"controller": "occupancy", "controller_epoch": "Infinity"}, 400),
    ({"phases": '{"core": 0.0}'}, 400),
    ({"slowdowns": '{"fetch": 0}'}, 400),
    ({"slowdowns": '{"integer": NaN}'}, 400),
    # a phase that is not a finite real would fail only in the run
    ({"phases": '{"integer": NaN}'}, 400),
    ({"phases": '{"integer": "abc"}'}, 400),
], ids=["topology", "workload", "policy", "controller", "slowdown-domain",
        "slowdown-value", "config-field", "config-nested-object",
        "config-nested-field", "config-predictor-kind",
        "config-replacement", "config-stale-wakeup-scheme",
        "config-negative-forwarding-sync", "seed-string", "seed-float",
        "phase-seed-bool", "instructions-float", "kernel-size-string",
        "scale-voltages-string", "base-period-string",
        "controller-epoch-null", "controller-speedup",
        "controller-unknown-arg", "controller-args-without-controller",
        "controller-epoch-zero", "instructions-zero", "base-period-negative",
        "base-period-nan", "controller-epoch-infinite", "phase-domain",
        "slowdown-zero", "slowdown-nan", "phase-nan", "phase-string"])
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


# ----------------------------------------------------------- resolved targets
@pytest.fixture
def fresh_service(tmp_path):
    """A started service over an empty store (and no resolved targets)."""
    instance = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                              execution="serial", port=0,
                              poll_interval=0.02)
    instance.start()
    yield instance
    instance.stop()


def scenario_target(scenario, form="scenario"):
    """One /scenario request target: the scenario= or the name= spelling."""
    if form == "name":
        return (f"/scenario?name={scenario.name}&seed={scenario.seed}"
                f"&num_instructions={scenario.num_instructions}")
    return "/scenario?" + urlencode({"scenario": scenario.to_json(indent=None)})


def get(service, target):
    """Every byte of the reply to ``GET target``."""
    return raw_request(service, f"GET {target} HTTP/1.0\r\n\r\n".encode())


def converged(service, target):
    """Repeat ``GET target`` until it is no longer 202; the last reply."""
    deadline = time.monotonic() + WAIT
    while True:
        reply = get(service, target)
        if (not reply.startswith(b"HTTP/1.0 202 ")
                or time.monotonic() > deadline):
            return reply
        time.sleep(0.05)


@pytest.mark.parametrize("form", ["scenario", "name"])
def test_repeated_target_gets_a_byte_identical_reply(fresh_service, scenario,
                                                     form, monkeypatch):
    expected = run_cached(scenario, store=fresh_service.store).outcome
    target = scenario_target(scenario, form)
    logged = []
    monkeypatch.setattr(fresh_service, "verbose", True)
    monkeypatch.setattr(fresh_service, "log", logged.append)
    first = get(fresh_service, target)
    repeat = get(fresh_service, target)
    assert target in fresh_service._resolved
    assert repeat == first  # head and body
    head, _, body = repeat.partition(b"\r\n\r\n")
    assert body == expected.to_json().encode()
    assert head.decode().split("\r\n") == [
        "HTTP/1.0 200 OK",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "X-Repro-Status: hit",
        f"X-Repro-Key: {fresh_service.store.key_for(scenario)}",
    ]
    # a repeat is logged like any reply
    assert len(logged) == 2
    assert all(f'"GET {target} HTTP/1.0" 200 -' in line for line in logged)


def test_repeat_reads_and_verifies_the_entry_and_nothing_else(
        fresh_service, scenario, monkeypatch):
    """A repeat neither parses the query, nor hashes the key, nor splices:
    it reads the entry once (firing the store.get fault site once)."""
    from repro.results import store as store_module
    from repro.serve import service as service_module

    run_cached(scenario, store=fresh_service.store)
    target = scenario_target(scenario)
    first = get(fresh_service, target)
    calls = {}

    def counting(name, function):
        def counted(*args, **kwargs):
            label = args[0] if name == "inject" else name
            calls[label] = calls.get(label, 0) + 1
            return function(*args, **kwargs)
        return counted

    for module, name in ((service_module, "_scenario_from_query"),
                         (service_module, "scenario_result_json"),
                         (store_module, "inject"),
                         (ResultsStore, "key_for"),
                         (ResultsStore, "get_rendering")):
        monkeypatch.setattr(module, name, counting(name,
                                                   getattr(module, name)))
    assert get(fresh_service, target) == first
    assert calls == {"get_rendering": 1, "store.get": 1}
    assert fresh_service.store.hits == 2


def test_repeat_of_a_rewritten_entry_serves_the_new_result(fresh_service,
                                                           scenario):
    outcome = run_scenario(scenario)
    fresh_service.store.put(outcome)
    target = scenario_target(scenario)
    get(fresh_service, target)
    rewritten = ScenarioResult(scenario, replace(
        outcome.result, elapsed_ns=outcome.result.elapsed_ns + 1.0))
    fresh_service.store.put(rewritten)
    for _ in range(2):  # record dropped, full path, then from the record
        reply = get(fresh_service, target)
        body = reply.partition(b"\r\n\r\n")[2]
        assert body == rewritten.to_json().encode()


def test_repeat_after_the_entry_is_removed_requeues_it(fresh_service,
                                                        scenario):
    run_cached(scenario, store=fresh_service.store)
    target = scenario_target(scenario)
    first = get(fresh_service, target)
    assert fresh_service.store.clear() == 1
    assert get(fresh_service, target).startswith(b"HTTP/1.0 202 ")
    assert target not in fresh_service._resolved
    assert converged(fresh_service, target) == first


def test_repeat_of_a_corrupt_entry_quarantines_it(fresh_service, scenario):
    store = fresh_service.store
    run_cached(scenario, store=store)
    target = scenario_target(scenario)
    first = get(fresh_service, target)
    victim = store.entry_path(store.key_for(scenario))
    data = bytearray(victim.read_bytes())
    # silent bit-flip: the entry still parses, only the checksum can tell
    digit = data.index(b'"elapsed_ns": ') + len(b'"elapsed_ns": ')
    data[digit] = ord("1") if data[digit] != ord("1") else ord("2")
    victim.write_bytes(bytes(data))
    assert get(fresh_service, target).startswith(b"HTTP/1.0 202 ")
    assert store.quarantine_count() == 1
    assert converged(fresh_service, target) == first


def test_first_hit_encodes_once_and_padded_targets_are_not_recorded(
        fresh_service, scenario, monkeypatch):
    """The recorded reply is the one sent; a target longer than its reply
    (padded with a parameter the scenario= form ignores) is answered but
    not recorded."""
    from repro.serve import service as service_module

    run_cached(scenario, store=fresh_service.store)
    encoded = []
    encode = service_module._encode_reply
    monkeypatch.setattr(service_module, "_encode_reply",
                        lambda *args, **kwargs: encoded.append(args)
                        or encode(*args, **kwargs))
    target = scenario_target(scenario)
    first = get(fresh_service, target)
    assert len(encoded) == 1
    assert fresh_service._resolved[target].reply == first
    padded = f"{target}&pad={'x' * len(first)}"
    assert get(fresh_service, padded) == first
    assert list(fresh_service._resolved) == [target]


def test_only_scenario_hits_are_recorded_up_to_the_bound(fresh_service,
                                                         scenario,
                                                         monkeypatch):
    from repro.serve import service as service_module

    failed = replace(scenario, seed=77)
    fresh_service._failures[fresh_service.store.key_for(failed)] = "boom"
    replies = {
        202: scenario_target(replace(scenario, seed=78)),
        500: scenario_target(failed),
        400: "/scenario?name=base&bogus=1",
        404: "/scenario?name=no-such-scenario",
    }
    for code, target in replies.items():
        assert get(fresh_service, target).startswith(f"HTTP/1.0 {code} "
                                                     .encode())
    assert get(fresh_service, "/health").startswith(b"HTTP/1.0 200 ")
    assert get(fresh_service, "/compare?topologies=base&instructions="
               f"{SMALL}").startswith(b"HTTP/1.0 202 ")
    monkeypatch.setattr(fresh_service, "max_pending", 0)
    assert get(fresh_service, scenario_target(replace(scenario, seed=79))
               ).startswith(b"HTTP/1.0 429 ")
    assert fresh_service._resolved == {}

    monkeypatch.setattr(service_module, "RESOLVED_TARGETS", 2)
    targets = []
    for seed in (1, 2, 3):
        stored = replace(scenario, seed=seed)
        run_cached(stored, store=fresh_service.store)
        targets.append(scenario_target(stored))
        assert get(fresh_service, targets[-1]).startswith(b"HTTP/1.0 200 ")
    assert list(fresh_service._resolved) == targets[1:]  # oldest dropped
    fresh_service.drain_once()  # settle the queued misses before teardown


def test_resolved_targets_hold_their_bound_under_contention(
        offline_service, scenario, monkeypatch):
    """Eight threads resolving and repeating 12 targets over a bound of 4:
    the record never exceeds the bound, and every reply is the right one."""
    import sys

    from repro.serve import service as service_module

    monkeypatch.setattr(service_module, "RESOLVED_TARGETS", 4)
    scenarios = [replace(scenario, seed=seed) for seed in (1, 2)]
    expected = []
    for stored in scenarios:
        outcome = run_scenario(stored)
        offline_service.store.put(outcome)
        expected.append(outcome.to_json().encode())
    errors = []
    sizes = []

    def hammer(worker):
        try:
            for step in range(150):
                index = (worker * 7 + step) % 12
                target = f"/scenario?t={index}"
                reply = offline_service.reply_for(target)
                if reply is None:
                    offline_service.resolve(target, scenarios[index % 2])
                elif reply.partition(b"\r\n\r\n")[2] != expected[index % 2]:
                    errors.append(f"wrong reply for {target}")
                sizes.append(len(offline_service._resolved))
        except Exception as exc:  # reported below, with the thread's name
            errors.append(repr(exc))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=WAIT)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(sizes) == 8 * 150 and max(sizes) <= 4


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


def test_compare_keys_and_reads_each_cell_once(tmp_path, monkeypatch):
    """A two-cell grid costs 2 key_for and 2 entry reads, cold or warm."""
    from repro.analysis.report import design_space_records, design_space_table
    from repro.core.experiments import design_space_scenarios

    store = ResultsStore(root=tmp_path / "cache")
    service = ResultsService(store=store, execution="serial", port=0)
    calls = {"key_for": 0, "_load": 0}

    def counted(name):
        original = getattr(store, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(store, name, wrapper)

    counted("key_for")
    counted("_load")
    grid = {"topologies": ["base", "gals5"], "workloads": ["perl"],
            "num_instructions": SMALL}
    cold = service.compare(**grid)
    assert calls == {"key_for": 2, "_load": 2}
    assert cold == {"status": "pending", "missing": 2, "total": 2}

    service.drain_once()
    calls.update(key_for=0, _load=0)
    warm = service.compare(**grid)
    assert calls == {"key_for": 2, "_load": 2}
    outcomes = [store.get(cell) for cell in design_space_scenarios(**grid)]
    assert json.dumps(warm) == json.dumps({
        "status": "complete", "total": 2,
        "records": design_space_records(outcomes),
        "table": design_space_table(outcomes)})


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
