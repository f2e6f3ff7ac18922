"""Tests for the fault-tolerant sweep fabric (:mod:`repro.exec.faults`).

Covers the deterministic fault-injection harness itself (plan round-trips,
exact hit schedules, role filtering), every failure mode it drives --
injected ``OSError``s, torn entry writes caught by the store checksum --
and the headline crash-recovery contract: a local-pool worker killed
mid-job (via the plan's ``exit`` action) breaks the pool, the pool is
rebuilt or degrades to the parent, and the sweep still completes
bit-identically to a serial run.
"""

import json
import time
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.core.scenario import get_scenario, run_scenario
from repro.exec import ExecutionConfig
from repro.exec.backends import is_infrastructure_error
from repro.exec.faults import (FAULT_LOG_ENV_VAR, FAULT_PLAN_ENV_VAR,
                               FAULT_ROLE_ENV_VAR, FaultPlan, FaultRule,
                               inject)
from repro.results import ResultsStore, resume_sweep, run_cached
from repro.serve import ResultsService, request_json, scenario_query_url

SMALL = 150


@pytest.fixture
def store(tmp_path):
    return ResultsStore(root=tmp_path / "cache")


@pytest.fixture
def scenario():
    return replace(get_scenario("base"), num_instructions=SMALL)


def _activate(monkeypatch, plan: FaultPlan) -> None:
    """Activate ``plan`` in this process for the duration of one test."""
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, plan.to_json())


# ------------------------------------------------------------------- the plan
def test_fault_rule_rejects_unknown_action():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultRule(site="store.put", action="explode")


def test_fault_plan_json_round_trip():
    plan = FaultPlan(seed=42, rules=(
        FaultRule(site="store.put", action="raise", hits=(0, 2)),
        FaultRule(site="pool.run", action="exit", hits=(1,),
                  role="worker", message="die"),
        FaultRule(site="store.get", action="sleep", seconds=0.5),
    ))
    clone = FaultPlan.from_json(plan.to_json())
    assert clone == plan
    assert clone.seed == 42
    assert clone.rules[1].role == "worker"


def test_plan_fires_at_exact_hit_indices(monkeypatch):
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="unit.site", action="torn", hits=(1, 3)),)))
    fired = [inject("unit.site") is not None for _ in range(5)]
    assert fired == [False, True, False, True, False]
    # other sites share the plan but keep independent counters
    assert inject("unit.other") is None


def test_role_filter_targets_workers_only(monkeypatch):
    plan = FaultPlan(rules=(FaultRule(site="unit.role", action="torn",
                                      hits=tuple(range(8)), role="worker"),))
    _activate(monkeypatch, plan)
    assert inject("unit.role") is None  # this process is role "main"
    monkeypatch.setenv(FAULT_ROLE_ENV_VAR, "worker")
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, plan.to_json() + " ")  # reparse
    assert inject("unit.role") is not None


def test_unreadable_plan_injects_nothing(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "{not json")
    assert inject("unit.site") is None
    monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "/no/such/plan.json")
    assert inject("unit.site") is None


def test_infrastructure_error_classification():
    assert is_infrastructure_error(OSError("disk on fire"))
    assert not is_infrastructure_error(ValueError("deterministic"))
    assert not is_infrastructure_error(KeyError("missing"))


# -------------------------------------------------------- store-level faults
def test_injected_raise_surfaces_as_oserror(monkeypatch, store, scenario):
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="store.put", action="raise", hits=(0,)),)))
    run = resume_sweep([scenario], store=None, execution="serial")[0]
    with pytest.raises(OSError, match="injected fault"):
        store.put(run.outcome)
    # the very next attempt (hit 1) succeeds: the failure was transient
    store.put(run.outcome)
    assert store.get(scenario) is not None


def test_torn_put_is_quarantined_and_recomputed(monkeypatch, store, scenario):
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="store.put", action="torn", hits=(0,)),)))
    first = run_cached(scenario, store=store)
    assert not first.cached
    # the stored bytes are torn: the next read quarantines and misses
    assert store.get(scenario) is None
    quarantined = store.quarantined()
    assert len(quarantined) == 1 and quarantined[0].kind == "entries"
    # recompute (put hit 1 is clean) and verify bit-identity end to end
    second = run_cached(scenario, store=store)
    assert not second.cached
    assert second.outcome.to_json() == first.outcome.to_json()
    assert store.get(scenario) is not None


def test_store_verify_checksums_every_entry(store, scenario):
    run_cached(scenario, store=store)
    other = replace(scenario, seed=1234)
    run_cached(other, store=store)
    victim = store.entry_path(store.key_for(other))
    data = bytearray(victim.read_bytes())
    # silent bit-flip: one digit of the stored result rendering, so the
    # entry still parses and only the checksum can tell
    digit = data.index(b'"elapsed_ns": ') + len(b'"elapsed_ns": ')
    data[digit] = ord("1") if data[digit] != ord("1") else ord("2")
    victim.write_bytes(bytes(data))
    stats = store.verify()
    assert (stats.checked, stats.ok, stats.quarantined) == (2, 1, 1)
    assert store.get(other) is None  # quarantined, not served
    assert store.clear_quarantine() == 1
    assert store.quarantined() == []


def test_entry_checksum_is_stable_and_covers_every_byte(tmp_path, scenario,
                                                        monkeypatch):
    """Identical puts give identical bytes; flipping any byte after the
    header line, or the checksum itself, quarantines the entry."""
    monkeypatch.setattr(time, "strftime",
                        lambda fmt, *args: "2026-01-01T00:00:00")
    outcome = run_scenario(scenario)
    first = ResultsStore(root=tmp_path / "a")
    second = ResultsStore(root=tmp_path / "b")
    key = first.put(outcome, wall_seconds=1.0)
    assert second.put(outcome, wall_seconds=1.0) == key
    path = first.entry_path(key)
    pristine = path.read_bytes()
    assert second.entry_path(key).read_bytes() == pristine

    header_end = pristine.index(b"\n")
    checksum = pristine.index(b'"checksum":"') + len('"checksum":"')
    positions = [checksum, header_end, len(pristine) - 1]
    positions += range(header_end + 1, len(pristine), 89)
    for position in positions:
        flipped = bytearray(pristine)
        flipped[position] ^= 0x01
        path.write_bytes(bytes(flipped))
        assert first.get(scenario) is None, position
        assert not path.exists()
    assert [item.kind for item in first.quarantined()] == ["entries"]
    path.write_bytes(pristine)
    assert first.get(scenario).to_json() == outcome.to_json()


# -------------------------------------------------- crash recovery, for real
def test_pool_worker_killed_mid_sweep_recovers(monkeypatch, tmp_path):
    """Every local-pool worker dies (``os._exit``, the SIGKILL shape) on its
    second job; the broken pool is rebuilt and finally degrades to the
    parent, and the sweep's results are bit-identical to a serial run with
    a store that verifies clean."""
    scenarios = [replace(get_scenario(name), num_instructions=SMALL)
                 for name in ("base", "gals5", "fem3", "alu4")]
    reference = resume_sweep(scenarios, store=None, execution="serial")
    fault_log = tmp_path / "faults.jsonl"
    monkeypatch.setenv(FAULT_LOG_ENV_VAR, str(fault_log))
    _activate(monkeypatch, FaultPlan(seed=7, rules=(
        FaultRule(site="pool.run", action="exit", hits=(1,),
                  role="worker"),)))
    store = ResultsStore(root=tmp_path / "chaos")
    runs = resume_sweep(scenarios, execution=ExecutionConfig(
        backend="local", jobs=2, store=store, retry_backoff=0.01))
    assert ([run.outcome.to_json() for run in runs]
            == [run.outcome.to_json() for run in reference])
    events = [json.loads(line) for line in fault_log.read_text().splitlines()]
    exits = [event for event in events if event["action"] == "exit"]
    assert exits and all(event["role"] == "worker" for event in exits)
    stats = store.verify()
    assert (stats.checked, stats.ok, stats.quarantined) \
        == (len(scenarios), len(scenarios), 0)


# ------------------------------------------------------- service degradation
def test_service_saturation_answers_429_with_retry_after(tmp_path, scenario):
    service = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                             execution="serial", port=0, poll_interval=30.0,
                             max_pending=0).start()
    try:
        reply = request_json(scenario_query_url(service.url, scenario),
                             retries=0)
        assert reply.code == 429
        assert reply.status == "saturated"
        assert int(reply.headers["Retry-After"]) >= 1
        # the retrying client surfaces the final 429 instead of raising
        retried = request_json(scenario_query_url(service.url, scenario),
                               retries=1, backoff=0.01)
        assert retried.code == 429
        health = service.health()
        assert health["pending"] == 0 and health["max_pending"] == 0
        assert health["drain_alive"] and health["quarantined"] == 0
    finally:
        service.stop()


def test_service_drain_retries_transient_oserror(monkeypatch, tmp_path,
                                                 scenario):
    """A transient ``OSError`` fails the batched sweep and the first
    per-scenario attempt; the drain's backoff retry then stores the result
    and records no failure."""
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="store.put", action="raise", hits=(0, 1)),)))
    service = ResultsService(
        store=ResultsStore(root=tmp_path / "cache"),
        execution=ExecutionConfig(backend="serial", retry_backoff=0.01),
        poll_interval=30.0)
    assert service.lookup(scenario)[0] == "pending"
    assert service.drain_once() == 1
    status, _, body = service.lookup(scenario)
    assert status == "hit"
    assert body == run_scenario(scenario).to_json()


def test_service_lookup_saturates_beyond_max_pending(tmp_path, scenario):
    service = ResultsService(store=ResultsStore(root=tmp_path / "cache"),
                             execution="serial", max_pending=1,
                             poll_interval=30.0)
    first, _, _ = service.lookup(scenario)
    assert first == "pending"
    # the same key re-queues freely (idempotent), a new key saturates
    assert service.lookup(scenario)[0] == "pending"
    assert service.lookup(replace(scenario, seed=99))[0] == "saturated"


def test_client_surfaces_connection_error_after_retries():
    with pytest.raises(OSError):
        request_json("http://127.0.0.1:9/never", timeout=2,
                     retries=1, backoff=0.01)


# --------------------------------------------------------------- CLI surface
def test_cache_verify_quarantine_cli(tmp_path, scenario, capsys):
    root = tmp_path / "cache"
    store = ResultsStore(root=root)
    run_cached(scenario, store=store)
    assert cli_main(["cache", "verify", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "1 ok" in out and "0 quarantined" in out
    store.entry_path(store.key_for(scenario)).write_text("{torn")
    assert cli_main(["cache", "verify", "--cache-dir", str(root)]) == 1
    assert "1 quarantined" in capsys.readouterr().out
    assert cli_main(["cache", "quarantine", "--cache-dir", str(root)]) == 0
    assert "entries" in capsys.readouterr().out
    assert cli_main(["cache", "quarantine", "--cache-dir", str(root),
                     "--clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
