"""Tests for the fault-tolerant sweep fabric (:mod:`repro.exec.faults`).

Covers the deterministic fault-injection harness itself (plan round-trips,
exact hit schedules, role filtering), every failure mode it drives --
injected ``OSError`` retries, torn entry writes caught by the store
checksum, poison-job quarantine, claim-lease expiry -- and the headline
crash-recovery contract: a real worker subprocess killed mid-claim (via the
plan's ``exit`` action) never wedges the sweep, because the next worker
breaks the expired lease and recomputes bit-identically.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.core.scenario import get_scenario, run_scenario
from repro.exec import faults, worker
from repro.exec.backends import _worker_environment, is_infrastructure_error
from repro.exec.faults import (FAULT_PLAN_ENV_VAR, FAULT_ROLE_ENV_VAR,
                               FaultPlan, FaultRule, inject)
from repro.results import ResultsStore, resume_sweep, run_cached
from repro.results.store import CLAIM_TTL_ENV_VAR
from repro.serve import ResultsService, request_json, scenario_query_url
from repro.workloads.registry import (WORKLOAD_SYNTHETIC, WORKLOADS,
                                      WorkloadEntry)

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


def _raising_factory(num_instructions, seed, kernel_size):
    raise ValueError("synthetic workload failure")


# ------------------------------------------------------------------- the plan
def test_fault_rule_rejects_unknown_action():
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultRule(site="store.put", action="explode")


def test_fault_plan_json_round_trip():
    plan = FaultPlan(seed=42, rules=(
        FaultRule(site="store.put", action="raise", hits=(0, 2)),
        FaultRule(site="worker.claimed", action="exit", hits=(1,),
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


# ------------------------------------------------------------- leased claims
def test_claim_records_owner_pid_host(store):
    assert store.try_claim("k" * 16, owner="tester")
    info = store.claim_info("k" * 16)
    assert info is not None
    assert info.owner == "tester" and info.pid == os.getpid()
    assert info.host and not info.expired
    assert [claim.key for claim in store.list_claims()] == ["k" * 16]


def test_expired_lease_is_broken_by_the_next_claimer(tmp_path):
    store = ResultsStore(root=tmp_path / "cache", claim_ttl=0.2)
    assert store.try_claim("deadbeef", owner="the-dead")
    assert not store.try_claim("deadbeef", owner="too-early")
    time.sleep(0.3)
    assert store.claim_info("deadbeef").expired
    assert store.try_claim("deadbeef", owner="the-breaker")
    assert store.claim_info("deadbeef").owner == "the-breaker"


def test_heartbeat_keeps_the_lease_alive(tmp_path):
    store = ResultsStore(root=tmp_path / "cache", claim_ttl=0.4)
    assert store.try_claim("cafe", owner="beater")
    for _ in range(3):
        time.sleep(0.2)
        assert store.heartbeat_claim("cafe")
        assert not store.claim_info("cafe").expired
    assert not store.try_claim("cafe", owner="thief")
    store.release_claim("cafe")
    assert not store.heartbeat_claim("cafe")  # released: nothing to refresh


def test_claim_ttl_environment_default(monkeypatch, tmp_path):
    monkeypatch.setenv(CLAIM_TTL_ENV_VAR, "7.5")
    assert ResultsStore(root=tmp_path / "cache").claim_ttl == 7.5


# ------------------------------------------------------------ worker retries
def test_worker_retries_transient_oserror(monkeypatch, store, scenario):
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="store.put", action="raise", hits=(0,)),)))
    key = worker.enqueue_job(store, scenario)
    assert worker.run_one(store, retry_backoff=0.01)
    # the retry succeeded: result published, no lasting failure marker
    assert store.get(scenario) is not None
    assert not worker.error_path(store, key).exists()


def test_worker_quarantines_poison_job(monkeypatch, store):
    monkeypatch.setitem(WORKLOADS, "raising", WorkloadEntry(
        name="raising", kind=WORKLOAD_SYNTHETIC, description="always raises",
        factory=_raising_factory))
    poison = replace(get_scenario("base"), workload="raising",
                     num_instructions=SMALL)
    key = worker.enqueue_job(store, poison)
    assert worker.run_one(store)
    marker = worker.read_error(store, key)
    assert marker["quarantined"] and not marker["infrastructure"]
    assert marker["attempts"] == 1  # deterministic failures fail fast
    assert "synthetic workload failure" in marker["error"]
    assert worker.pending_jobs(store) == []
    assert any(item.kind == "jobs" for item in store.quarantined())
    # the quarantined job is not picked up again
    assert not worker.run_one(store)


def test_worker_quarantines_torn_job_file(monkeypatch, store, scenario):
    _activate(monkeypatch, FaultPlan(rules=(
        FaultRule(site="worker.enqueue", action="torn", hits=(0,)),)))
    key = worker.enqueue_job(store, scenario)
    assert worker.run_one(store)
    assert worker.read_error(store, key)["quarantined"]
    assert worker.pending_jobs(store) == []
    assert any(item.kind == "jobs" for item in store.quarantined())


# -------------------------------------------------- crash recovery, for real
def test_worker_killed_mid_claim_then_lease_break_recovers(tmp_path):
    """The headline satellite: a real worker subprocess dies (``os._exit``,
    the SIGKILL shape) right after winning a claim; a second worker breaks
    the expired lease, recomputes, and the store's results are bit-identical
    to a fault-free run."""
    store = ResultsStore(root=tmp_path / "chaos", claim_ttl=0.5)
    scenarios = [replace(get_scenario(name), num_instructions=SMALL)
                 for name in ("base", "gals5")]
    for item in scenarios:
        worker.enqueue_job(store, item)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(FaultPlan(seed=7, rules=(
        FaultRule(site="worker.claimed", action="exit", hits=(0,),
                  role="worker"),)).to_json())
    env = _worker_environment()
    env[FAULT_PLAN_ENV_VAR] = str(plan_path)  # ONLY the subprocess gets it
    env[CLAIM_TTL_ENV_VAR] = "0.5"
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.exec.worker", "--store",
         str(store.root), "--exit-when-idle", "--poll-interval", "0.02"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert victim.wait(timeout=120) == faults.EXIT_STATUS
    # the victim died holding its first claim; nothing was published
    assert len(store.list_claims()) == 1
    assert store.get(scenarios[0]) is None and store.get(scenarios[1]) is None
    # the second worker busy-waits on the lease, breaks it once expired,
    # and drains the whole queue
    assert worker.drain(store, poll_interval=0.02, exit_when_idle=True) == 2
    assert store.list_claims() == []
    assert worker.pending_jobs(store) == []
    # resume_sweep now serves everything from the store, bit-identical to a
    # clean store that never saw a fault
    recovered = resume_sweep(scenarios, store=store, execution="serial")
    assert all(run.cached for run in recovered)
    clean = resume_sweep(scenarios, store=ResultsStore(root=tmp_path / "ok"),
                         execution="serial")
    assert ([run.outcome.to_json() for run in recovered]
            == [run.outcome.to_json() for run in clean])


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
def test_cache_verify_claims_quarantine_cli(tmp_path, scenario, capsys):
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
    store.try_claim(store.key_for(scenario), owner="cli-test")
    assert cli_main(["cache", "claims", "--cache-dir", str(root)]) == 0
    out = capsys.readouterr().out
    assert "cli-test" in out and "live" in out
