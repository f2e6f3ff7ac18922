"""Tests for the persistent results store (:mod:`repro.results`).

Covers the cache-key semantics the store's correctness rests on (hits only
for identical simulation inputs under an identical simulator), bit-identity
of cached vs freshly computed results, resumable sweeps, and store
maintenance (ls/gc/clear/verify).
"""

import json
import time
from dataclasses import astuple, is_dataclass, replace

import pytest

from repro.core.scenario import get_scenario, run_scenario, sweep_scenarios
from repro.exec import resolve_execution
from repro.results import (ResultsStore, cache_key, canonical_scenario_dict,
                           code_fingerprint, resolve_store, resume_sweep,
                           run_cached, source_tree_digest)
from repro.results.store import CACHE_DIR_ENV_VAR, default_cache_dir

SMALL = 200

#: Six registered scenarios for the resumable-sweep acceptance test.
SWEEP_SCENARIOS = ["base", "gals5", "frontback2", "fem3", "alu4", "memsplit2"]


@pytest.fixture
def store(tmp_path):
    return ResultsStore(root=tmp_path / "cache")


@pytest.fixture
def scenario():
    return replace(get_scenario("gals5"), num_instructions=SMALL)


# ------------------------------------------------------------------ fingerprint
def test_code_fingerprint_is_versioned_and_stable():
    from repro import __version__
    fingerprint = code_fingerprint()
    assert fingerprint.startswith(f"{__version__}:")
    assert fingerprint == code_fingerprint()


def test_source_tree_digest_tracks_simulation_sources(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "a.py").write_text("x = 1\n")
    before = source_tree_digest(tmp_path)
    assert before == source_tree_digest(tmp_path)
    (tmp_path / "core" / "a.py").write_text("x = 2\n")
    assert source_tree_digest(tmp_path) != before
    # files outside the simulation packages do not participate
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis" / "b.py").write_text("y = 1\n")
    (tmp_path / "core" / "a.py").write_text("x = 1\n")
    assert source_tree_digest(tmp_path) == before


# ------------------------------------------------------------- key semantics
def test_key_hits_on_identical_scenario(scenario):
    assert cache_key(scenario) == cache_key(replace(scenario))


def test_key_ignores_pure_metadata(scenario):
    renamed = replace(scenario, name="other-name", description="different")
    assert cache_key(renamed) == cache_key(scenario)
    assert "name" not in canonical_scenario_dict(scenario)
    assert "description" not in canonical_scenario_dict(scenario)


@pytest.mark.parametrize("change", [
    {"config": {"rob_entries": 48}},
    {"seed": 2},
    {"phase_seed": 7},
    {"topology": "base"},
    {"workload": "gcc"},
    {"policy": "generic"},
    {"num_instructions": SMALL + 1},
    {"slowdowns": {"fp": 2.0}},
    {"base_period": 2.0},
    {"scale_voltages": False},
])
def test_key_misses_on_simulation_relevant_change(scenario, change):
    assert cache_key(replace(scenario, **change)) != cache_key(scenario)


@pytest.mark.parametrize("name, digest", [
    ("base",
     "ee6dc1ac6193cd7a7db39dd5f47eab29058ff36bbb568f072c66be97e7ec193c"),
    ("gals5-perl-fp3",
     "71fbf639dc07b72fcf48b5d792b9a828fef327309d6a836eba5a3f1d066a9a4e"),
    ("gals5-perl-pid",
     "5b17a2232b4133aac5fa650166223fb0978dbfea1ca0efb4d690de7cfbc1138a"),
])
def test_key_digests_are_pinned(name, digest):
    """Literal keys: a serialization change must not re-key every store."""
    assert cache_key(get_scenario(name), "0" * 64) == digest


def test_key_misses_on_code_fingerprint_change(scenario):
    assert (cache_key(scenario, "2.0.0:aaaaaaaaaaaaaaaa")
            != cache_key(scenario, "2.0.0:bbbbbbbbbbbbbbbb"))


def test_store_misses_across_fingerprints(tmp_path, scenario):
    old = ResultsStore(root=tmp_path, fingerprint="old:0000000000000000")
    new = ResultsStore(root=tmp_path, fingerprint="new:1111111111111111")
    old.put(run_scenario(scenario))
    assert old.get(scenario) is not None
    assert new.get(scenario) is None  # same store root, new simulator
    assert new.misses == 1


# ------------------------------------------------------------- bit-identity
def test_cached_result_is_bit_identical_to_fresh(store, scenario):
    fresh = run_scenario(scenario, store=store)     # miss: compute + put
    cached = run_scenario(scenario, store=store)    # hit: load from disk
    direct = run_scenario(scenario)                 # no cache involved
    assert store.hits == 1 and store.misses == 1
    assert cached.result == fresh.result == direct.result
    assert cached.to_json() == direct.to_json()
    assert cached.scenario == scenario


def test_cached_result_survives_json_reload_exactly(store):
    # a policy run exercises voltage/energy floats and per-domain dicts
    scenario = replace(get_scenario("gals5-perl-fp3"), num_instructions=SMALL)
    fresh = run_cached(scenario, store=store)
    assert not fresh.cached
    warm = run_cached(scenario, store=store)
    assert warm.cached
    assert warm.outcome.result == fresh.outcome.result
    assert (warm.outcome.result.energy.by_block
            == fresh.outcome.result.energy.by_block)


# ---------------------------------------------------------- resumable sweeps
def test_interrupted_sweep_resumes_only_missing(store):
    names = SWEEP_SCENARIOS[:4]
    # "interrupted" sweep: only the first two scenarios completed
    resume_sweep(names[:2], store=store, jobs=1, num_instructions=SMALL)
    store.hits = store.misses = 0
    runs = resume_sweep(names, store=store, jobs=1, num_instructions=SMALL)
    assert [run.outcome.scenario.name for run in runs] == names
    assert [run.cached for run in runs] == [True, True, False, False]
    assert store.hits == 2 and store.misses == 2


def test_repeated_sweep_is_fully_cached_and_faster(store):
    """Acceptance: a warm 6-scenario sweep is all hits, >=5x faster, and
    bit-identical to the uncached pool path."""
    start = time.perf_counter()
    cold = sweep_scenarios(SWEEP_SCENARIOS, jobs=1, store=store,
                           num_instructions=SMALL)
    cold_seconds = time.perf_counter() - start

    store.hits = store.misses = 0
    start = time.perf_counter()
    warm = sweep_scenarios(SWEEP_SCENARIOS, jobs=1, store=store,
                           num_instructions=SMALL)
    warm_seconds = time.perf_counter() - start

    assert store.hits == len(SWEEP_SCENARIOS) and store.misses == 0
    uncached = sweep_scenarios(SWEEP_SCENARIOS, jobs=1,
                               num_instructions=SMALL)
    assert ([item.result for item in warm]
            == [item.result for item in cold]
            == [item.result for item in uncached])
    assert warm_seconds < cold_seconds / 5, (
        f"warm sweep took {warm_seconds:.3f}s vs cold {cold_seconds:.3f}s")


def test_sweep_and_run_cached_hash_each_scenario_once(store, monkeypatch):
    """One ``key_for`` per cell, cold and warm: the probe's key is the one
    a hit reports and a computed result is stored under."""
    calls = []
    key_for = ResultsStore.key_for

    def counted(self, scenario):
        calls.append(scenario.name)
        return key_for(self, scenario)
    monkeypatch.setattr(ResultsStore, "key_for", counted)
    names = ["base", "gals5"]
    for status in ("computed", "cached"):
        calls.clear()
        runs = resume_sweep(names, store=store, execution="serial",
                            num_instructions=SMALL)
        assert [run.status for run in runs] == [status, status]
        assert calls == names
        assert [run.key for run in runs] == [
            key_for(store, run.outcome.scenario) for run in runs]
    for status in ("computed", "cached"):
        calls.clear()
        run = run_cached("fem3", store=store, num_instructions=SMALL)
        assert (run.status, calls) == (status, ["fem3"])


def test_put_by_key_writes_the_bytes_put_writes(tmp_path, scenario,
                                                monkeypatch):
    monkeypatch.setattr(time, "strftime", lambda *_: "2026-01-01T00:00:00")
    outcome = run_scenario(scenario)
    by_put, by_key = (ResultsStore(root=tmp_path / name)
                      for name in ("put", "put_by_key"))
    key = by_put.put(outcome, wall_seconds=1.5)
    assert by_key.put_by_key(key, outcome, wall_seconds=1.5) == key
    assert (by_key.entry_path(key).read_bytes()
            == by_put.entry_path(key).read_bytes())


def test_sweep_statuses_and_hit_rate(store):
    from repro.results import hit_rate
    resume_sweep(["base"], store=store, jobs=1, num_instructions=SMALL)
    runs = resume_sweep(["base", "gals5"], store=store, jobs=1,
                        num_instructions=SMALL)
    assert [run.status for run in runs] == ["cached", "computed"]
    assert hit_rate(runs) == 0.5
    assert all(run.key for run in runs)


# ------------------------------------------------------------- maintenance
def test_entries_gc_clear(tmp_path, scenario):
    store = ResultsStore(root=tmp_path)
    stale = ResultsStore(root=tmp_path, fingerprint="stale:123456789abcdef0")
    store.put(run_scenario(scenario))
    stale.put(run_scenario(replace(scenario, seed=3)))

    entries = store.entries()
    assert len(entries) == 2
    assert {entry.stale for entry in entries} == {True, False}
    assert {entry.scenario_name for entry in entries} == {"gals5"}

    stats = store.gc()
    assert stats.removed == 1 and stats.kept == 1 and stats.bytes_freed > 0
    assert store.get(scenario) is not None

    assert store.clear() == 1
    assert store.entries() == []


def test_gc_and_entries_read_only_the_header_line(store, scenario):
    key = store.put(run_scenario(scenario))
    path = store.entry_path(key)
    header_line = path.read_bytes().split(b"\n", 1)[0]
    path.write_bytes(header_line + b"\n{torn")   # body gone, header intact
    assert [entry.key for entry in store.entries()] == [key]
    assert store.gc().kept == 1
    # another store format and an unparsable file are both dropped
    older = json.loads(header_line)
    older["format"] = 2
    other = store.entry_path("ab" * 32)
    other.parent.mkdir(parents=True, exist_ok=True)
    other.write_text(json.dumps(older) + "\n")
    junk = store.entry_path("cd" * 32)
    junk.parent.mkdir(parents=True, exist_ok=True)
    junk.write_text("{not json")
    stats = store.gc()
    assert (stats.removed, stats.kept) == (2, 1)
    assert not other.exists() and not junk.exists() and path.exists()


@pytest.mark.parametrize("action, expected", [
    ("gc", (0, 1, 0)),        # removed, kept, bytes_freed
    ("clear", 1),             # removed
    ("verify", (1, 1, 0)),    # checked, ok, quarantined
])
def test_maintenance_skips_an_entry_that_vanishes_mid_scan(
        store, scenario, monkeypatch, action, expected):
    """Another process sharing the store may delete an entry between the
    scan's glob and its read: gc, clear and verify skip that entry instead
    of raising or reporting it as corrupt."""
    key = store.put(run_scenario(scenario))
    vanished = store.entry_path("ab" * 32)
    vanished.parent.mkdir(parents=True, exist_ok=True)
    vanished.write_bytes(store.entry_path(key).read_bytes())
    vanished.unlink()
    monkeypatch.setattr(store, "_entry_files",
                        lambda: iter([vanished, store.entry_path(key)]))
    outcome = getattr(store, action)()
    assert (astuple(outcome) if is_dataclass(outcome) else outcome) \
        == expected
    assert store.quarantine_count() == 0


def test_corrupt_entry_is_a_miss_and_recomputed(store, scenario):
    run_scenario(scenario, store=store)
    path = store.entry_path(store.key_for(scenario))
    path.write_text("{not json")
    outcome = run_scenario(scenario, store=store)   # recomputes, rewrites
    assert outcome.result == run_scenario(scenario).result
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["key"] == store.key_for(scenario)


def test_default_cache_dir_honours_environment(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    assert ResultsStore().root == tmp_path / "elsewhere"
    monkeypatch.delenv(CACHE_DIR_ENV_VAR)
    assert default_cache_dir().name == "repro"


def test_resolve_store_forms(tmp_path):
    assert resolve_store(None) is None
    assert resolve_store(False) is None
    store = ResultsStore(root=tmp_path)
    assert resolve_store(store) is store
    assert resolve_store(tmp_path).root == tmp_path
    assert resolve_store(str(tmp_path)).root == tmp_path


def test_atomic_put_leaves_no_temp_files(store, scenario):
    store.put(run_scenario(scenario))
    leftovers = [p for p in store.results_dir.rglob("*")
                 if p.is_file() and p.suffix != ".json"]
    assert leftovers == []


# --------------------------------------------- registry-definition sensitivity
def test_key_tracks_reregistered_topology_definition(monkeypatch):
    from repro.core.domains import BLOCKS, TOPOLOGIES, Topology
    one_domain = Topology(name="custom", description="v1",
                          assignment={block: "main" for block in BLOCKS})
    monkeypatch.setitem(TOPOLOGIES, "custom", one_domain)
    scenario = replace(get_scenario("base"), topology="custom",
                       num_instructions=SMALL)
    key_v1 = cache_key(scenario)
    changed = Topology(name="custom", description="v2",
                       assignment={block: block for block in BLOCKS})
    monkeypatch.setitem(TOPOLOGIES, "custom", changed)
    assert cache_key(scenario) != key_v1


def test_key_tracks_reregistered_policy_definition(monkeypatch):
    from repro.core.dvfs import POLICIES, SlowdownPolicy
    monkeypatch.setitem(POLICIES, "custom-policy",
                        SlowdownPolicy("custom-policy", "v1", {"fp": 2.0}))
    scenario = replace(get_scenario("gals5"), policy="custom-policy",
                       num_instructions=SMALL)
    key_v1 = cache_key(scenario)
    monkeypatch.setitem(POLICIES, "custom-policy",
                        SlowdownPolicy("custom-policy", "v2", {"fp": 3.0}))
    assert cache_key(scenario) != key_v1


def test_interrupted_sweep_persists_completed_runs(store):
    """Results are stored as they complete: a sweep aborted mid-way keeps
    every finished scenario (the actual resumability contract)."""
    good = replace(get_scenario("base"), num_instructions=SMALL)
    bad = replace(get_scenario("gals5"), workload="no-such-workload",
                  num_instructions=SMALL)
    with pytest.raises(KeyError):
        resume_sweep([good, bad], store=store, jobs=1)
    # the completed run survived the abort and is a hit on the retry
    assert store.get(good) is not None
    runs = resume_sweep([good], store=store, jobs=1)
    assert runs[0].cached


# --------------------------------------------------------- concurrent writers
def test_racing_puts_on_same_key_produce_identical_bytes(tmp_path, scenario,
                                                         monkeypatch):
    """Two writers racing put() on one key: both succeed, bytes identical.

    The entry timestamp is frozen so both writers serialize the exact same
    payload -- the store's atomic temp-file + os.replace publish then means
    the race can only ever swap identical files, never tear one.
    """
    import threading

    monkeypatch.setattr(time, "strftime",
                        lambda fmt, *args: "2026-01-01T00:00:00")
    outcome = run_scenario(scenario)
    writers = [ResultsStore(root=tmp_path / "cache") for _ in range(2)]
    barrier = threading.Barrier(len(writers))
    keys = []

    def racer(writer):
        barrier.wait()
        for _ in range(20):
            keys.append(writer.put(outcome, wall_seconds=1.5))

    threads = [threading.Thread(target=racer, args=(writer,))
               for writer in writers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(set(keys)) == 1
    # the published entry is whole and serves the result bit-identically
    reader = ResultsStore(root=tmp_path / "cache")
    loaded = reader.get(scenario)
    assert loaded is not None
    assert loaded.to_json() == outcome.to_json()
    header = json.loads(reader.entry_path(keys[0]).read_bytes()
                        .split(b"\n", 1)[0])
    assert header["key"] == keys[0]


def test_reads_never_tear_under_a_concurrent_writer(tmp_path, scenario):
    """A reader polling during repeated put() sees a hit or a miss -- never
    a torn/partial entry (atomic publish)."""
    import threading

    outcome = run_scenario(scenario)
    writer = ResultsStore(root=tmp_path / "cache")
    reader = ResultsStore(root=tmp_path / "cache")
    stop = threading.Event()
    published = threading.Event()

    def keep_writing():
        while not stop.is_set():
            writer.put(outcome, wall_seconds=0.5)
            published.set()

    thread = threading.Thread(target=keep_writing)
    thread.start()
    try:
        # poll only once the first entry is published: otherwise a fast
        # reader can finish all its misses before the writer ever runs
        assert published.wait(timeout=60)
        hits = 0
        for _ in range(200):
            loaded = reader.get(scenario)
            if loaded is not None:
                hits += 1
                assert loaded.to_json() == outcome.to_json()
    finally:
        stop.set()
        thread.join()
    assert hits > 0


# ------------------------------------------------- removed "cache" keyword
def _run_design_space(**keywords):
    from repro.core.experiments import run_design_space
    return run_design_space(topologies=["base"], workloads=["perl"],
                            num_instructions=SMALL, jobs=1, **keywords)


@pytest.mark.parametrize("entry_point", [
    lambda scenario, **old: run_scenario(scenario, **old),
    lambda scenario, **old: sweep_scenarios([scenario], jobs=1, **old),
    lambda scenario, **old: _run_design_space(**old),
    lambda scenario, **old: run_cached(scenario, **old),
    lambda scenario, **old: resume_sweep([scenario], jobs=1, **old),
    lambda scenario, **old: resolve_store(**old),
    lambda scenario, **old: resolve_execution(**old),
], ids=["run_scenario", "sweep_scenarios", "run_design_space", "run_cached",
        "resume_sweep", "resolve_store", "resolve_execution"])
def test_cache_keyword_is_rejected(entry_point, store, scenario):
    # the old alias of store= is gone: a leftover caller fails loudly
    # instead of silently running uncached (or against the default store)
    with pytest.raises(TypeError, match="'cache'"):
        entry_point(scenario, **{"cache": store})
    assert list(store.entries()) == []
