"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.scenario import ScenarioResult, run_scenario

SMALL = 200


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- list
def test_list_everything(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "topologies:" in out
    assert "DVFS policies:" in out
    assert "workloads:" in out
    assert "scenarios:" in out
    assert "gals5" in out and "frontback2" in out
    assert "kernel:dot_product" in out


def test_list_single_section(capsys):
    code, out, _ = run_cli(capsys, "list", "topologies")
    assert code == 0
    assert "gals5" in out
    assert "DVFS policies:" not in out


def test_topology_describe(capsys):
    code, out, _ = run_cli(capsys, "topology", "fem3")
    assert code == 0
    assert "3 clock domain(s)" in out
    assert "mixed-clock FIFOs" in out


def test_show_scenario_is_valid_json(capsys):
    code, out, _ = run_cli(capsys, "show", "gals5-perl-fp3")
    assert code == 0
    payload = json.loads(out)
    assert payload["topology"] == "gals5"
    assert payload["policy"] == "perl-fp3"


# ------------------------------------------------------------------------ run
def test_run_scenario_prints_summary(capsys):
    code, out, _ = run_cli(capsys, "run", "frontback2",
                           "--instructions", str(SMALL))
    assert code == 0
    assert "frontback2" in out
    assert "instructions in" in out


def test_run_with_controller_prints_trace(capsys):
    code, out, _ = run_cli(capsys, "run", "gals5", "--controller", "occupancy",
                           "--instructions", str(SMALL))
    assert code == 0
    assert "per-epoch DVFS trace" in out


def test_run_switching_controller_drops_stale_args(capsys):
    # gals5-perl-pid stores pid constructor args; switching the controller
    # type on the command line must not feed them to the new constructor
    code, out, _ = run_cli(capsys, "run", "gals5-perl-pid",
                           "--controller", "occupancy",
                           "--instructions", str(SMALL))
    assert code == 0
    assert "controller=occupancy" in out


def test_list_controllers(capsys):
    code, out, _ = run_cli(capsys, "list", "controllers")
    assert code == 0
    for name in ("static", "interval", "occupancy", "pid"):
        assert name in out


def test_cli_list_backends(capsys):
    code, out, _ = run_cli(capsys, "list", "backends")
    assert code == 0
    for name in ("serial", "local"):
        assert name in out
    assert "job backends" in out
    assert "engine kernel" not in out and "compiled" not in out


def test_cli_sweep_rejects_the_removed_subprocess_backend(capsys):
    code, _, err = run_cli(capsys, "sweep", "base", "--instructions",
                           str(SMALL), "--job-backend", "subprocess")
    assert code == 2
    assert "unknown job backend" in err


def test_run_with_overrides_and_json_dump(tmp_path, capsys):
    dump = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "run", "gals5", "--workload", "gcc",
        "--instructions", str(SMALL), "--slowdown", "fp=2.0",
        "--config", "rob_entries=48", "--json", str(dump), "--quiet")
    assert code == 0
    reloaded = ScenarioResult.from_json(dump.read_text())
    assert reloaded.scenario.workload == "gcc"
    assert reloaded.scenario.slowdowns == {"fp": 2.0}
    assert reloaded.scenario.config == {"rob_entries": 48}
    # CLI result is bit-identical to the library running the same scenario
    direct = run_scenario(reloaded.scenario)
    assert direct.result == reloaded.result


def test_run_unknown_scenario_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-scenario")
    assert code == 2
    assert "unknown scenario" in err


def test_run_bad_override_fails_cleanly():
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["run", "gals5", "--slowdown", "nonsense"])


def test_run_non_numeric_override_value_fails_cleanly(capsys):
    """A bad value must produce a clean error exit, not a raw traceback."""
    code, _, err = run_cli(capsys, "run", "gals5", "--slowdown", "fetch=abc")
    assert code == 2
    assert "slowdown for domain 'fetch' must be a positive number" in err


def test_run_unknown_config_field_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "run", "gals5", "--config", "rob_size=64")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("assignment, message", [
    ("memory=1", "'memory.<field>'"),
    ("technology.no_such_field=1", "no_such_field"),
], ids=["whole-nested-object", "unknown-nested-field"])
def test_run_bad_nested_config_fails_cleanly(capsys, assignment, message):
    code, _, err = run_cli(capsys, "run", "gals5", "--config", assignment,
                           "--instructions", str(SMALL))
    assert code == 2
    assert err.startswith("error:") and message in err


# ---------------------------------------------------------------------- sweep
def test_sweep_prints_table_and_writes_json(tmp_path, capsys):
    dump = tmp_path / "sweep.json"
    code, out, _ = run_cli(
        capsys, "sweep", "base", "gals5", "--jobs", "1",
        "--instructions", str(SMALL), "--json", str(dump))
    assert code == 0
    assert "scenario" in out and "IPC" in out
    rows = json.loads(dump.read_text())
    assert [row["scenario"]["name"] for row in rows] == ["base", "gals5"]
    assert all(row["result"]["committed_instructions"] == SMALL
               for row in rows)


def test_sweep_without_scenarios_errors(capsys):
    with pytest.raises(SystemExit):
        main(["sweep"])


# --------------------------------------------------------------------- report
def test_report_baseline_renders_tables(capsys):
    code, out, _ = run_cli(
        capsys, "report", "baseline", "--benchmarks", "perl",
        "--instructions", str(SMALL), "--jobs", "1")
    assert code == 0
    assert "Figure 5" in out
    assert "relative performance" in out
    assert "perl" in out


def test_report_dvfs_renders_table(capsys):
    code, out, _ = run_cli(
        capsys, "report", "dvfs", "--benchmark", "perl",
        "--policies", "perl-fp3", "--instructions", str(SMALL),
        "--jobs", "1")
    assert code == 0
    assert "perl/perl-fp3" in out


@pytest.mark.parametrize("argv", [
    ("sweep", "base"),
    ("report", "baseline", "--benchmarks", "perl"),
    ("report", "dvfs", "--benchmark", "perl", "--policies", "perl-fp3"),
], ids=["sweep", "report-baseline", "report-dvfs"])
def test_jobs_zero_is_refused_by_every_fan_out(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--instructions", str(SMALL),
                           "--jobs", "0")
    assert code == 2
    assert err == "error: jobs must be at least 1\n"


# ---------------------------------------------------------------- results cache
def test_run_with_cache_reports_hit_on_second_run(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "run", "fem3", "--instructions", str(SMALL),
                           "--cache", "--cache-dir", cache)
    assert code == 0
    assert "computed in" in out and "cached" in out
    code, out, _ = run_cli(capsys, "run", "fem3", "--instructions", str(SMALL),
                           "--cache", "--cache-dir", cache)
    assert code == 0
    assert "served from cache" in out
    # cached and fresh CLI runs print identical summaries
    _, fresh_out, _ = run_cli(capsys, "run", "fem3",
                              "--instructions", str(SMALL))
    assert out.split("served from cache")[1].splitlines()[1:] \
        == fresh_out.splitlines()[1:]


def test_sweep_prints_status_and_hit_rate(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "sweep", "base", "gals5", "--jobs", "1",
                           "--instructions", str(SMALL),
                           "--cache", "--cache-dir", cache)
    assert code == 0
    assert "computed" in out
    assert "cache: 0/2 hits (0%)" in out
    code, out, _ = run_cli(capsys, "sweep", "base", "gals5", "--jobs", "1",
                           "--instructions", str(SMALL),
                           "--cache", "--cache-dir", cache)
    assert code == 0
    assert "cache: 2/2 hits (100%)" in out
    assert out.count("cached") >= 2


def test_sweep_without_cache_still_prints_per_scenario_status(capsys):
    code, out, _ = run_cli(capsys, "sweep", "base", "--jobs", "1",
                           "--instructions", str(SMALL))
    assert code == 0
    assert "computed" in out
    assert "swept 1 scenario(s)" in out
    assert "hits" not in out  # no store involved, no hit-rate line


def test_cache_ls_gc_clear(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache)
    assert code == 0 and "(empty)" in out
    run_cli(capsys, "run", "base", "--instructions", str(SMALL),
            "--cache", "--cache-dir", cache, "--quiet")
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache)
    assert code == 0
    assert "base" in out and "1 entry" in out and "ok" in out
    code, out, _ = run_cli(capsys, "cache", "gc", "--cache-dir", cache)
    assert code == 0 and "kept 1" in out
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", cache)
    assert code == 0 and "removed 1 entry" in out
    code, out, _ = run_cli(capsys, "cache", "ls", "--cache-dir", cache)
    assert "(empty)" in out


def test_report_compare_renders_and_writes_json(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    dump = tmp_path / "compare.json"
    code, out, _ = run_cli(
        capsys, "report", "compare", "--topologies", "base", "gals5",
        "--instructions", str(SMALL), "--jobs", "1",
        "--cache-dir", cache, "--json", str(dump))
    assert code == 0
    assert "design-space compare" in out
    assert "rel ED2" in out
    payload = json.loads(dump.read_text())
    assert payload["instructions"] == SMALL
    assert {record["topology"] for record in payload["records"]} \
        == {"base", "gals5"}
    base_row = [r for r in payload["records"] if r["topology"] == "base"][0]
    assert base_row["rel_performance"] == 1.0
    # second invocation is served from the cache
    code, out, _ = run_cli(
        capsys, "report", "compare", "--topologies", "base", "gals5",
        "--instructions", str(SMALL), "--jobs", "1", "--cache-dir", cache)
    assert code == 0
    assert "2 from cache" in out


def test_report_compare_no_cache_bypasses_store(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "report", "compare", "--topologies", "base",
        "--instructions", str(SMALL), "--jobs", "1", "--no-cache",
        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert "0 from cache" in out
    assert not (tmp_path / "cache").exists()
