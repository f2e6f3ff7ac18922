"""Start-up: each subcommand imports only the layers it runs.

``cli.py`` keeps only standard-library imports at module level and the
package ``__init__``s resolve their re-exports lazily (PEP 562), so the
import budget of a command is what its handler uses.  The budget tests run
each command in a fresh interpreter and inspect ``sys.modules``; the API
tests check that the lazy re-exports behave like the eager ones did.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Runs ``python -m repro ARGS...`` in-process, then records the exit code
#: and every loaded module name into the JSON file named by ``argv[1]``.
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["repro", *sys.argv[2:]]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

#: What ``repro run`` without ``--cache`` must never load: the sweep fabric,
#: the results store, the report renderers, the experiment drivers and the
#: service.
RUN_FORBIDDEN = ("concurrent.futures.process", "multiprocessing",
                 "repro.exec.backends", "repro.results.store",
                 "repro.analysis", "repro.core.experiments", "repro.serve")

LAZY_PACKAGES = ("repro", "repro.core", "repro.workloads", "repro.results",
                 "repro.exec")


def loaded_modules(tmp_path, *argv):
    """Module names loaded by a fresh ``python -m repro *argv``."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", PROBE, str(out), *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    report = json.loads(out.read_text())
    assert report["code"] == 0
    return set(report["modules"])


# --------------------------------------------------------------- import budget
@pytest.mark.parametrize("argv", [["--help"], ["query", "--help"]],
                         ids=["help", "query-help"])
def test_help_does_not_import_the_simulator(tmp_path, argv):
    assert "repro.core.processor" not in loaded_modules(tmp_path, *argv)


def test_uncached_run_skips_fabric_store_and_reports(tmp_path):
    dump = tmp_path / "result.json"
    modules = loaded_modules(tmp_path, "run", "gals5", "--instructions",
                             "200", "--json", str(dump))
    assert json.loads(dump.read_text())["scenario"]["name"] == "gals5"
    assert "repro.core.processor" in modules  # the probe saw the run
    assert sorted(set(RUN_FORBIDDEN) & modules) == []


# ------------------------------------------------------------ lazy public API
def _leaf_modules():
    """Every non-package module of :mod:`repro`, imported."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.ispkg]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_definitions(name):
    package = importlib.import_module(name)
    leaves = _leaf_modules()
    for export in package.__all__:
        if export == "__version__":
            continue
        value = getattr(package, export)
        if hasattr(value, "__qualname__"):  # a class or function
            home = sys.modules[value.__module__]
            assert getattr(home, value.__qualname__) is value
        else:
            assert any(vars(leaf).get(export) is value for leaf in leaves), \
                f"{name}.{export} is not defined by any submodule"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_packages_behave_like_eager_ones(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")


def test_documented_top_level_imports():
    from repro import run_pair, run_scenario
    from repro.core.experiments import run_pair as defined_pair
    from repro.core.scenario import run_scenario as defined_scenario
    assert run_pair is defined_pair
    assert run_scenario is defined_scenario
