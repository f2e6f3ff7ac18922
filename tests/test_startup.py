"""Start-up: each subcommand imports only the layers it runs.

``cli.py`` keeps only standard-library imports at module level and the
package ``__init__``s resolve their re-exports lazily (PEP 562), so the
import budget of a command is what its handler uses.  The budget tests run
each command, and a results service answering hits, in a fresh
interpreter and inspect ``sys.modules``; the API tests check that the lazy
re-exports behave like the eager ones did.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from dataclasses import replace
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
                 "repro.exec", "repro.serve")

#: What a results service answering hits must never load: the process pool
#: (a miss sweep starts it), the HTTP client stack (``repro query``) and the
#: experiment drivers (``/compare``).
SERVE_FORBIDDEN = ("concurrent.futures.process", "multiprocessing",
                   "urllib.request", "ssl", "email", "http.client",
                   "repro.core.experiments", "repro.serve.client")

#: Imports what a service process imports, starts a ``ResultsService`` over
#: the store at ``argv[2]``, sends one ``/health`` and three hits on the
#: ``/scenario`` target ``argv[3]`` over a bare socket, then runs a sweep
#: on the local pool; records the loaded module names after each stage and
#: every reply's status into the JSON file named by ``argv[1]``.
SERVE_PROBE = """
import json, socket, sys
from repro.exec import ExecutionConfig
from repro.results import ResultsStore, resume_sweep
from repro.serve.service import ResultsService

out, root, target = sys.argv[1:]
stages = {"imported": sorted(sys.modules)}

def get(port, target):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(f"GET {target} HTTP/1.0\\r\\n\\r\\n".encode())
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    return int(reply.split(b" ", 2)[1])

service = ResultsService(store=ResultsStore(root=root), port=0,
                         execution=ExecutionConfig(backend="local", jobs=2))
service.start()
try:
    stages["codes"] = [get(service.port, "/health")]
    stages["health"] = sorted(sys.modules)
    stages["codes"] += [get(service.port, target) for _ in range(3)]
    stages["hits"] = sorted(sys.modules)
finally:
    service.stop()
resume_sweep(["base", "gals5"], store=None, num_instructions=150,
             execution=ExecutionConfig(backend="local", jobs=2))
stages["pool"] = sorted(sys.modules)
with open(out, "w") as handle:
    json.dump(stages, handle)
"""


def run_probe(probe, out, *argv):
    """Run ``probe`` in a fresh interpreter; return the JSON it wrote to
    ``out``."""
    env = dict(os.environ)
    package_parent = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", probe, str(out), *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    return json.loads(out.read_text())


def loaded_modules(tmp_path, *argv):
    """Module names loaded by a fresh ``python -m repro *argv``."""
    report = run_probe(PROBE, tmp_path / "modules.json", *argv)
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


@pytest.fixture(scope="module")
def serve_stages(tmp_path_factory):
    """The :data:`SERVE_PROBE` report, over a store holding one result."""
    from repro.core.scenario import get_scenario
    from repro.results import ResultsStore, resume_sweep
    from repro.serve.client import scenario_query_url

    tmp = tmp_path_factory.mktemp("serve-probe")
    scenario = replace(get_scenario("gals5"), num_instructions=150)
    resume_sweep([scenario], store=ResultsStore(root=tmp / "cache"),
                 execution="serial")
    target = scenario_query_url("", scenario)
    stages = run_probe(SERVE_PROBE, tmp / "stages.json", str(tmp / "cache"),
                       target)
    return {name: set(value) if name != "codes" else value
            for name, value in stages.items()}


def test_service_imports_skip_pool_client_and_drivers(serve_stages):
    imported = serve_stages["imported"]
    assert "repro.serve.service" in imported
    assert sorted(set(SERVE_FORBIDDEN) & imported) == []


def test_scenario_hits_load_nothing_new(serve_stages):
    assert serve_stages["codes"] == [200, 200, 200, 200]
    # the snapshot follows /health, so the client's own first-connection
    # imports are already counted; a hit must import nothing at all
    assert sorted(serve_stages["hits"] - serve_stages["health"]) == []
    assert sorted(set(SERVE_FORBIDDEN) & serve_stages["hits"]) == []


def test_local_pool_sweep_still_loads_the_pool(serve_stages):
    assert "concurrent.futures.process" in serve_stages["pool"]


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
