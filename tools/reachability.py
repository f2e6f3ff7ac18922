#!/usr/bin/env python3
"""Which ``src/repro`` functions does no run, command or request call?

A profile hook (``sys.setprofile`` plus ``threading.setprofile``) records
every code object entered while a driver exercises the program the way a
user does:

* ``repro list``, ``topology`` and ``show`` (of a phased scenario too);
* ``repro run`` of every registered scenario, into a results store, and
  one run with ``--slowdown`` and ``--config`` overrides;
* ``repro sweep``, serially and on the local process pool (pool workers are
  forked with the hook installed and report what they called on exit);
* ``repro cache ls``, ``verify``, ``gc``, ``quarantine`` and ``clear``;
* ``repro report baseline``, ``dvfs`` and ``compare`` (with controllers);
* a :class:`~repro.serve.service.ResultsService` answering ``/scenario``
  (a miss, then a hit) through ``repro query``, a ``/scenario`` query by
  name with a field override, ``/compare`` and ``/health`` through the
  library client, and an unknown endpoint;
* ``repro profile``, last, because cProfile replaces the hook.

Every function defined under ``src/repro`` (found with :mod:`ast`) that was
never entered is printed with its line count.  Functions that are kept
although the driver does not reach them are listed, one per line with the
reason they stay, in ``tools/reachability_allowlist.txt``.

Usage::

    python tools/reachability.py           # list every unreached function
    python tools/reachability.py --check   # fail on an unreached function
                                           # not on the allowlist, and on a
                                           # stale allowlist entry

Stdlib only; the probe takes a few seconds.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "reachability_allowlist.txt"

#: Short runs keep the probe fast; reachability does not depend on length.
INSTRUCTIONS = "300"

#: Every code object entered, filled by the hook.
_SEEN_CODE: Set = set()

#: Where forked pool workers write what they entered (set before the driver
#: runs; forked workers inherit it).
_CHILD_DUMPS = Path()


# ------------------------------------------------------------- definitions
def defined_functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """Every function under ``src/repro``.

    Maps ``(absolute file, first line)`` -- the first decorator's line for a
    decorated function, as in ``code.co_firstlineno`` -- to the function's
    id ``<path under src>::<Qualified.name>`` and its line count.
    """
    found: Dict[Tuple[str, int], Tuple[str, int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    found[(str(path), first)] = (
                        f"{relative}::{qualname}",
                        child.end_lineno - child.lineno + 1)
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


# -------------------------------------------------------------------- hook
def _hook(frame, event, arg) -> None:
    _SEEN_CODE.add(frame.f_code)


def _dump_child() -> None:
    """Write what a forked pool worker entered (runs at worker exit)."""
    sys.setprofile(None)
    seen = [[code.co_filename, code.co_firstlineno] for code in _SEEN_CODE]
    (_CHILD_DUMPS / f"{os.getpid()}.json").write_text(json.dumps(seen))


def _on_worker_start(_dump) -> None:
    # a worker process clears inherited finalizers and then runs its
    # after-fork callbacks; finalizers with an exit priority run when it
    # leaves its bootstrap, before os._exit
    multiprocessing.util.Finalize(None, _dump_child, exitpriority=0)


@contextlib.contextmanager
def recording() -> Iterator[None]:
    """Install the hook on this thread and on every thread started later."""
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


# ------------------------------------------------------------------ driver
def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {code}")


def drive(scratch: Path) -> None:
    """Run every command the module docstring lists (hook installed)."""
    from repro.core.scenario import available_scenarios
    from repro.results.store import ResultsStore
    from repro.serve import query_compare, query_health, request_json
    from repro.serve.service import ResultsService

    store = str(scratch / "store")
    _cli("list")
    _cli("topology", "gals5")
    _cli("show", "gals5")
    _cli("show", "gals5-phased-osc")
    for name in available_scenarios():
        _cli("run", name, "--instructions", INSTRUCTIONS, "--quiet",
             "--cache-dir", store, "--json", str(scratch / f"{name}.json"))
    _cli("run", "gals5", "--instructions", INSTRUCTIONS, "--quiet",
         "--slowdown", "fp=1.5", "--config", "fetch_width=4")
    _cli("sweep", "base", "gals5", "fem3", "--instructions", "200",
         "--job-backend", "serial", "--cache-dir", store, "--quiet")
    _cli("sweep", "base", "gals5", "fem3", "--instructions", "250",
         "--job-backend", "local", "--jobs", "2", "--cache-dir", store,
         "--quiet")
    for action in ("ls", "verify", "gc", "quarantine"):
        _cli("cache", action, "--cache-dir", store)
    _cli("cache", "quarantine", "--clear", "--cache-dir", store)
    _cli("report", "baseline", "--benchmarks", "perl", "--instructions",
         INSTRUCTIONS, "--jobs", "1")
    _cli("report", "dvfs", "--benchmark", "gcc", "--policies", "gals-1",
         "--instructions", INSTRUCTIONS, "--jobs", "1")
    _cli("report", "compare", "--topologies", "base", "gals5",
         "--controllers", "none", "occupancy", "pid", "--instructions",
         INSTRUCTIONS, "--job-backend", "serial", "--cache-dir", store)

    service = ResultsService(store=ResultsStore(root=scratch / "served"),
                             execution="serial", port=0, poll_interval=0.02)
    service.start()
    try:
        for _ in range(2):  # a miss (waited out), then a hit
            _cli("query", "fem3", "--instructions", INSTRUCTIONS,
                 "--url", service.url, "--wait", "60", "--poll", "0.05",
                 "--quiet")
        request_json(f"{service.url}/scenario?name=fem3"
                     f"&num_instructions={INSTRUCTIONS}")
        query_compare(service.url, {"topologies": "base,gals5",
                                    "instructions": INSTRUCTIONS})
        query_health(service.url)
        request_json(f"{service.url}/no-such-endpoint")
    finally:
        service.stop()
    _cli("cache", "clear", "--cache-dir", store)

    _cli("profile", "gals5", "--instructions", INSTRUCTIONS, "--quiet")


def reached_locations() -> Set[Tuple[str, int]]:
    """Run the driver under the hook; (file, first line) of every entry."""
    global _CHILD_DUMPS
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        _CHILD_DUMPS = Path(scratch) / "children"
        _CHILD_DUMPS.mkdir()
        # nothing the driver runs may touch the user's default store
        os.environ["REPRO_CACHE_DIR"] = str(Path(scratch) / "default-store")
        # the callback is kept while its key object lives: the dump
        # function itself serves
        multiprocessing.util.register_after_fork(_dump_child,
                                                 _on_worker_start)
        with recording():
            drive(Path(scratch))
        # pool workers exit on their own after the pool is shut down
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        reached = {(code.co_filename, code.co_firstlineno)
                   for code in _SEEN_CODE}
        for child in _CHILD_DUMPS.glob("*.json"):
            reached.update((filename, line) for filename, line
                           in json.loads(child.read_text()))
    return reached


# --------------------------------------------------------------- allowlist
def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    """``function id -> keeper`` from the allowlist file.

    One entry per line: the function id, a space, then who keeps it (the
    kinds of keeper are listed at the top of the file).  Blank lines and
    ``#`` comments are ignored.
    """
    entries: Dict[str, str] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, keeper = line.partition(" ")
        if not keeper.strip():
            raise SystemExit(f"{path.name}:{number}: {name} names no keeper")
        if name in entries:
            raise SystemExit(f"{path.name}:{number}: {name} listed twice")
        entries[name] = keeper.strip()
    return entries


def main(argv: Optional[List[str]] = None) -> int:
    """Print the unreached functions; with ``--check``, gate on the allowlist."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on an unreached function missing from the "
                             "allowlist, or an allowlist entry that is "
                             "reached or no longer exists")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    functions = defined_functions()
    reached = reached_locations()
    unreached = sorted((name, lines) for location, (name, lines)
                       in functions.items() if location not in reached)
    total_lines = sum(lines for _, lines in functions.values())
    for name, lines in unreached:
        print(f"{lines:5d}  {name}")
    print(f"{len(unreached)} of {len(functions)} functions "
          f"({sum(lines for _, lines in unreached)} of {total_lines} lines) "
          f"never called")
    if not args.check:
        return 0

    allowed = read_allowlist()
    unreached_names = {name for name, _ in unreached}
    known = {name for name, _ in functions.values()}
    problems = [f"unreached and not allowlisted: {name}"
                for name in sorted(unreached_names - set(allowed))]
    problems += [f"allowlisted but reached: {name}"
                 for name in sorted(set(allowed) & known - unreached_names)]
    problems += [f"allowlisted but not defined: {name}"
                 for name in sorted(set(allowed) - known)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
