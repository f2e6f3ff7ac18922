#!/usr/bin/env python3
"""CI smoke test for the ``repro serve`` results service.

Drives the service exactly the way the acceptance contract describes,
end to end through real processes:

1. pre-warm a temporary store with one scenario via ``repro run --cache``;
2. start ``repro serve`` (ephemeral port, serial backend) against it;
3. query the warm scenario twice -- both must answer *200* immediately (no
   recompute) with a body byte-identical to the ``repro run --json``
   artifact (the repeat is answered from the resolved target);
4. ``repro cache clear`` the store -- the same query must now answer *202*
   and converge back to the same bytes (a resolved target is never served
   from a removed entry);
5. query a cold scenario -- must answer *202 Accepted*, then converge to
   *200* with a body byte-identical to a fresh local ``repro run --json``
   of the same scenario (the service converted the miss into a stored
   result).

Exits nonzero (with a diagnostic on stderr) on the first violated
expectation.  Usage::

    python tools/service_smoke.py [--instructions N] [--timeout SECONDS]
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CLI = [sys.executable, "-m", "repro"]


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_cli(*argv: str) -> None:
    subprocess.run([*CLI, *argv], check=True, cwd=REPO)


def get(url: str):
    """GET one URL; returns (status code, body bytes) without raising."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def converge(url: str, timeout: float) -> bytes:
    """Poll one query that answered 202 until it answers 200; the body."""
    deadline = time.monotonic() + timeout
    while True:
        code, body = get(url)
        if code == 200:
            return body
        if code != 202:
            fail(f"poll answered {code}, expected 202/200")
        if time.monotonic() > deadline:
            fail("query never converged to 200")
        time.sleep(0.2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instructions", type=int, default=300)
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="deadline for each 202 query to converge "
                             "(default: 120)")
    args = parser.parse_args()
    n = args.instructions

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as temp:
        store = Path(temp) / "store"
        warm_json = Path(temp) / "warm.json"
        fresh_json = Path(temp) / "fresh.json"

        print(f"[1/5] pre-warming store {store} ...", flush=True)
        run_cli("run", "base", "--instructions", str(n), "--quiet",
                "--cache", "--cache-dir", str(store), "--json",
                str(warm_json))

        print("[2/5] starting repro serve ...", flush=True)
        server = subprocess.Popen(
            [*CLI, "serve", "--port", "0", "--cache-dir", str(store),
             "--job-backend", "serial", "--poll-interval", "0.05",
             "--quiet"],
            cwd=REPO, stdout=subprocess.PIPE, text=True)
        try:
            handshake = server.stdout.readline()
            if "http://" not in handshake:
                fail(f"no service URL in startup line: {handshake!r}")
            url = next(token for token in handshake.split()
                       if token.startswith("http://"))
            print(f"      service up at {url}", flush=True)

            code, _body = get(f"{url}/health")
            if code != 200:
                fail(f"/health answered {code}, expected 200")

            print("[3/5] warm query must hit without recompute, twice ...",
                  flush=True)
            warm = f"{url}/scenario?" + urllib.parse.urlencode(
                {"name": "base", "num_instructions": n})
            for attempt in ("first", "repeated"):
                code, body = get(warm)
                if code != 200:
                    fail(f"{attempt} warm query answered {code}, "
                         "expected 200")
                if body != warm_json.read_bytes():
                    fail(f"{attempt} warm body differs from the "
                         "repro run --json artifact")
            print("      200 twice, byte-identical to repro run --json",
                  flush=True)

            print("[4/5] after cache clear the warm query must 202, then "
                  "converge ...", flush=True)
            run_cli("cache", "clear", "--cache-dir", str(store))
            code, body = get(warm)
            if code != 202:
                fail(f"query of a cleared entry answered {code}, "
                     "expected 202")
            if converge(warm, args.timeout) != warm_json.read_bytes():
                fail("recomputed body differs from the repro run --json "
                     "artifact")
            print("      202 -> 200, the same bytes as before", flush=True)

            print("[5/5] cold query must 202 then converge to 200 ...",
                  flush=True)
            cold = f"{url}/scenario?" + urllib.parse.urlencode(
                {"name": "base", "num_instructions": n, "seed": 9})
            code, body = get(cold)
            if code != 202:
                fail(f"cold query answered {code}, expected 202")
            if json.loads(body).get("status") != "pending":
                fail(f"cold reply body is not pending: {body!r}")
            body = converge(cold, args.timeout)
            # the service's computation must match a fresh local run bit
            # for bit (same scenario, independent process)
            run_cli("run", "base", "--instructions", str(n), "--seed", "9",
                    "--quiet", "--no-cache", "--json", str(fresh_json))
            if body != fresh_json.read_bytes():
                fail("converged body differs from a fresh repro run --json")
            print("      202 -> 200, byte-identical to a fresh local run",
                  flush=True)
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()

    print("service smoke: OK", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
