"""The ``repro serve`` HTTP results service.

A :class:`ResultsService` wraps one results store and one
:class:`~repro.exec.ExecutionConfig` behind a small JSON API:

* ``GET /health`` -- service metadata (store root, code fingerprint,
  backend, queue depth);
* ``GET /scenario?name=...&field=value...`` (or ``?scenario=<json>``) --
  one scenario result.  A stored result returns *200* with a body that is
  byte-identical to ``repro run --json`` / ``ScenarioResult.to_json()``
  (provenance rides in ``X-Repro-Status`` / ``X-Repro-Key`` headers, never
  in the body); a miss returns *202 Accepted* and queues the scenario for
  the background sweep thread, so a later repeat of the query is a hit.
  A target that hit is recorded with its reply (``RESOLVED_TARGETS`` of
  them): a repeat re-reads and verifies the entry but parses, keys and
  splices nothing.
* ``GET /compare?...`` -- the design-space grid of
  :func:`~repro.core.experiments.design_space_scenarios`, rendered as
  records + table once every cell is stored (*202* with the miss count
  until then).

Misses are *batched*: the drain thread collects everything queued during
one poll interval and runs it as a single
:func:`~repro.results.resume_sweep` over the service's job backend, so a
burst of cold queries fills the store with one sweep instead of one
process pool per request.  Failures are classified like the rest of
the fabric: infrastructure errors (``OSError``, a broken pool) are retried
with backoff so a transient hiccup never becomes a lasting *500*, while a
scenario whose computation fails deterministically is remembered as a
failure and reported with *500* (once) instead of being retried forever.

The service degrades instead of collapsing: the miss queue is bounded
(``max_pending``), and a cold query arriving at a full queue gets *429 Too
Many Requests* with a ``Retry-After`` header instead of growing the queue
without limit; ``/compare`` scans its grid under a per-request deadline
(``request_deadline``) and returns *202* early rather than stalling the
connection; ``/health`` reports queue depth, quarantine count and drain
liveness so a load balancer can tell a saturated replica from a dead one.

The HTTP layer is deliberately small: each open connection has a handler
thread of its own, reused from up to ``HANDLER_THREADS`` idle ones; each
request is a ``GET`` whose headers are skipped (no endpoint reads one); a
connection whose request head has not arrived ``READ_TIMEOUT_S`` after it
was accepted is dropped; and every reply is one write followed by closing
the connection (HTTP/1.0, no keep-alive).
"""

from __future__ import annotations

import itertools
import json
import queue
import socket
import socketserver
import threading
import time
from dataclasses import replace
from http import HTTPStatus
from typing import (Any, Dict, List, NamedTuple, Optional, Set, Tuple,
                    Union)
from urllib.parse import parse_qs, urlsplit

from ..core.scenario import (DEFAULT_INSTRUCTIONS, Scenario, get_scenario,
                             scenario_result_json)
from ..exec import ExecutionConfig
from ..results import resume_sweep, run_cached
from ..results.store import ResultsStore, resolve_store

__all__ = ["ResultsService"]

#: Scenario fields the /scenario endpoint accepts as query parameters.
SCENARIO_FIELDS = frozenset(Scenario.__dataclass_fields__)

#: Idle handler threads kept for the next connections (busy ones are not
#: capped: each open connection has a thread of its own).
HANDLER_THREADS = 32

#: Seconds a connection's request line and headers may take to arrive,
#: in total (one deadline, not a per-read timeout).
READ_TIMEOUT_S = 10

#: Longest request or header line accepted (longer: 414 / 431).
MAX_LINE_BYTES = 65536

#: Most header lines a request may carry (more: 431).
MAX_HEADER_LINES = 100

#: Most answered ``/scenario`` targets whose resolution one service keeps
#: (the oldest is dropped first).
RESOLVED_TARGETS = 256


def _parse_query_value(text: str) -> Any:
    """Parse one query value: JSON first, bare string as fallback."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _scenario_from_query(params: Dict[str, List[str]]) -> Scenario:
    """Build the queried scenario from /scenario query parameters.

    ``scenario=<full canonical JSON>`` wins (that is what ``repro query``
    sends -- guaranteed key-identical to the client's local scenario);
    otherwise ``name=<registered scenario>`` plus per-field overrides.
    Raises ValueError/KeyError for malformed input (mapped to 400/404).
    """
    if "scenario" in params:
        payload = json.loads(params["scenario"][0])
        if not isinstance(payload, dict):
            raise ValueError("scenario= must be a JSON object")
        return Scenario.from_dict(payload)
    if "name" not in params:
        raise ValueError("missing query parameter: name= (a registered "
                         "scenario) or scenario= (full scenario JSON)")
    scenario = get_scenario(params["name"][0])
    overrides = {}
    for field, values in params.items():
        if field == "name":
            continue
        if field not in SCENARIO_FIELDS:
            raise ValueError(f"unknown scenario field: {field!r}")
        overrides[field] = _parse_query_value(values[0])
    return replace(scenario, **overrides) if overrides else scenario


def _comma_list(params: Dict[str, List[str]], field: str,
                default: Optional[List[Optional[str]]] = None
                ) -> Optional[List[Optional[str]]]:
    """A comma-separated /compare parameter ('none' entries become None)."""
    if field not in params:
        return default
    return [None if item == "none" else item
            for item in params[field][0].split(",") if item]


def _encode_reply(code: int, body: str, status: str = "", key: str = "",
                  retry_after: int = 0) -> bytes:
    """One whole HTTP/1.0 reply: status line, headers and body."""
    payload = body.encode("utf-8")
    head = (f"HTTP/1.0 {code} {HTTPStatus(code).phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n")
    if status:
        head += f"X-Repro-Status: {status}\r\n"
    if key:
        head += f"X-Repro-Key: {key}\r\n"
    if retry_after:
        head += f"Retry-After: {retry_after}\r\n"
    return head.encode("latin-1") + b"\r\n" + payload


class _Resolved(NamedTuple):
    """What one answered ``/scenario`` target resolved to."""

    key: str
    #: the stored rendering the reply was spliced from
    rendering: str
    #: the whole 200 reply
    reply: bytes


class _BadRequest(Exception):
    """A request the reader refuses; ``args`` are (HTTP code, message)."""


def _read_request_line(conn: socket.socket, timeout: float) -> bytes:
    """Read one request head from *conn*; return its request line.

    The request line and every header line must arrive within *timeout*
    seconds in total, not per read, so a client trickling bytes is cut off
    as surely as a silent one (``TimeoutError``).  Header lines are skipped
    up to the blank line; no endpoint reads one.  A client that closes
    early ends the head (``b""`` when no line came at all).  Raises
    :class:`_BadRequest` for a line over ``MAX_LINE_BYTES`` (414 for the
    request line, 431 for a header) or more than ``MAX_HEADER_LINES``.
    """
    deadline = time.monotonic() + timeout
    buf = bytearray()
    start = 0  # where the next unread line begins in buf
    request_line = b""
    headers = 0
    while True:
        end = buf.find(b"\n", start)
        if end < 0 and len(buf) - start < MAX_LINE_BYTES:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("request not read in time")
            conn.settimeout(remaining)
            chunk = conn.recv(MAX_LINE_BYTES)
            if not chunk:
                return request_line or bytes(buf[start:])
            buf += chunk
            continue
        if end < 0 or end + 1 - start > MAX_LINE_BYTES:
            if request_line:
                raise _BadRequest(431, "header line too long")
            raise _BadRequest(414, "request line too long")
        line, start = buf[start:end + 1], end + 1
        if not request_line:
            request_line = bytes(line)
        elif line in (b"\r\n", b"\n"):
            return request_line
        else:
            headers += 1
            if headers > MAX_HEADER_LINES:
                raise _BadRequest(431, "too many headers")


class _Handler(socketserver.BaseRequestHandler):
    """GET-only HTTP/1.0 handler bound to one :class:`ResultsService`.

    Reads the request line, skips the headers (no endpoint reads one) and
    answers with one write; the connection closes after the reply.
    """

    service: "ResultsService"
    #: the raw request line (for the access log)
    request_line = b""
    #: seconds the whole request head may take to arrive
    timeout = READ_TIMEOUT_S

    def handle(self) -> None:
        """Read one request, skip its headers and answer it."""
        # a reply larger than one segment must not wait on the client's
        # delayed ACK for its last, partial segment
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        try:
            self.request_line = line = _read_request_line(self.request,
                                                          self.timeout)
        except _BadRequest as exc:
            self.request.settimeout(self.timeout)
            self._reply_error(*exc.args)
            return
        except OSError:  # silent or trickling past the deadline, or gone
            return
        if not line:
            return
        self.request.settimeout(self.timeout)  # bounds the whole reply write
        words = line.split()
        if len(words) != 3 or words[2] not in (b"HTTP/1.0", b"HTTP/1.1"):
            self._reply_error(400, "bad request line")
            return
        if words[0] != b"GET":
            self._reply_error(501, "unsupported method")
            return
        self._dispatch(words[1].decode("iso-8859-1"))

    def _dispatch(self, target: str) -> None:
        """Answer GET /health, /scenario and /compare.

        A ``/scenario`` target the service has already answered with a hit
        is sent its recorded reply (see :meth:`ResultsService.reply_for`)
        without parsing the query again.
        """
        reply = self.service.reply_for(target)
        if reply is not None:
            self._send(200, reply)
            return
        split = urlsplit(target)
        params = parse_qs(split.query)
        try:
            if split.path in ("/health", "/"):
                self._reply_json(200, self.service.health())
            elif split.path == "/scenario":
                self._reply_scenario(target, params)
            elif split.path == "/compare":
                self._reply_compare(params)
            else:
                self._reply_error(404, f"unknown endpoint: {split.path}")
        except KeyError as exc:
            self._reply_error(404, str(exc.args[0]))
        except (ValueError, TypeError) as exc:
            self._reply_error(400, str(exc))

    def _reply_error(self, code: int, message: str) -> None:
        self._reply_json(code, {"error": message})

    def _reply_scenario(self, target: str,
                        params: Dict[str, List[str]]) -> None:
        scenario = _scenario_from_query(params)
        status, key, body = self.service.resolve(target, scenario)
        if status == "hit":
            self._send(200, body)
        elif status == "failed":
            self._reply_json(500, {"status": "failed", "key": key,
                                   "error": body}, status, key)
        elif status == "saturated":
            self._reply_json(429, {"status": "saturated", "key": key,
                                   "retry_after":
                                   self.service.retry_after_seconds()},
                            status, key,
                            retry_after=self.service.retry_after_seconds())
        else:
            self._reply_json(202, {"status": "pending", "key": key},
                            status, key)

    def _reply_compare(self, params: Dict[str, List[str]]) -> None:
        payload = self.service.compare(
            topologies=_comma_list(params, "topologies"),
            workloads=_comma_list(params, "workloads", ["perl"]),
            policies=_comma_list(params, "policies", [None]),
            controllers=_comma_list(params, "controllers", [None]),
            num_instructions=int(params.get(
                "instructions", [str(DEFAULT_INSTRUCTIONS)])[0]),
            seed=int(params.get("seed", ["1"])[0]))
        if payload["status"] == "complete":
            code, retry_after = 200, 0
        elif payload.get("saturated"):
            code, retry_after = 429, self.service.retry_after_seconds()
        else:
            code, retry_after = 202, 0
        self._reply_json(code, payload, payload["status"],
                         retry_after=retry_after)

    def _reply_raw(self, code: int, body: str, status: str = "",
                   key: str = "", retry_after: int = 0) -> None:
        """Write the status line, headers and body in one write."""
        self._send(code, _encode_reply(code, body, status, key, retry_after))

    def _send(self, code: int, reply: bytes) -> None:
        """Write one encoded reply and log it."""
        self.request.sendall(reply)
        if self.service.verbose:
            request = self.request_line.decode("iso-8859-1").rstrip("\r\n")
            self.service.log(f'{self.client_address[0]} - "{request}" '
                             f"{code} -")

    def _reply_json(self, code: int, payload: Dict[str, Any],
                    status: str = "", key: str = "",
                    retry_after: int = 0) -> None:
        self._reply_raw(code, json.dumps(payload, indent=1, sort_keys=True),
                        status, key, retry_after)


class _Server(socketserver.TCPServer):
    """The service's TCP server: handler threads reused across connections.

    An accepted connection goes to an idle handler thread, or to a new one
    when none is idle, so every connection still has a thread of its own
    (a slow client holds up no other) but a hit rarely starts one.  Up to
    ``HANDLER_THREADS`` idle threads are kept; a thread that finishes while
    that many wait exits.
    """

    allow_reuse_address = True
    # listen backlog: the stdlib default of 5 makes a burst of concurrent
    # clients wait out SYN retransmits (a ~1 s stall) instead of queueing
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        self._connections: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._idle = 0  # threads counted here take one item each
        self._closed = False
        self._workers: Set[threading.Thread] = set()
        self._names = itertools.count()
        # last: a failed bind calls server_close(), which reads the above
        super().__init__(address, handler)

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand one accepted connection to an idle handler thread."""
        with self._lock:
            if self._idle:
                self._idle -= 1
                self._connections.put((request, client_address))
                return
            worker = threading.Thread(
                target=self._work, args=(request, client_address),
                name=f"repro-serve-handler-{self.server_address[1]}"
                     f"_{next(self._names)}",
                daemon=True)
            self._workers.add(worker)
        worker.start()

    def _work(self, request: Any, client_address: Any) -> None:
        """Serve connections until closed or surplus to the idle threads."""
        try:
            while True:
                try:
                    self.finish_request(request, client_address)
                except Exception:
                    self.handle_error(request, client_address)
                finally:
                    self.shutdown_request(request)
                with self._lock:
                    if self._closed or self._idle >= HANDLER_THREADS:
                        return
                    self._idle += 1
                item = self._connections.get()
                if item is None:
                    return
                request, client_address = item
        finally:
            with self._lock:
                self._workers.discard(threading.current_thread())

    def server_close(self) -> None:
        """Close the listening socket, then end and join the handler threads.

        Called after ``shutdown()``, so no connection is accepted meanwhile;
        a busy thread finishes its connection, which the read timeout bounds.
        """
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, 0
            workers = list(self._workers)
        for _ in range(idle):
            self._connections.put(None)
        for worker in workers:
            worker.join()


class ResultsService:
    """HTTP facade over one results store + one execution config.

    ``store`` accepts everything :func:`~repro.results.store.resolve_store`
    does (default: the default store); ``execution`` is an
    :class:`~repro.exec.ExecutionConfig` or a job-backend name whose
    ``store`` field is rebound to the service's store.  ``port=0`` binds an
    ephemeral port (see :attr:`url` after :meth:`start`).  ``max_pending``
    bounds the miss queue (cold queries beyond it get 429 +
    ``Retry-After``); ``request_deadline`` bounds how long one ``/compare``
    request may scan its grid before answering 202 with what it knows.
    """

    def __init__(self,
                 store: Union[bool, str, ResultsStore, None] = True,
                 execution: Union[ExecutionConfig, str, None] = None,
                 host: str = "127.0.0.1",
                 port: int = 8000,
                 poll_interval: float = 0.25,
                 max_pending: int = 128,
                 request_deadline: float = 10.0,
                 verbose: bool = False) -> None:
        resolved = resolve_store(store)
        self.store = resolved if resolved is not None else ResultsStore()
        if isinstance(execution, str):
            execution = ExecutionConfig(backend=execution)
        elif execution is None:
            execution = ExecutionConfig()
        self.execution = replace(execution, store=self.store)
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.max_pending = max_pending
        self.request_deadline = request_deadline
        self.verbose = verbose
        self._pending: Dict[str, Scenario] = {}
        self._failures: Dict[str, str] = {}
        self._resolved: Dict[str, _Resolved] = {}  # oldest first
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._server: Optional[_Server] = None
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "ResultsService":
        """Bind the listening socket and start the server + drain threads."""
        handler = type("BoundHandler", (_Handler,), {"service": self})
        self._server = _Server((self.host, self.port), handler)
        self.port = self._server.server_address[1]
        self._stop.clear()
        self._threads = [
            threading.Thread(target=self._server.serve_forever,
                             name="repro-serve-http", daemon=True),
            threading.Thread(target=self._drain_loop,
                             name="repro-serve-drain", daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the worker threads."""
        self._stop.set()
        self._wake.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    def run_forever(self) -> None:
        """Block until interrupted (the ``repro serve`` foreground shape)."""
        if self._server is None:
            self.start()
        try:
            while not self._stop.wait(0.5):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def log(self, message: str) -> None:
        """Access/progress logging hook (stdout when ``verbose``)."""
        if self.verbose:
            print(f"[repro serve] {message}", flush=True)

    # -------------------------------------------------------------- requests
    def retry_after_seconds(self) -> int:
        """The ``Retry-After`` value sent with 429 replies (whole seconds).

        One poll interval (rounded up) is when the drain thread will next
        shrink the queue, so it is the earliest retry that can succeed.
        """
        return max(1, int(self.poll_interval) +
                   (0 if self.poll_interval == int(self.poll_interval)
                    else 1))

    def health(self) -> Dict[str, Any]:
        """The /health payload (queue depth, quarantine, drain liveness)."""
        with self._lock:
            pending = len(self._pending)
            failed = len(self._failures)
        drain_alive = any(thread.name == "repro-serve-drain"
                          and thread.is_alive() for thread in self._threads)
        return {
            "status": "ok" if drain_alive or not self._threads
            else "degraded",
            "store": str(self.store.root),
            "fingerprint": self.store.fingerprint,
            "backend": self.execution.backend,
            "pending": pending,
            "max_pending": self.max_pending,
            "failed": failed,
            "quarantined": self.store.quarantine_count(),
            "drain_alive": drain_alive,
        }

    def lookup(self, scenario: Scenario) -> Tuple[str, str, str]:
        """Probe one scenario: ``(status, key, body)``.

        ``status`` is ``"hit"`` (body = ``ScenarioResult.to_json()`` for
        the scenario as requested), ``"failed"`` (body = the recorded
        error), ``"saturated"`` (the miss queue is full -- mapped to 429 +
        ``Retry-After``; nothing was queued) or ``"pending"`` (the scenario
        was queued for the drain thread; body empty).

        A hit hashes the key once, verifies the raw entry and splices its
        stored rendering around the requested scenario: the result is
        never decoded or re-encoded.  A miss first runs
        :meth:`~repro.core.scenario.Scenario.validate`: a scenario that can
        never run raises (404/400) and is not queued.
        """
        key, rendering = self._probe(scenario)
        if rendering is None:
            return self._miss(key, scenario)
        return "hit", key, scenario_result_json(rendering, scenario)

    def resolve(self, target: str,
                scenario: Scenario) -> Tuple[str, str, Union[str, bytes]]:
        """:meth:`lookup` for one ``/scenario`` request target.

        A hit's third item is the whole encoded 200 reply, which is also
        recorded under ``target`` (up to ``RESOLVED_TARGETS`` of them), so
        :meth:`reply_for` answers the target's repeats without parsing,
        keying or splicing again.
        """
        key, rendering = self._probe(scenario)
        if rendering is None:
            return self._miss(key, scenario)
        reply = _encode_reply(200, scenario_result_json(rendering, scenario),
                              "hit", key)
        self._record(target, _Resolved(key, rendering, reply))
        return "hit", key, reply

    def reply_for(self, target: str) -> Optional[bytes]:
        """The 200 reply to a target :meth:`resolve` answered with a hit.

        The entry is read and checksum-verified again on every call (a
        corrupt one is quarantined).  When it is missing or its rendering
        changed, the record is dropped and None returned, as for a target
        never resolved: the caller then takes the full path.
        """
        with self._lock:
            resolved = self._resolved.get(target)
        if resolved is None:
            return None
        if self.store.get_rendering(resolved.key) != resolved.rendering:
            with self._lock:
                self._resolved.pop(target, None)
            return None
        return resolved.reply

    def _probe(self, scenario: Scenario) -> Tuple[str, Optional[str]]:
        """A scenario's key and its verified stored rendering (or None)."""
        key = self.store.key_for(scenario)
        return key, self.store.get_rendering(key)

    def _record(self, target: str, resolved: _Resolved) -> None:
        """Record a hit under ``target``, the oldest dropped first at the
        bound.  A target longer than its reply (padded with parameters
        the query ignores) is not recorded, so a record holds about three
        replies' worth of text at most."""
        if len(target) > len(resolved.reply):
            return
        with self._lock:
            if (target not in self._resolved
                    and len(self._resolved) >= RESOLVED_TARGETS):
                del self._resolved[next(iter(self._resolved))]
            self._resolved[target] = resolved

    def _miss(self, key: str, scenario: Scenario) -> Tuple[str, str, str]:
        """Queue a scenario with no stored result (see :meth:`lookup`)."""
        scenario.validate()
        with self._lock:
            if key in self._failures:
                return "failed", key, self._failures.pop(key)
            if (key not in self._pending
                    and len(self._pending) >= self.max_pending):
                return "saturated", key, ""
            self._pending.setdefault(key, scenario)
        self._wake.set()
        return "pending", key, ""

    def compare(self, **grid_fields: Any) -> Dict[str, Any]:
        """Probe the design-space grid; records+table once fully stored.

        The scan runs under the service's per-request deadline: when it
        expires mid-grid, the un-probed remainder counts as missing and the
        request answers early (202) instead of stalling the connection.
        """
        from ..analysis.report import design_space_records, design_space_table
        from ..core.experiments import design_space_scenarios
        grid = design_space_scenarios(**grid_fields)
        deadline = time.monotonic() + self.request_deadline
        outcomes = []
        missing = 0
        saturated = 0
        deadline_hit = False
        for index, scenario in enumerate(grid):
            if time.monotonic() > deadline:
                missing += len(grid) - index
                deadline_hit = True
                break
            # key each cell once: a miss is queued under the same key
            key = self.store.key_for(scenario)
            hit = self.store.get_by_key(key, scenario)
            if hit is None:
                missing += 1
                status, _, _ = self._miss(key, scenario)
                if status == "saturated":
                    saturated += 1
            else:
                outcomes.append(hit[0])
        if missing:
            payload: Dict[str, Any] = {"status": "pending",
                                       "missing": missing,
                                       "total": len(grid)}
            if saturated:
                payload["saturated"] = saturated
            if deadline_hit:
                payload["deadline_exceeded"] = True
            return payload
        return {
            "status": "complete",
            "total": len(grid),
            "records": design_space_records(outcomes),
            "table": design_space_table(outcomes),
        }

    # ----------------------------------------------------------- drain thread
    def _drain_loop(self) -> None:
        """Background loop: batch queued misses into one sweep per interval."""
        while not self._stop.is_set():
            self._wake.wait(timeout=self.poll_interval)
            self._wake.clear()
            if self._stop.is_set():
                return
            # everything queued while we slept becomes one batched sweep
            with self._lock:
                batch = dict(self._pending)
            if not batch:
                continue
            self.drain_once(batch)

    def drain_once(self, batch: Optional[Dict[str, Scenario]] = None) -> int:
        """Compute one batch of queued misses; returns the batch size.

        Exposed for tests and synchronous draining.  The happy path is a
        single batched :func:`resume_sweep` on the configured backend; if
        the sweep raises, each scenario is retried individually -- with
        backoff for infrastructure errors, so a transient ``OSError`` never
        becomes a lasting 500 -- and only a deterministic failure (or one
        that outlives the retry budget) is recorded for the 500 reply.
        """
        if batch is None:
            with self._lock:
                batch = dict(self._pending)
        if not batch:
            return 0
        scenarios = list(batch.values())
        self.log(f"computing {len(scenarios)} queued scenario(s) on the "
                 f"{self.execution.backend!r} backend")
        try:
            resume_sweep(scenarios, execution=self.execution)
        except Exception:
            for key, scenario in batch.items():
                error = self._compute_with_retries(key, scenario)
                if error is not None:
                    with self._lock:
                        self._failures[key] = error
        with self._lock:
            for key in batch:
                self._pending.pop(key, None)
        return len(batch)

    def _compute_with_retries(self, key: str,
                              scenario: Scenario) -> Optional[str]:
        """Compute one scenario; the recorded error string, or None on success.

        Infrastructure failures
        (:func:`~repro.exec.backends.is_infrastructure_error`) are retried
        with the execution config's backoff/budget; deterministic
        simulation exceptions are recorded immediately.
        """
        from ..exec.backends import is_infrastructure_error, retry_delay
        attempts = 0
        while True:
            attempts += 1
            try:
                run_cached(scenario, store=self.store)
                return None
            except Exception as exc:
                if (is_infrastructure_error(exc)
                        and attempts <= self.execution.max_retries):
                    time.sleep(retry_delay(self.execution.retry_backoff,
                                           attempts, key))
                    continue
                return f"{type(exc).__name__}: {exc}"
