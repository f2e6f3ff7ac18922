"""Content-addressed, on-disk store of scenario results.

The store memoizes :func:`~repro.core.scenario.run_scenario`: an entry holds
one :class:`~repro.core.scenario.ScenarioResult`, filed under a key that is
the SHA-256 of

* the scenario's **canonical JSON** -- every field that influences the
  simulation (topology, workload, policy, seeds, overrides, ...); ``name``
  and ``description`` are pure documentation and excluded, so renaming a
  scenario never forces a recompute -- and
* the **code fingerprint** (:func:`~repro.results.fingerprint.code_fingerprint`),
  so any edit to the simulator invalidates every entry at once.

Identical scenarios are therefore served bit-identically from disk, and a
changed override, seed, topology or source file misses cleanly.  Entries are
written atomically (temp file + ``os.replace``), so concurrent writers -- for
example several sweep processes sharing ``REPRO_CACHE_DIR`` -- can only race
to produce the same bytes.

An entry file has three parts, each starting on a new line:

1. a one-line JSON **header** (format, key, fingerprint, created,
   ``wall_seconds``, scenario, checksum) -- all that ``entries`` and ``gc``
   read;
2. the result as **compact JSON** in insertion order, which :meth:`get`
   decodes, so dict-valued fields reload in their original order;
3. the result's **canonical rendering**, exactly as
   :meth:`~repro.core.scenario.ScenarioResult.to_json` nests it, which the
   results service splices into its replies without decoding.

The header's checksum is the SHA-256 of every byte after the header line and
is verified on every read, so a served reply is made only of verified bytes.

The store root comes from the ``REPRO_CACHE_DIR`` environment variable and
defaults to ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Tuple,
                    TypeVar, Union)

from ..core.domains import get_topology
from ..core.dvfs import get_policy
from ..core.scenario import (Scenario, ScenarioResult, _result_from_dict,
                             _result_to_dict, render_section)
from ..exec.faults import inject
from .fingerprint import code_fingerprint

#: Environment variable overriding the default store location.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Bump when the on-disk entry layout changes; part of every cache key, so a
#: format change invalidates old stores instead of misreading them.
#: (2: entries carry a SHA-256 payload checksum verified on every read;
#: 3: header line + compact result + canonical rendering, checksummed as
#: raw bytes.)
STORE_FORMAT = 3

#: Scenario fields that do not influence the simulation.
_METADATA_FIELDS = ("name", "description")

#: Process-wide serial for temp-file names, so concurrent same-key writers
#: (threads share a pid, and a thread id can be recycled) never collide.
_temp_serial = itertools.count()


def _hostname() -> str:
    """This host's name, sanitised for use inside file names."""
    return re.sub(r"[^A-Za-z0-9-]", "-", socket.gethostname()) or "host"


def temp_path_for(path: Path) -> Path:
    """A writer-unique temporary sibling of ``path`` (atomic-publish source).

    The name embeds host + pid + thread id + a process-wide serial, so
    concurrent writers -- other threads, other processes, other *hosts*
    sharing the store over NFS (where pids alone collide) -- never consume
    each other's temp file.
    """
    return path.with_suffix(".tmp.%s.%d.%d.%d" % (
        _hostname(), os.getpid(), threading.get_ident(), next(_temp_serial)))


def encode_entry(header: Dict[str, Any], result_payload: Dict[str, Any]
                 ) -> bytes:
    """The bytes of one entry: header line, compact result, rendering.

    ``header`` gains the ``checksum`` field: the SHA-256 of every byte after
    the header line.
    """
    # not sort_keys: the compact form keeps insertion order, so dict-valued
    # result fields (domain_cycles, ...) reload in their original order and
    # a cached run is indistinguishable from a fresh one
    body = (json.dumps(result_payload, separators=(",", ":")) + "\n"
            + render_section(result_payload)).encode()
    header = dict(header, checksum=hashlib.sha256(body).hexdigest())
    return json.dumps(header, separators=(",", ":")).encode() + b"\n" + body


def decode_entry(data: bytes, key: str) -> Tuple[Dict[str, Any], bytes, bytes]:
    """Verify one entry's bytes: ``(header, compact result, rendering)``.

    Raises ValueError when the entry is torn, bit-rotted, written in another
    format or filed under another key.
    """
    head, _, body = data.partition(b"\n")
    header = json.loads(head)
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        raise ValueError(f"not a format-{STORE_FORMAT} entry")
    if header.get("key") != key:
        raise ValueError("entry filed under another key")
    if header.get("checksum") != hashlib.sha256(body).hexdigest():
        raise ValueError("entry checksum mismatch")
    compact, _, rendering = body.partition(b"\n")
    return header, compact, rendering


def read_header(path: Path) -> Dict[str, Any]:
    """An entry's header line alone (no verification; raises on junk)."""
    with path.open("rb") as handle:
        header = json.loads(handle.readline())
    if not isinstance(header, dict):
        raise ValueError("entry header is not a JSON object")
    return header


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


# ----------------------------------------------------------------- cache keys
def canonical_scenario_dict(scenario: Scenario) -> Dict[str, Any]:
    """The scenario's simulation-relevant fields (metadata stripped).

    Topology and policy names are additionally resolved through their
    registries and the *definitions* (block assignment, per-block slowdowns)
    embedded in the payload: re-registering a changed topology or policy
    under the same name therefore changes the key instead of being served a
    stale result.  (Workloads registered at runtime remain identified by
    name only -- the built-in generators are covered by the code
    fingerprint.)
    """
    payload = scenario.to_dict()
    for fieldname in _METADATA_FIELDS:
        payload.pop(fieldname, None)
    try:
        topology = get_topology(scenario.topology)
        payload["topology_definition"] = {
            "assignment": dict(sorted(topology.assignment.items())),
            "random_phases": topology.random_phases,
            "kind": topology.kind,
        }
    except KeyError:
        pass  # unknown name: the run would fail anyway; keep the name key
    if scenario.policy is not None:
        try:
            payload["policy_definition"] = dict(
                sorted(get_policy(scenario.policy).slowdowns.items()))
        except KeyError:
            pass
    return payload


def cache_key(scenario: Scenario, fingerprint: Optional[str] = None) -> str:
    """SHA-256 content address of one (scenario, simulator) pair."""
    if fingerprint is None:
        fingerprint = code_fingerprint()
    payload = json.dumps(
        {"format": STORE_FORMAT, "code": fingerprint,
         "scenario": canonical_scenario_dict(scenario)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# -------------------------------------------------------------------- entries
@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored result (what ``repro cache ls`` prints)."""

    key: str
    path: Path
    scenario_name: str
    topology: str
    workload: str
    policy: Optional[str]
    fingerprint: str
    created: str
    wall_seconds: float
    size_bytes: int

    @property
    def stale(self) -> bool:
        """True when the entry was produced by a different simulator."""
        return self.fingerprint != code_fingerprint()


@dataclass
class GcStats:
    """Outcome of a ``gc`` pass."""

    removed: int = 0
    kept: int = 0
    bytes_freed: int = 0


@dataclass
class VerifyStats:
    """Outcome of a ``verify`` pass over the stored entries."""

    checked: int = 0
    ok: int = 0
    quarantined: int = 0


@dataclass(frozen=True)
class QuarantinedFile:
    """One quarantined file: its resting place, origin kind and reason."""

    path: Path
    kind: str
    reason: str


_Loaded = TypeVar("_Loaded")


# ---------------------------------------------------------------------- store
class ResultsStore:
    """Content-addressed store memoizing scenario runs on disk."""

    def __init__(self, root: Optional[Union[str, Path]] = None,
                 fingerprint: Optional[str] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        #: probe counters for this store instance (reported by the CLI)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- locations
    @property
    def results_dir(self) -> Path:
        """Directory holding the sharded result entries."""
        return self.root / "results"

    def entry_path(self, key: str) -> Path:
        """On-disk path of one cache key (sharded by the first two hex digits)."""
        return self.results_dir / key[:2] / f"{key}.json"

    def key_for(self, scenario: Scenario) -> str:
        """Cache key of one scenario under this store's code fingerprint."""
        return cache_key(scenario, self.fingerprint)

    # ----------------------------------------------------------------- probes
    def get(self, scenario: Scenario) -> Optional[ScenarioResult]:
        """Load the cached result for ``scenario``, or None on a miss.

        A hit returns a :class:`ScenarioResult` carrying the *requested*
        scenario (names are not part of the key) and the stored simulation
        result, which round-trips bit-identically through JSON.
        """
        loaded = self.get_with_seconds(scenario)
        return loaded[0] if loaded is not None else None

    def get_with_seconds(self, scenario: Scenario
                         ) -> Optional[Tuple[ScenarioResult, float]]:
        """Like :meth:`get`, plus the original compute wall time recorded
        when the entry was stored (what a hit saves)."""
        return self.get_by_key(self.key_for(scenario), scenario)

    def get_by_key(self, key: str, scenario: Scenario
                   ) -> Optional[Tuple[ScenarioResult, float]]:
        """:meth:`get_with_seconds` for a caller that already holds
        ``scenario``'s key, so the scenario is not hashed again."""
        def decode(header: Dict[str, Any], compact: bytes, rendering: bytes
                   ) -> Tuple[ScenarioResult, float]:
            """Rebuild the result from the entry's compact JSON."""
            result = _result_from_dict(json.loads(compact))
            return (ScenarioResult(scenario=scenario, result=result),
                    float(header.get("wall_seconds", 0.0)))
        return self._load(key, decode)

    def get_rendering(self, key: str) -> Optional[str]:
        """The stored result's canonical rendering, or None on a miss.

        This is the ``"result"`` section of
        :meth:`~repro.core.scenario.ScenarioResult.to_json`, verified
        against the entry checksum but never decoded;
        :func:`~repro.core.scenario.scenario_result_json` completes it into
        a reply for any scenario with this key.
        """
        return self._load(key, lambda header, compact, rendering:
                          rendering.decode())

    def _load(self, key: str,
              decode: Callable[[Dict[str, Any], bytes, bytes], _Loaded]
              ) -> Optional[_Loaded]:
        """Read, verify and ``decode`` one entry; None (a miss) otherwise."""
        path = self.entry_path(key)
        try:
            inject("store.get")
            loaded = decode(*decode_entry(path.read_bytes(), key))
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # A present-but-unreadable entry is never a plain miss: the file
            # is torn, bit-rotted or foreign.  Quarantine it (so the next
            # probe misses cleanly and recomputes) instead of serving from
            # -- or repeatedly tripping over -- a corrupt file.
            self.quarantine_file(path, f"{type(exc).__name__}: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return loaded

    def contains(self, scenario: Scenario) -> bool:
        """True when a result for ``scenario`` is already stored."""
        return self.entry_path(self.key_for(scenario)).exists()

    def put(self, outcome: ScenarioResult,
            wall_seconds: float = 0.0) -> str:
        """Store one result; returns its key.  Writes are atomic.

        The entry's checksum covers every byte after its header line and is
        verified on every read -- a torn or bit-rotted entry is quarantined
        and treated as a miss instead of being served.
        """
        return self.put_by_key(self.key_for(outcome.scenario), outcome,
                               wall_seconds)

    def put_by_key(self, key: str, outcome: ScenarioResult,
                   wall_seconds: float = 0.0) -> str:
        """:meth:`put` for a caller that already holds the outcome's
        scenario key, so the scenario is not hashed again."""
        fault = inject("store.put")
        scenario = outcome.scenario
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = encode_entry({
            "format": STORE_FORMAT,
            "key": key,
            "fingerprint": self.fingerprint,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "wall_seconds": wall_seconds,
            "scenario": scenario.to_dict(),
        }, _result_to_dict(outcome.result))
        # the temp name must be unique per *writer*, not just per process
        # (or per host: stores can be shared over NFS) -- see temp_path_for
        temporary = temp_path_for(path)
        if fault is not None and fault.action == "torn":
            # injected torn write: publish only the first half of the bytes,
            # as a writer that lost power mid-write would have
            data = data[:len(data) // 2]
        temporary.write_bytes(data)
        os.replace(temporary, path)
        return key

    # ------------------------------------------------------------- quarantine
    @property
    def quarantine_dir(self) -> Path:
        """Directory receiving corrupt (torn or bit-rotted) entries."""
        return self.root / "quarantine"

    def quarantine_file(self, path: Path, reason: str) -> Path:
        """Move entry ``path`` into ``quarantine/entries`` with a ``.reason``
        sidecar.

        Returns the quarantined path; when the file vanished first (a racing
        quarantiner won), returns the intended destination anyway.
        """
        target_dir = self.quarantine_dir / "entries"
        target_dir.mkdir(parents=True, exist_ok=True)
        target = target_dir / path.name
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return target
        try:
            (target_dir / (path.name + ".reason")).write_text(reason + "\n")
        except OSError:  # pragma: no cover - the move itself already landed
            pass
        return target

    def _quarantined_paths(self) -> List[Path]:
        """Every quarantined file, sorted (``.reason`` sidecars excluded)."""
        if not self.quarantine_dir.is_dir():
            return []
        return [path for path in sorted(self.quarantine_dir.glob("*/*"))
                if not path.name.endswith(".reason")]

    def quarantine_count(self) -> int:
        """How many files are quarantined (no ``.reason`` file is read)."""
        return len(self._quarantined_paths())

    def quarantined(self) -> List[QuarantinedFile]:
        """Every quarantined file with its kind and recorded reason."""
        found = []
        for path in self._quarantined_paths():
            reason_path = path.parent / (path.name + ".reason")
            try:
                reason = reason_path.read_text().strip()
            except OSError:
                reason = "?"
            found.append(QuarantinedFile(path=path, kind=path.parent.name,
                                         reason=reason))
        return found

    def clear_quarantine(self) -> int:
        """Remove every quarantined file; returns the number removed."""
        removed = 0
        for item in self.quarantined():
            reason_path = item.path.parent / (item.path.name + ".reason")
            for path in (item.path, reason_path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            removed += 1
        return removed

    def verify(self) -> VerifyStats:
        """Scan every stored entry; quarantine torn/bit-rotted ones.

        An entry passes when its header parses and its checksum matches the
        SHA-256 of the bytes after the header line.  Entries from other
        code fingerprints are still *verified* (their bytes must be sound)
        but are ``gc``'s business, not corruption.
        """
        stats = VerifyStats()
        for path in list(self._entry_files()):
            try:
                decode_entry(path.read_bytes(), path.stem)
            except FileNotFoundError:
                continue  # removed by another process mid-scan
            except (OSError, ValueError) as exc:
                self.quarantine_file(path, f"{type(exc).__name__}: {exc}")
                stats.quarantined += 1
            else:
                stats.ok += 1
            stats.checked += 1
        return stats

    # -------------------------------------------------------------- inventory
    def _entry_files(self) -> Iterator[Path]:
        if not self.results_dir.is_dir():
            return iter(())
        return self.results_dir.glob("*/*.json")

    def entries(self) -> List[CacheEntry]:
        """Metadata of every stored entry, newest first (headers only)."""
        found = []
        for path in self._entry_files():
            try:
                payload = read_header(path)
                scenario = payload["scenario"]
                found.append(CacheEntry(
                    key=payload["key"],
                    path=path,
                    scenario_name=scenario.get("name", "?"),
                    topology=scenario.get("topology", "?"),
                    workload=scenario.get("workload", "?"),
                    policy=scenario.get("policy"),
                    fingerprint=payload.get("fingerprint", "?"),
                    created=payload.get("created", "?"),
                    wall_seconds=float(payload.get("wall_seconds", 0.0)),
                    size_bytes=path.stat().st_size,
                ))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        found.sort(key=lambda entry: entry.created, reverse=True)
        return found

    # ------------------------------------------------------------ maintenance
    def gc(self) -> GcStats:
        """Drop entries from other simulator versions or store formats (and
        unreadable files); reads only each entry's header line.

        Like :meth:`clear` and :meth:`verify`, it skips an entry that
        another process sharing the store removes while the scan runs.
        """
        stats = GcStats()
        for path in list(self._entry_files()):
            try:
                header = read_header(path)
                current = (header.get("format") == STORE_FORMAT
                           and header.get("fingerprint") == self.fingerprint)
            except FileNotFoundError:
                continue  # removed by another process mid-scan
            except (OSError, ValueError):
                current = False
            if current:
                stats.kept += 1
                continue
            try:
                size = path.stat().st_size
                path.unlink()
            except FileNotFoundError:
                continue
            stats.bytes_freed += size
            stats.removed += 1
        return stats

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in list(self._entry_files()):
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # removed by another process mid-scan
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultsStore(root={str(self.root)!r}, "
                f"fingerprint={self.fingerprint!r})")


def resolve_store(store: Union[bool, str, Path, ResultsStore, None] = None
                  ) -> Optional[ResultsStore]:
    """Normalise a ``store=`` argument into a store (or None when disabled).

    ``True`` means the default store, a string/path names a store root, an
    existing :class:`ResultsStore` passes through, ``None``/``False`` disable
    caching.
    """
    if store is None or store is False:
        return None
    if store is True:
        return ResultsStore()
    if isinstance(store, ResultsStore):
        return store
    return ResultsStore(root=store)
