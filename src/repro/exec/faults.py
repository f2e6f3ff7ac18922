"""Deterministic fault injection for the sweep fabric.

A :class:`FaultPlan` is a seeded, JSON-round-trippable description of
failures to inject at **named sites** instrumented throughout the
exec/store/serve stack.  Each :class:`FaultRule` names a site, an action
and the exact *hit indices* (per-process occurrence counts of that site) at
which it fires, so a chaos run misbehaves identically every time -- the
substrate of ``tools/chaos_smoke.py`` and ``tests/test_fault_injection.py``,
whose acceptance bar is that a sweep full of injected kills and torn writes
still produces byte-identical results.

Plans activate through the environment so *pool worker processes* inherit
them:

* ``REPRO_FAULT_PLAN`` -- the plan as inline JSON, or a path to a JSON file;
* ``REPRO_FAULT_ROLE`` -- this process's role (``main`` unless set; the
  ``local`` backend's pool initializer declares its workers ``worker``),
  matched against each rule's ``role`` filter so a plan can kill pool
  workers without touching the submitting parent;
* ``REPRO_FAULT_LOG`` -- optional append-only log file recording every
  fired fault (one JSON line each), uploadable as a CI artifact.

Instrumented sites (grep for ``inject(``):

========================  =====================================================
site                      fired
========================  =====================================================
``store.put``             before an entry write (``raise``/``torn``/``sleep``)
``store.get``             before an entry read (``sleep`` = slow filesystem)
``pool.run``              before each scenario run (``exit`` with
                          ``role="worker"`` = a pool worker killed mid-job)
========================  =====================================================

Actions: ``raise`` raises :class:`OSError` (an infrastructure failure,
retried by the fabric), ``exit`` calls ``os._exit(137)`` (uncatchable, the
SIGKILL shape: a pool worker's death breaks the pool), ``sleep`` delays
``seconds``, and ``torn`` is returned to the instrumented caller, which
implements the corruption itself.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Environment variable carrying the active plan (inline JSON or a path).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"

#: Environment variable naming this process's role (default ``main``).
FAULT_ROLE_ENV_VAR = "REPRO_FAULT_ROLE"

#: Environment variable naming the append-only fired-fault log file.
FAULT_LOG_ENV_VAR = "REPRO_FAULT_LOG"

#: The actions a rule may request.
ACTIONS = ("raise", "exit", "sleep", "torn")

#: Exit status used by the ``exit`` action (the SIGKILL convention).
EXIT_STATUS = 137


@dataclass(frozen=True)
class FaultRule:
    """One injection: fire ``action`` at ``site`` on the given hit indices.

    ``hits`` are 0-based per-process occurrence counts of the site (hit 0 is
    the first time this process reaches the site); ``role`` restricts the
    rule to processes whose :data:`FAULT_ROLE_ENV_VAR` matches (``None`` =
    any process); ``seconds`` parameterises ``sleep``; ``message`` becomes
    the raised error's text.
    """

    site: str
    action: str
    hits: Tuple[int, ...] = (0,)
    role: Optional[str] = None
    seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"known: {', '.join(ACTIONS)}")
        object.__setattr__(self, "hits", tuple(int(hit) for hit in self.hits))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        payload: Dict[str, Any] = {"site": self.site, "action": self.action,
                                   "hits": list(self.hits)}
        if self.role is not None:
            payload["role"] = self.role
        if self.seconds:
            payload["seconds"] = self.seconds
        if self.message != "injected fault":
            payload["message"] = self.message
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultRule":
        """Rebuild one rule from its :meth:`to_dict` payload."""
        return cls(site=payload["site"], action=payload["action"],
                   hits=tuple(payload.get("hits", (0,))),
                   role=payload.get("role"),
                   seconds=float(payload.get("seconds", 0.0)),
                   message=payload.get("message", "injected fault"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule` injections (JSON-round-trippable).

    The ``seed`` identifies the storm (generators deriving random hit
    schedules hash it in) and rides along in the serialized plan so a chaos
    run's artifacts say exactly which storm produced them.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(
            rule if isinstance(rule, FaultRule) else FaultRule.from_dict(rule)
            for rule in self.rules))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the whole plan."""
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        """The plan as compact JSON (what :data:`FAULT_PLAN_ENV_VAR` holds)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_dict` payload."""
        return cls(seed=int(payload.get("seed", 0)),
                   rules=tuple(FaultRule.from_dict(rule)
                               for rule in payload.get("rules", ())))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from JSON text."""
        return cls.from_dict(json.loads(text))


class _ActiveFaults:
    """One process's live injection state: plan + per-site hit counters."""

    def __init__(self, plan: FaultPlan, role: str) -> None:
        self.plan = plan
        self.role = role
        self._counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def fire(self, site: str) -> Optional[FaultRule]:
        """Advance ``site``'s hit counter; the matching rule (or None)."""
        with self._lock:
            hit = self._counters.get(site, 0)
            self._counters[site] = hit + 1
        for rule in self.plan.rules:
            if rule.site != site or hit not in rule.hits:
                continue
            if rule.role is not None and rule.role != self.role:
                continue
            return rule
        return None


#: (raw env value, parsed state) -- reparsed whenever the env text changes,
#: so tests can monkeypatch the variable without an explicit reload call.
_loaded: Tuple[Optional[str], Optional[_ActiveFaults]] = (None, None)
_load_lock = threading.Lock()


def _parse_env_value(raw: str) -> FaultPlan:
    """Parse the env payload: inline JSON first, else a path to a file."""
    text = raw.strip()
    if not text.startswith("{"):
        text = open(text).read()
    return FaultPlan.from_json(text)


def current_role() -> str:
    """This process's fault role (:data:`FAULT_ROLE_ENV_VAR`, or ``main``)."""
    return os.environ.get(FAULT_ROLE_ENV_VAR, "main")


def set_role(role: str) -> None:
    """Declare this process's role (also exported to child processes)."""
    global _loaded
    os.environ[FAULT_ROLE_ENV_VAR] = role
    with _load_lock:
        _loaded = (None, None)  # force role re-resolution on the next fire


def active_plan() -> Optional[_ActiveFaults]:
    """The process's live injection state, or None when no plan is set.

    The state (and its hit counters) persists while the environment value is
    unchanged; editing/unsetting :data:`FAULT_PLAN_ENV_VAR` resets it.
    """
    global _loaded
    raw = os.environ.get(FAULT_PLAN_ENV_VAR)
    with _load_lock:
        cached_raw, cached_state = _loaded
        if raw == cached_raw:
            return cached_state
        if raw is None:
            state = None
        else:
            try:
                state = _ActiveFaults(_parse_env_value(raw), current_role())
            except (OSError, ValueError, KeyError, TypeError):
                state = None  # unreadable plan: inject nothing
        _loaded = (raw, state)
        return state


def _log_fired(site: str, rule: FaultRule) -> None:
    """Append one fired-fault record to the log file (when configured)."""
    path = os.environ.get(FAULT_LOG_ENV_VAR)
    if not path:
        return
    record = {"time": time.strftime("%Y-%m-%dT%H:%M:%S"), "pid": os.getpid(),
              "role": current_role(), "site": site, "action": rule.action}
    try:
        with open(path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - logging must never mask the fault
        pass


def inject(site: str) -> Optional[FaultRule]:
    """Fire the active plan at ``site``; the instrumented-code entry point.

    Performs ``raise``/``exit``/``sleep`` itself; a ``torn`` rule is
    *returned* for the caller to implement (corrupt its write).  Returns
    None when no rule fires -- the overwhelmingly common case costs one
    ``os.environ`` probe.
    """
    state = active_plan()
    if state is None:
        return None
    rule = state.fire(site)
    if rule is None:
        return None
    _log_fired(site, rule)
    if rule.action == "raise":
        raise OSError(f"{rule.message} [site {site}]")
    if rule.action == "exit":
        os._exit(EXIT_STATUS)
    if rule.action == "sleep":
        time.sleep(rule.seconds)
        return None
    return rule  # torn: caller-implemented
