"""``repro serve``: an HTTP results service in front of the results store.

:class:`~repro.serve.service.ResultsService` answers scenario queries from
the content-addressed results store over a small JSON API (a stdlib
``socketserver`` with a pool of handler threads; no extra dependencies): a
stored result is served bit-identically to ``repro run --json``, a miss is
acknowledged with *202 Accepted* and queued for a background sweep over the
service's configured job backend, and a later repeat of the same query is
a hit.
:mod:`repro.serve.client` is the matching stdlib client used by
``repro query``.

Start-up: the names below resolve lazily (PEP 562), so a process loads
only the side it uses.  The service never loads the client's
``urllib.request`` stack (and with it ``http.client``, ``email`` and
``ssl``), the process pool until a miss sweep starts one, or the
experiment drivers until a ``/compare`` request arrives; ``repro query``
never loads the service.
"""

from .._compat import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".client": (
        "QueryReply", "query_compare", "query_health", "query_scenario",
        "request_json", "scenario_query_url"),
    ".service": ("ResultsService",),
})
