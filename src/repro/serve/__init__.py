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
"""

from .client import (QueryReply, query_compare, query_health, query_scenario,
                     request_json, scenario_query_url)
from .service import ResultsService

__all__ = [
    "QueryReply",
    "ResultsService",
    "query_compare",
    "query_health",
    "query_scenario",
    "request_json",
    "scenario_query_url",
]
