"""repro.serve — the concurrent query service.  DESIGN.md §2.11.

The serving layer the ROADMAP's north star asks for: many clients, one
shared engine.  Pieces:

* :mod:`~repro.serve.service` — :class:`QueryService`: named-database
  registry, shared per-database sessions (thread-safe plan LRU + memo
  cache + interner), a bounded worker pool behind an admission
  controller (queue-depth cap → fast retryable rejection, FIFO within
  priority classes), and per-request wall-clock deadlines carried by
  :class:`~repro.engine.deadline.DeadlineBudget` sub-budgets;
* observability now lives in :mod:`repro.obs` — the metrics registry
  (namespaced dotted names + legacy aliases), span tracing, the
  bounded per-request trace log (with PR 4 physical operator trees),
  and the slow-query log;
* :mod:`~repro.serve.protocol` / :mod:`~repro.serve.server` /
  :mod:`~repro.serve.client` — the newline-delimited JSON wire
  protocol (PING / QUERY / EXPLAIN / LOAD / STATS / METRICS / UPDATE /
  SNAPSHOT), the threaded TCP front end, and a retrying client with
  exponential backoff + jitter;
* ``python -m repro.serve`` — the CLI entry point; ``--data-dir``
  attaches the :mod:`repro.store` durability layer (WAL commits,
  snapshots, crash recovery, incremental view maintenance) and
  ``--slow-query-ms N`` arms the slow-query log.
"""

from ..obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from ..obs.trace import RequestTrace, TraceLog
from .client import RetriesExhausted, ServeClient, ServeClientError
from .protocol import PROTOCOL_VERSION, ProtocolError, database_from_spec
from .server import ServeServer, serve
from .service import (
    AdmissionRejected,
    QueryFailed,
    QueryService,
    RequestOutcome,
    RequestTimeout,
    ServeError,
    ServiceClosed,
    StoreUnavailable,
    UnknownDatabase,
)

__all__ = [
    "AdmissionRejected",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryFailed",
    "QueryService",
    "RequestOutcome",
    "RequestTimeout",
    "RequestTrace",
    "RetriesExhausted",
    "ServeClient",
    "ServeClientError",
    "ServeError",
    "ServeServer",
    "ServiceClosed",
    "StoreUnavailable",
    "TraceLog",
    "UnknownDatabase",
    "database_from_spec",
    "serve",
]
