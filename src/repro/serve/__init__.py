"""``repro serve`` — the long-lived evaluation service.

Turns the one-shot CLI reproduction into a standing service: jobs
(evaluation, simulation) arrive over a local HTTP/JSON API, fan out
over in-process vector environments, and every run is recorded in a
SQLite-backed :class:`~repro.serve.store.RunStore` that outlives the
process. Layers:

* :mod:`repro.serve.store` — the run registry (WAL, schema-versioned,
  append-only ``runs``/``episodes`` tables);
* :mod:`repro.serve.jobs` — job payload validation and policy lookup;
* :mod:`repro.serve.service` — the asyncio job engine (bounded queue
  with 429 backpressure, worker-task group, cancellation, graceful
  drain);
* :mod:`repro.serve.http` — the hand-rolled HTTP/JSON listener
  (stdlib asyncio only);
* :mod:`repro.serve.client` — the blocking client behind
  ``repro submit`` and ``repro runs``.

Start a server with ``repro serve``; drive it with ``repro submit`` /
``repro runs list`` / ``repro runs show`` or any HTTP client.
"""

from repro.serve.client import (
    JobFailedError,
    ServeClient,
    ServeClosingError,
    ServeError,
    ServeNotFoundError,
    ServeQueueFullError,
    ServeRequestError,
)
from repro.serve.http import ServeServer
from repro.serve.jobs import JobCancelled, JobError, JobRequest, parse_job
from repro.serve.promotion import (
    PROMOTION_VERDICTS,
    PromotionError,
    promote_checkpoint,
)
from repro.serve.service import EvalService, Job, QueueFullError, ServiceClosedError
from repro.serve.store import RunStore, SCHEMA_VERSION, new_run_id

__all__ = [
    "EvalService",
    "PROMOTION_VERDICTS",
    "PromotionError",
    "promote_checkpoint",
    "Job",
    "JobCancelled",
    "JobError",
    "JobFailedError",
    "JobRequest",
    "QueueFullError",
    "RunStore",
    "SCHEMA_VERSION",
    "ServeClient",
    "ServeClosingError",
    "ServeError",
    "ServeNotFoundError",
    "ServeQueueFullError",
    "ServeRequestError",
    "ServeServer",
    "ServiceClosedError",
    "new_run_id",
    "parse_job",
]
