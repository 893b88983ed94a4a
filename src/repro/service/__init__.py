"""repro.service — mining jobs as content-addressed, cached work.

One grid cell is one job: :class:`JobRunner` runs it on the caller's
thread — content address, on-disk result cache layered on
:mod:`repro.mining.persistence`, warmed pipelines and retry/backoff
around the LLM.  The CLI grid loops over a runner; each gateway worker
process owns one.
"""

from repro.service.api import JobResult, JobRunner
from repro.service.cache import CacheStats, ResultCache
from repro.service.jobs import (
    JobSpec,
    cache_key,
    code_fingerprint,
    graph_fingerprint,
)
from repro.service.workers import (
    JobTimeoutError,
    RetriesExhaustedError,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "CacheStats",
    "JobResult",
    "JobRunner",
    "JobSpec",
    "JobTimeoutError",
    "ResultCache",
    "RetriesExhaustedError",
    "RetryPolicy",
    "cache_key",
    "call_with_retry",
    "code_fingerprint",
    "graph_fingerprint",
]
