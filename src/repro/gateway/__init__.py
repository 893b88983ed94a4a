"""repro.gateway — the HTTP serving front door for rule mining.

One gateway process owns:

* an **admission controller** (per-client token buckets, bounded
  in-flight work, queue-depth backpressure) that sheds overload with
  ``429`` + ``Retry-After`` before any work is queued;
* a **dispatcher** over N worker *processes* (each a
  ``python -m repro.gateway.worker`` subprocess running jobs one at a
  time through a :class:`~repro.service.JobRunner`);
* the **shared on-disk result cache** — job ids are the same content
  addresses the :class:`~repro.service.JobRunner` computes, so HTTP
  submissions, in-process ``JobRunner.run`` calls and sibling gateway
  processes all deduplicate against one another.

Typical serving setup (the CLI's ``serve --port`` does exactly this)::

    from repro.gateway import Gateway, GatewayClient

    with Gateway(cache_dir="~/.repro-cache", workers=4, port=8080) as gw:
        client = GatewayClient(gw.url)
        job = client.submit("cybersecurity", "llama3", "rag", "zero_shot")
        payload = client.result(job["job_id"])   # archive-format run dict
"""

from repro.gateway.admission import (
    AdmissionController,
    AdmissionPolicy,
    Decision,
    TokenBucket,
)
from repro.gateway.client import (
    GatewayClient,
    GatewayClientError,
    GatewayError,
    GatewayRejectedError,
)
from repro.gateway.dispatcher import (
    DispatchBacklogFull,
    Dispatcher,
    DispatcherDraining,
    GatewayJob,
    GatewayJobState,
)
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    SpecDefaults,
    parse_submit,
)
from repro.gateway.server import (
    Gateway,
    GatewayJobFailed,
    GatewayRejected,
    UnknownDatasetError,
    UnknownGatewayJobError,
)

# NOTE: repro.gateway.worker is deliberately not imported here — it is
# the ``python -m repro.gateway.worker`` subprocess entrypoint, and
# importing it at package-init time would re-execute it under runpy.

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "Decision",
    "DispatchBacklogFull",
    "Dispatcher",
    "DispatcherDraining",
    "Gateway",
    "GatewayClient",
    "GatewayClientError",
    "GatewayError",
    "GatewayJob",
    "GatewayJobFailed",
    "GatewayJobState",
    "GatewayRejected",
    "GatewayRejectedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SpecDefaults",
    "TokenBucket",
    "UnknownDatasetError",
    "UnknownGatewayJobError",
    "parse_submit",
]
