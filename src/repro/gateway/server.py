"""The gateway: HTTP front door over a multi-process worker fleet.

:class:`Gateway` composes the pieces of this package into one serving
process:

* **admission first** — every ``POST /jobs`` that could create a job
  passes the :class:`~repro.gateway.admission.AdmissionController`
  *before* any dataset work; shed requests leave as ``429``/``503``
  with a ``Retry-After`` hint and are never seen by a worker.  A
  resubmit of a job already in the job table (its dataset published)
  creates no work, so it is answered like ``GET /jobs/{id}``, without
  a token; only a draining gateway refuses it;
* **content-addressed identity** — the gateway computes the job id with
  the same :func:`~repro.service.jobs.cache_key` the
  :class:`~repro.service.JobRunner` uses, so an HTTP submission of a
  cell and an in-process ``JobRunner.run`` of the same cell share one
  id and one shared-cache entry;
* **dataset snapshots** — each served dataset is materialised once to
  ``<cache_dir>/.snapshots/<name>.json`` (see
  :mod:`repro.datasets.snapshot`); workers load the snapshot instead of
  regenerating the dataset, guaranteeing fleet-wide fingerprint
  agreement;
* **cache short-circuit** — with ``serve_from_cache`` (default) a job
  already present in the shared on-disk cache resolves at submit time
  without touching the fleet (``gateway.cache.hits{source=gateway}``);
  disabling it forces dispatch so the *worker-side* cross-process hit
  path (``source=worker``) is exercised;
* **graceful drain** — :meth:`drain` flips the door to refusing
  (``503 draining``), lets the dispatcher finish queued + in-flight
  work within a deadline, then stops the fleet.

The HTTP layer is stdlib :class:`~http.server.ThreadingHTTPServer` on
the shared :class:`~repro.obs.JsonRequestHandler` base — no framework.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Optional

from repro import obs
from repro.datasets.base import Dataset
from repro.datasets.registry import load
from repro.datasets.snapshot import save_dataset
from repro.gateway import protocol
from repro.gateway.admission import AdmissionController, AdmissionPolicy
from repro.gateway.dispatcher import (
    DispatchBacklogFull,
    Dispatcher,
    DispatcherDraining,
    GatewayJob,
    GatewayJobState,
)
from repro.mining.persistence import run_to_dict
from repro.mining.result import MiningRun
from repro.obs.export import prometheus_text
from repro.obs.server import JsonRequestHandler
from repro.service.cache import ResultCache
from repro.service.jobs import cache_key, graph_fingerprint
from repro.stream.mutations import MutationError
from repro.stream.watch import WatchService

__all__ = [
    "Gateway",
    "GatewayJobFailed",
    "GatewayRejected",
    "UnknownDatasetError",
    "UnknownGatewayJobError",
]

#: reasons mapped to 503 instead of 429 — the server, not the client,
#: is the one that needs to change state before a retry can succeed
_UNAVAILABLE_REASONS = frozenset({"draining"})

#: terminal-job retention bound: the oldest resolved jobs are forgotten
#: once the table crosses this, so a long-lived gateway stays bounded
_MAX_JOBS = 4096


class GatewayRejected(RuntimeError):
    """Admission shed this request; carries the refusal decision."""

    def __init__(self, decision) -> None:
        super().__init__(
            f"request shed ({decision.reason}); "
            f"retry after {decision.retry_after:.1f}s"
        )
        self.decision = decision

    @property
    def status(self) -> int:
        return 503 if self.decision.reason in _UNAVAILABLE_REASONS else 429


class UnknownGatewayJobError(KeyError):
    """No job with that id was ever accepted by this gateway."""


class UnknownDatasetError(KeyError):
    """The dataset loader has no dataset by that name."""


class GatewayJobFailed(RuntimeError):
    """The awaited job finished FAILED or CANCELLED."""

    def __init__(self, job: GatewayJob) -> None:
        super().__init__(
            f"job {job.job_id[:12]} ({'/'.join(job.spec.cell())}) "
            f"finished {job.state.value}"
            + (f": {job.error}" if job.error else "")
        )
        self.job = job


class Gateway:
    """Admission + dispatcher + job table + HTTP server, one process.

    Usable without HTTP (tests drive :meth:`submit`/:meth:`result`
    directly) or as a server via :meth:`start` / ``with gateway:``.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_depth: int = 64,
        policy: AdmissionPolicy | None = None,
        defaults: protocol.SpecDefaults | None = None,
        loader: Callable[[str], Dataset] | None = None,
        max_retries: int = 3,
        retry_base_delay: float = 0.5,
        respawn_limit: int = 3,
        drain_timeout: float = 30.0,
        serve_from_cache: bool = True,
        python: str = sys.executable,
        clock: Callable[[], float] = time.monotonic,
        watch: bool = False,
        watch_model: str = "llama3",
        watch_prompt_mode: str = "zero_shot",
        watch_debounce: float = 0.5,
        cache_max_entries: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.host = host
        self.requested_port = port
        self.defaults = defaults or protocol.SpecDefaults()
        self.loader = loader or load
        self.serve_from_cache = serve_from_cache
        self.drain_timeout = drain_timeout
        self._clock = clock
        self.cache = ResultCache(self.cache_dir, max_entries=cache_max_entries)
        self.snapshot_dir = self.cache_dir / ".snapshots"
        self.watch_enabled = watch
        self.watch_model = watch_model
        self.watch_prompt_mode = watch_prompt_mode
        self.watch_debounce = watch_debounce
        self._watchers: dict[str, WatchService] = {}
        self.admission = AdmissionController(policy=policy, clock=clock)
        self.dispatcher = Dispatcher(
            cache_dir=self.cache_dir,
            workers=workers,
            queue_depth=queue_depth,
            max_retries=max_retries,
            retry_base_delay=retry_base_delay,
            respawn_limit=respawn_limit,
            cache_max_entries=cache_max_entries,
            python=python,
        )
        self._jobs: dict[str, GatewayJob] = {}
        self._jobs_lock = threading.Lock()
        self._datasets: dict[str, tuple[str, str]] = {}  # name -> (path, fp)
        self._dataset_objects: dict[str, Dataset] = {}
        self._dataset_lock = threading.Lock()
        self._draining = False
        self._started = False
        self.started_at = clock()
        self._httpd: _GatewayServer | None = None
        self._http_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Gateway":
        """Spawn the worker fleet and bind the HTTP server."""
        if self._started:
            return self
        self._started = True
        self.dispatcher.start()
        with self._dataset_lock:
            for watcher in self._watchers.values():
                watcher.start()
        httpd = _GatewayServer((self.host, self.requested_port), _Handler)
        httpd.gateway = self
        self._httpd = httpd
        self._http_thread = threading.Thread(
            target=httpd.serve_forever, name="gateway-http", daemon=True
        )
        self._http_thread.start()
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        with self._jobs_lock:
            return self._draining

    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new jobs, finish accepted work, stop the fleet.

        Returns True when every accepted job reached a terminal state
        within the deadline.  The HTTP server stays up throughout (and
        after) so clients can still poll results of drained jobs.
        """
        with self._jobs_lock:
            self._draining = True
        obs.set_gauge("gateway.draining", 1)
        return self.dispatcher.drain(
            timeout if timeout is not None else self.drain_timeout
        )

    def stop(self) -> None:
        """Hard stop: drain with the configured deadline, close HTTP."""
        if not self.draining:
            self.drain(self.drain_timeout)
        with self._dataset_lock:
            watchers = list(self._watchers.values())
        for watcher in watchers:
            watcher.stop()
        self.dispatcher.stop()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5)
            self._httpd = None
            self._http_thread = None

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def _dataset_entry(self, name: str) -> tuple[str, str]:
        """Snapshot path + graph fingerprint for one dataset, memoised.

        The first request for a dataset pays for generation, snapshot
        serialisation and fingerprinting; every later request (and every
        worker) reuses the snapshot file, so the whole fleet agrees on
        one graph and therefore one set of content addresses.
        """
        key = name.lower()
        with self._dataset_lock:
            entry = self._datasets.get(key)
            if entry is not None:
                return entry
            try:
                dataset = self.loader(key)
            except Exception as error:
                raise UnknownDatasetError(
                    f"dataset {key!r} is not servable: {error}"
                ) from error
            path = self.snapshot_dir / f"{key}.json"
            # embed the compiled CSR so every worker process adopts it
            # instead of recompiling the graph on its first job
            save_dataset(dataset, path, include_csr=True)
            entry = (str(path), graph_fingerprint(dataset.graph))
            self._datasets[key] = entry
            self._dataset_objects[key] = dataset
            return entry

    # ------------------------------------------------------------------
    # watch mode: live mutations + drift
    # ------------------------------------------------------------------
    def _watcher(self, name: str) -> WatchService:
        """The watch service for one dataset (created on first use)."""
        if not self.watch_enabled:
            raise UnknownDatasetError(
                "watch mode is disabled (start the gateway with watch=True)"
            )
        key = name.lower()
        self._dataset_entry(key)  # ensure the dataset exists + snapshot
        with self._dataset_lock:
            watcher = self._watchers.get(key)
            if watcher is None:
                watcher = WatchService(
                    self._dataset_objects[key],
                    model=self.watch_model,
                    prompt_mode=self.watch_prompt_mode,
                    debounce_seconds=self.watch_debounce,
                )
                self._watchers[key] = watcher
                if self._started:
                    watcher.start()
            return watcher

    def mutate(
        self, name: str, payload: object, client: str = "anonymous"
    ) -> dict[str, object]:
        """Apply one mutation batch to a watched dataset.

        Passes admission control like any other request, applies the
        batch through the dataset's :class:`WatchService` (one epoch
        bump), then re-snapshots the dataset to a **new, epoch-stamped
        path** and republishes it: workers key snapshot reloads on the
        path string, so later job submissions mine the mutated graph
        under its fresh content address — the grid becomes a live
        workload.
        """
        if self.draining:
            raise GatewayRejected(self.admission.shed(
                "draining", retry_after=self.drain_timeout,
            ))
        decision = self.admission.admit(
            client,
            queue_depth=self.dispatcher.backlog,
            inflight=self.dispatcher.inflight,
        )
        if not decision.admitted:
            raise GatewayRejected(decision)
        context = obs.parse_traceparent(
            payload.get("traceparent") if isinstance(payload, dict) else None
        )
        trace_id = context[0] if context else ""
        watcher = self._watcher(name)
        # raises MutationError on bad input
        ack = watcher.submit(payload, trace_id=trace_id)
        key = name.lower()
        with self._dataset_lock:
            dataset = self._dataset_objects[key]
            path = self.snapshot_dir / f"{key}.e{dataset.graph.epoch}.json"
            save_dataset(dataset, path, include_csr=True)
            self._datasets[key] = (
                str(path), graph_fingerprint(dataset.graph)
            )
            self._prune_snapshots(key, keep=8)
        obs.inc("gateway.mutations_accepted")
        ack["dataset"] = key
        ack["snapshot"] = path.name
        if trace_id:
            ack["trace_id"] = trace_id
        return ack

    def _prune_snapshots(self, key: str, keep: int) -> None:
        """Drop all but the newest ``keep`` epoch-stamped snapshots.

        Best-effort: a worker still holding an older path will fail its
        reload and the dispatcher's retry picks up the current one.
        """
        snapshots = sorted(
            self.snapshot_dir.glob(f"{key}.e*.json"),
            key=lambda p: p.stat().st_mtime,
        )
        for stale in snapshots[:-keep]:
            try:
                stale.unlink()
            except OSError:
                pass

    def drift(self) -> dict[str, object]:
        """The ``/drift`` payload: per-dataset watch telemetry."""
        with self._dataset_lock:
            watchers = dict(self._watchers)
        return {
            "watch": self.watch_enabled,
            "datasets": {
                name: watcher.telemetry()
                for name, watcher in sorted(watchers.items())
            },
        }

    # ------------------------------------------------------------------
    # client API (the HTTP handler is a thin shim over these)
    # ------------------------------------------------------------------
    def submit(self, payload: dict, client: str = "anonymous") -> GatewayJob:
        """Admit, address and queue one submission.

        Raises :class:`~repro.gateway.protocol.ProtocolError` (400),
        :class:`GatewayRejected` (429/503) or
        :class:`UnknownDatasetError` (404).  Re-submitting a cell the
        gateway already tracks returns the existing job unchanged, and
        costs the client no admission token — submission is idempotent.
        """
        spec = protocol.parse_submit(payload, self.defaults)
        if self.draining:
            raise GatewayRejected(self.admission.shed(
                "draining", retry_after=self.drain_timeout,
            ))
        # a resubmit of a tracked job creates no work: like a status
        # poll, it is answered from the job table without a token
        with self._dataset_lock:
            published = self._datasets.get(spec.dataset.lower())
        if published is not None:
            with self._jobs_lock:
                existing = self._jobs.get(cache_key(spec, published[1]))
            if existing is not None:
                return existing
        decision = self.admission.admit(
            client,
            queue_depth=self.dispatcher.backlog,
            inflight=self.dispatcher.inflight,
        )
        if not decision.admitted:
            raise GatewayRejected(decision)
        snapshot_path, fingerprint = self._dataset_entry(spec.dataset)
        job_id = cache_key(spec, fingerprint)
        with self._jobs_lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
        # adopt the client's trace context when a valid traceparent came
        # in; otherwise mint a fresh trace.  No installed collector means
        # no tracing at all — the assembler would have nowhere to publish
        context = obs.parse_traceparent(payload.get("traceparent"))
        trace = None
        if obs.get_collector() is not None:
            trace = obs.TraceAssembler(
                trace_id=context[0] if context else None,
                clock=self._clock,
            )
        job = GatewayJob(
            job_id=job_id,
            spec=spec,
            snapshot_path=snapshot_path,
            client=client,
            submitted_at=self._clock(),
            trace_id=trace.trace_id if trace is not None else "",
            trace=trace,
        )
        if trace is not None:
            trace.begin(
                "gateway.job",
                job_id=job_id[:12],
                cell="/".join(spec.cell()),
                client=client,
                remote_parent=context[1] if context else None,
            )
        if self.serve_from_cache:
            run = self.cache.get(job_id)
            if run is not None:
                # another process (or a past run) already mined this
                # cell — answer from the shared cache without touching
                # the fleet
                job.state = GatewayJobState.DONE
                job.source = "cache"
                job.cache_hit = True
                job.rules = run.rule_count
                job.computed_id = job_id
                job.finished_at = self._clock()
                if trace is not None:
                    trace.event("gateway.cache", source="gateway")
                    trace.finish(state=job.state.value, source=job.source)
                job.done.set()
                self._remember(job)
                obs.inc("gateway.cache.hits", source="gateway")
                obs.inc("gateway.jobs_completed", ok=True, cache_hit=True)
                return job
            obs.inc("gateway.cache.misses", source="gateway")
        self._remember(job)
        try:
            self.dispatcher.submit(job)
        except DispatchBacklogFull:
            self._forget(job_id)
            raise GatewayRejected(self.admission.shed("queue_full"))
        except DispatcherDraining:
            self._forget(job_id)
            raise GatewayRejected(self.admission.shed(
                "draining", retry_after=self.drain_timeout,
            ))
        obs.inc("gateway.jobs_accepted")
        return job

    def _remember(self, job: GatewayJob) -> None:
        with self._jobs_lock:
            self._jobs[job.job_id] = job
            if len(self._jobs) > _MAX_JOBS:
                for job_id, old in list(self._jobs.items()):
                    if len(self._jobs) <= _MAX_JOBS:
                        break
                    if old.state.terminal:
                        del self._jobs[job_id]

    def _forget(self, job_id: str) -> None:
        with self._jobs_lock:
            self._jobs.pop(job_id, None)

    def _job(self, job_id: str) -> GatewayJob:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownGatewayJobError(job_id)
        return job

    def status(self, job_id: str) -> dict[str, object]:
        return self._job(job_id).snapshot()

    def trace_payload(self, job_id: str) -> dict[str, object] | None:
        """The job's assembled span tree, or ``None`` when the gateway
        runs without an installed collector (tracing disabled)."""
        job = self._job(job_id)
        if job.trace is None:
            return None
        payload = job.trace.to_dict()
        payload["job_id"] = job.job_id
        payload["state"] = job.state.value
        return payload

    def result(
        self, job_id: str, timeout: Optional[float] = None
    ) -> MiningRun:
        """Block until the job finishes, then load its run.

        The run always comes from the shared cache: for dispatched jobs
        the worker process stored it there, for cache-served jobs it was
        there to begin with — the gateway never holds result payloads.
        """
        job = self._job(job_id)
        if not job.done.wait(timeout=timeout):
            raise TimeoutError(
                f"job {job_id[:12]} still {job.state.value} after {timeout}s"
            )
        if job.state is not GatewayJobState.DONE:
            raise GatewayJobFailed(job)
        run = self.cache.get(job_id)
        if run is None:
            raise GatewayJobFailed(job)
        return run

    def cancel(self, job_id: str) -> bool:
        job = self._job(job_id)
        return self.dispatcher.cancel(job.job_id)

    def stats(self) -> dict[str, object]:
        with self._jobs_lock:
            jobs = list(self._jobs.values())
            draining = self._draining
        by_state = {state.value: 0 for state in GatewayJobState}
        for job in jobs:
            by_state[job.state.value] += 1
        cache = self.cache.stats
        return {
            "uptime_seconds": self._clock() - self.started_at,
            "draining": draining,
            "jobs": by_state,
            "tracked": len(jobs),
            "admission": self.admission.snapshot(),
            "dispatcher": self.dispatcher.stats(),
            "cache": {
                "entries": len(self.cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
                "evictions": cache.evictions,
            },
            "datasets": sorted(self._datasets),
            "watch": {
                "enabled": self.watch_enabled,
                "watched": sorted(self._watchers),
            },
        }


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
class _GatewayServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: Gateway


def _retry_after_header(retry_after: float) -> dict[str, str]:
    return {"Retry-After": str(max(1, math.ceil(retry_after)))}


class _Handler(JsonRequestHandler):
    """Routes; all state lives on ``self.server.gateway``."""

    server_version = "repro-gateway/1"

    @property
    def gateway(self) -> Gateway:
        return self.server.gateway

    def _client_id(self, payload: dict) -> str:
        client = payload.get("client") or self.headers.get("X-Client-Id")
        if isinstance(client, str) and client.strip():
            return client.strip()
        return self.client_address[0]

    # ------------------------------------------------------------------
    def _dispatch(
        self, method: str, endpoint: str, handler: Callable[[], None]
    ) -> None:
        """Run one route with RED accounting and a structured access log.

        Every request gets a ``gateway.http.requests`` count (by method,
        endpoint *template* and status — raw paths would explode label
        cardinality), a ``gateway.http.request_seconds`` observation and
        one JSON log line on stderr carrying the same correlation id the
        response's ``X-Request-Id`` header does.
        """
        clock = self.gateway._clock
        started = clock()
        try:
            handler()
        except Exception as error:  # noqa - serving must survive any request
            self._send_json(500, {"error": str(error)})
        elapsed = clock() - started
        status = self._last_status or 0
        obs.inc(
            "gateway.http.requests",
            method=method, endpoint=endpoint, status=status,
        )
        obs.observe(
            "gateway.http.request_seconds", elapsed, endpoint=endpoint,
        )
        print(json.dumps({
            "log": "gateway.http",
            "request_id": self.correlation_id(),
            "method": method,
            "endpoint": endpoint,
            "path": self.path,
            "status": status,
            "seconds": round(elapsed, 6),
        }, separators=(",", ":")), file=sys.stderr)

    def _route_post(
        self, path: str
    ) -> tuple[str, Callable[[], None]] | None:
        if path == "/jobs":
            return "/jobs", self._submit
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            return "/jobs/{id}/cancel", lambda: self._cancel(parts[1])
        if (
            len(parts) == 3
            and parts[0] == "graphs"
            and parts[2] == "mutations"
        ):
            return "/graphs/{name}/mutations", lambda: self._mutate(parts[1])
        return None

    def _route_get(
        self, path: str
    ) -> tuple[str, Callable[[], None]] | None:
        if path == "/stats":
            return "/stats", lambda: self._send_json(
                200, self.gateway.stats()
            )
        if path == "/healthz":
            return "/healthz", self._healthz
        if path == "/metrics":
            return "/metrics", self._metrics
        if path == "/drift":
            return "/drift", lambda: self._send_json(
                200, self.gateway.drift()
            )
        parts = path.strip("/").split("/")
        if len(parts) == 2 and parts[0] == "jobs":
            return "/jobs/{id}", lambda: self._status(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            return "/jobs/{id}/result", lambda: self._result(parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            return "/jobs/{id}/trace", lambda: self._trace(parts[1])
        return None

    def do_POST(self) -> None:  # noqa - http.server naming convention
        path = self.path.split("?", 1)[0].rstrip("/")
        route = self._route_post(path)
        if route is None:
            self._dispatch(
                "POST", "<unmatched>",
                lambda: self._send_json(
                    404, {"error": f"no POST route {path!r}"}
                ),
            )
            return
        self._dispatch("POST", route[0], route[1])

    def do_GET(self) -> None:  # noqa - http.server naming convention
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        route = self._route_get(path)
        if route is None:
            self._dispatch(
                "GET", "<unmatched>",
                lambda: self._send_json(404, {
                    "error": "not found",
                    "endpoints": [
                        "POST /jobs", "GET /jobs/<id>",
                        "GET /jobs/<id>/result",
                        "GET /jobs/<id>/trace",
                        "POST /jobs/<id>/cancel",
                        "POST /graphs/<name>/mutations",
                        "GET /drift",
                        "GET /stats", "GET /healthz", "GET /metrics",
                    ],
                }),
            )
            return
        self._dispatch("GET", route[0], route[1])

    # ------------------------------------------------------------------
    def _submit(self) -> None:
        try:
            payload = self._read_json_body()
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
            return
        client = self._client_id(payload)
        try:
            job = self.gateway.submit(payload, client=client)
        except protocol.ProtocolError as error:
            self._send_json(400, {"error": str(error)})
            return
        except UnknownDatasetError as error:
            self._send_json(404, {"error": str(error.args[0])})
            return
        except GatewayRejected as error:
            decision = error.decision
            self._send_json(
                error.status,
                {
                    "error": decision.reason,
                    "retry_after": decision.retry_after,
                },
                headers=_retry_after_header(decision.retry_after),
            )
            return
        status = 200 if job.state.terminal else 202
        self._send_json(status, job.snapshot())

    def _status(self, job_id: str) -> None:
        try:
            self._send_json(200, self.gateway.status(job_id))
        except UnknownGatewayJobError:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})

    def _result(self, job_id: str) -> None:
        try:
            job = self.gateway._job(job_id)
        except UnknownGatewayJobError:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        if not job.state.terminal:
            self._send_json(202, job.snapshot())
            return
        try:
            run = self.gateway.result(job_id, timeout=0)
        except (GatewayJobFailed, TimeoutError):
            self._send_json(500, job.snapshot())
            return
        self._send_json(200, {
            "job_id": job_id,
            "cell": list(job.spec.cell()),
            "source": job.source,
            "run": run_to_dict(run),
        })

    def _mutate(self, name: str) -> None:
        try:
            payload = self._read_json_body()
        except ValueError as error:
            self._send_json(400, {"error": str(error)})
            return
        client = self._client_id(
            payload if isinstance(payload, dict) else {}
        )
        try:
            ack = self.gateway.mutate(name, payload, client=client)
        except MutationError as error:
            self._send_json(400, {"error": str(error)})
            return
        except UnknownDatasetError as error:
            self._send_json(404, {"error": str(error.args[0])})
            return
        except GatewayRejected as error:
            decision = error.decision
            self._send_json(
                error.status,
                {
                    "error": decision.reason,
                    "retry_after": decision.retry_after,
                },
                headers=_retry_after_header(decision.retry_after),
            )
            return
        self._send_json(200, ack)

    def _trace(self, job_id: str) -> None:
        try:
            payload = self.gateway.trace_payload(job_id)
        except UnknownGatewayJobError:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        if payload is None:
            self._send_json(404, {
                "error": (
                    f"no trace recorded for job {job_id!r} "
                    "(gateway has no collector installed)"
                ),
            })
            return
        self._send_json(200, payload)

    def _cancel(self, job_id: str) -> None:
        try:
            cancelled = self.gateway.cancel(job_id)
        except UnknownGatewayJobError:
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        self._send_json(200, {"job_id": job_id, "cancelled": cancelled})

    def _healthz(self) -> None:
        gateway = self.gateway
        stats = gateway.dispatcher.stats()
        alive = sum(
            1 for worker in stats["workers"] if worker["alive"]
        )
        self._send_json(200, {
            "status": "draining" if gateway.draining else "ok",
            "uptime_seconds": gateway._clock() - gateway.started_at,
            "workers_alive": alive,
        })

    def _metrics(self) -> None:
        collector = obs.get_collector()
        if collector is None:
            self._send_json(503, {"error": "no metrics registry installed"})
            return
        self._send(
            200,
            prometheus_text(collector.metrics).encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )
