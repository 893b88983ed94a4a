"""Dispatcher: the multi-process worker fleet behind the gateway.

Owns N worker *processes* (spawned from
:mod:`repro.gateway.worker`), a bounded FIFO backlog of accepted jobs,
and the bookkeeping that turns worker ``done`` events back into
resolved :class:`GatewayJob` records.

Robustness model:

* one job is in flight per worker process at a time — worker-side
  parallelism would hide head-of-line blocking from admission control;
* a crashed worker (stdout EOF, nonzero exit) fails fast: its in-flight
  job is **requeued once** (then failed), and the process is respawned
  up to ``RESPAWN_LIMIT`` times, all counted through ``gateway.*``
  metrics;
* :meth:`drain` refuses new work, waits for backlog + in-flight jobs
  with a deadline, then shuts workers down politely (``shutdown`` op,
  stdin close) before escalating to ``terminate``/``kill``.
"""

from __future__ import annotations

import enum
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro import obs
from repro.gateway import protocol
from repro.service.jobs import JobSpec

__all__ = [
    "DispatchBacklogFull",
    "Dispatcher",
    "DispatcherDraining",
    "GatewayJob",
    "GatewayJobState",
]

#: times a crashed worker process is respawned before its slot stays dead
RESPAWN_LIMIT = 3


class DispatchBacklogFull(RuntimeError):
    """The dispatch backlog is at capacity."""


class DispatcherDraining(RuntimeError):
    """The dispatcher is draining and refuses new jobs."""


class GatewayJobState(enum.Enum):
    QUEUED = "queued"
    DISPATCHED = "dispatched"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (
            GatewayJobState.DONE,
            GatewayJobState.FAILED,
            GatewayJobState.CANCELLED,
        )


@dataclass
class GatewayJob:
    """One accepted submission and everything known about it."""

    job_id: str
    spec: JobSpec
    snapshot_path: str
    client: str = "anonymous"
    state: GatewayJobState = GatewayJobState.QUEUED
    source: str = "pending"        # cache | worker | worker-cache
    error: Optional[str] = None
    cache_hit: bool = False
    worker_id: Optional[str] = None
    attempts: int = 0
    retries: int = 0
    rules: int = 0
    computed_id: str = ""
    dispatch_attempts: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: set once at first enqueue and preserved across crash-requeues so
    #: queue-wait accounting covers the *whole* time a job sat waiting
    first_enqueued_at: float = 0.0
    trace_id: str = ""
    #: the gateway's TraceAssembler for this job (None when the gateway
    #: runs without an installed collector)
    trace: object = field(default=None, repr=False)
    done: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view for the status endpoint."""
        return {
            "job_id": self.job_id,
            "cell": self.spec.cell(),
            "state": self.state.value,
            "source": self.source,
            "cache_hit": self.cache_hit,
            "worker": self.worker_id,
            "attempts": self.attempts,
            "retries": self.retries,
            "rules": self.rules,
            "error": self.error,
            "client": self.client,
            "trace_id": self.trace_id,
        }


class _WorkerHandle:
    """One worker process plus its reader thread."""

    def __init__(self, worker_id: str, argv: list[str], env: dict) -> None:
        self.worker_id = worker_id
        self.argv = argv
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.busy: GatewayJob | None = None
        self.ready = False
        self.executed = 0
        self.crashes = 0
        #: bumped on every spawn; exit handling is idempotent per
        #: generation so a crash seen by both the dispatch loop (broken
        #: pipe) and the reader thread (EOF) is recovered exactly once
        self.generation = 0
        self.exit_handled_gen = -1
        #: True while crash recovery is replacing the process.  The
        #: dispatch loop must not select the handle in that window: the
        #: dying process can linger unreapable (``poll()`` still None)
        #: after its pipes EOF, so a job sent "successfully" then would
        #: land in a pipe nobody will ever read.
        self.respawning = False

    def spawn(self) -> None:
        self.ready = False
        self.generation += 1
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,          # workers log human text to stderr
            text=True,
            bufsize=1,            # line-buffered pipes
            env=self.env,
        )

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def send(
        self, message: dict, proc: subprocess.Popen | None = None
    ) -> None:
        # callers that selected a specific process under the dispatcher
        # lock pass it explicitly, so a concurrent respawn swapping
        # ``self.proc`` cannot silently redirect the write
        proc = proc if proc is not None else self.proc
        assert proc is not None and proc.stdin is not None
        proc.stdin.write(protocol.encode_line(message))
        proc.stdin.flush()

    def snapshot(self) -> dict[str, object]:
        return {
            "id": self.worker_id,
            "pid": self.pid,
            "alive": self.alive,
            "ready": self.ready,
            "busy": self.busy.job_id if self.busy is not None else None,
            "executed": self.executed,
            "crashes": self.crashes,
        }


def _worker_env() -> dict:
    """Subprocess env with this repro checkout importable."""
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing
        else src_dir + os.pathsep + existing
    )
    return env


class Dispatcher:
    """Bounded backlog + worker fleet + completion bookkeeping."""

    def __init__(
        self,
        cache_dir: str | Path,
        workers: int = 2,
        queue_depth: int = 64,
        max_retries: int = 3,
        cache_max_entries: int | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        self.cache_dir = Path(cache_dir)
        self.queue_depth = queue_depth
        env = _worker_env()
        argv = [
            sys.executable, "-m", "repro.gateway.worker",
            "--cache-dir", str(self.cache_dir),
            "--max-retries", str(max_retries),
        ]
        if cache_max_entries is not None:
            # the workers write the shared cache, so they enforce its bound
            argv += ["--cache-max-entries", str(cache_max_entries)]
        self._workers = [
            _WorkerHandle(
                f"w{index}", argv + ["--worker-id", f"w{index}"], env,
            )
            for index in range(workers)
        ]
        self._backlog: deque[GatewayJob] = deque()
        self._cv = threading.Condition()
        self._draining = False
        self._stopped = False
        self._started = False
        self._threads: list[threading.Thread] = []
        self.jobs_dispatched = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.worker_crashes = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Dispatcher":
        if self._started:
            return self
        self._started = True
        for handle in self._workers:
            handle.spawn()
            self._spawn_reader(handle)
        thread = threading.Thread(
            target=self._dispatch_loop, name="gateway-dispatch", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return self

    def _spawn_reader(self, handle: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._reader_loop,
            args=(handle, handle.proc, handle.generation),
            name=f"gateway-read-{handle.worker_id}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        with self._cv:
            return len(self._backlog)

    @property
    def dispatched(self) -> int:
        with self._cv:
            return sum(
                1 for handle in self._workers if handle.busy is not None
            )

    @property
    def inflight(self) -> int:
        with self._cv:
            busy = sum(
                1 for handle in self._workers if handle.busy is not None
            )
            return len(self._backlog) + busy

    @property
    def draining(self) -> bool:
        with self._cv:
            return self._draining

    def stats(self) -> dict[str, object]:
        with self._cv:
            return {
                "backlog": len(self._backlog),
                "queue_depth": self.queue_depth,
                "dispatched": self.jobs_dispatched,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "worker_crashes": self.worker_crashes,
                "draining": self._draining,
                "workers": [
                    handle.snapshot() for handle in self._workers
                ],
            }

    # ------------------------------------------------------------------
    # submission / cancellation
    # ------------------------------------------------------------------
    def submit(self, job: GatewayJob) -> None:
        """Queue an accepted job for a worker; never blocks."""
        with self._cv:
            if self._draining:
                raise DispatcherDraining("dispatcher is draining")
            if len(self._backlog) >= self.queue_depth:
                raise DispatchBacklogFull(
                    f"dispatch backlog at capacity ({self.queue_depth})"
                )
            if not job.first_enqueued_at:
                job.first_enqueued_at = time.monotonic()
            self._backlog.append(job)
            obs.set_gauge("gateway.queue.depth", len(self._backlog))
            self._cv.notify_all()
        if job.trace is not None:
            job.trace.start_phase("gateway.queue")

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; dispatched jobs cannot be recalled."""
        with self._cv:
            for job in self._backlog:
                if job.job_id == job_id:
                    self._backlog.remove(job)
                    job.state = GatewayJobState.CANCELLED
                    job.finished_at = time.monotonic()
                    obs.set_gauge("gateway.queue.depth", len(self._backlog))
                    job.done.set()
                    obs.inc("gateway.jobs_cancelled")
                    if job.trace is not None:
                        job.trace.end_phase("gateway.queue")
                        job.trace.finish(state=job.state.value)
                    return True
        return False

    # ------------------------------------------------------------------
    # dispatch + completion
    # ------------------------------------------------------------------
    def _idle_worker(self) -> Optional[_WorkerHandle]:
        for handle in self._workers:
            if (
                handle.busy is None
                and not handle.respawning
                and handle.alive
            ):
                return handle
        return None

    def _dispatch_loop(self) -> None:
        while True:
            dead_jobs: list[GatewayJob] = []
            with self._cv:
                self._cv.wait_for(
                    lambda: self._stopped or (
                        self._backlog and self._idle_worker() is not None
                    ),
                    timeout=0.5,
                )
                if self._stopped:
                    return
                fleet_dead = all(
                    not h.alive and h.crashes > RESPAWN_LIMIT
                    for h in self._workers
                )
                if fleet_dead and self._backlog:
                    # nothing will ever serve these — fail fast instead
                    # of letting clients poll a permanently-queued job
                    dead_jobs = list(self._backlog)
                    self._backlog.clear()
                    obs.set_gauge("gateway.queue.depth", 0)
                handle = self._idle_worker()
                if dead_jobs or handle is None or not self._backlog:
                    job = None
                    proc = None
                    generation = -1
                else:
                    job = self._backlog.popleft()
                    obs.set_gauge("gateway.queue.depth", len(self._backlog))
                    handle.busy = job
                    job.worker_id = handle.worker_id
                    job.state = GatewayJobState.DISPATCHED
                    job.started_at = time.monotonic()
                    job.dispatch_attempts += 1
                    # pin the process + generation selected under the
                    # lock: if the worker dies and is respawned before
                    # the send below, writing to ``handle.proc`` would
                    # hit the *new* process while the recovery path has
                    # already requeued the job
                    proc = handle.proc
                    generation = handle.generation
            for dead in dead_jobs:
                self._fail_inflight(dead)
            if job is None:
                continue
            obs.observe(
                "gateway.queue_wait_seconds",
                time.monotonic() - job.first_enqueued_at,
            )
            if job.trace is not None:
                job.trace.end_phase("gateway.queue")
                job.trace.start_phase(
                    "gateway.attempt",
                    worker=handle.worker_id,
                    pid=handle.pid,
                    attempt=job.dispatch_attempts,
                )
            try:
                handle.send(protocol.job_message(
                    job.job_id, job.spec, job.snapshot_path,
                    traceparent=(
                        job.trace.traceparent
                        if job.trace is not None else None
                    ),
                ), proc=proc)
                with self._cv:
                    self.jobs_dispatched += 1
                obs.inc("gateway.jobs_dispatched", worker=handle.worker_id)
            except (OSError, ValueError):
                # broken pipe: recover the job now — the reader thread
                # may already have drained this generation's EOF, so the
                # per-generation guard makes double handling a no-op
                self._on_worker_exit(handle, generation)

    def _resolve(self, job: GatewayJob, event: dict) -> None:
        ok = bool(event.get("ok"))
        error = str(event.get("error") or "worker failure")
        job.cache_hit = bool(event.get("cache_hit"))
        job.attempts = int(event.get("attempts") or 0)
        job.retries = int(event.get("retries") or 0)
        job.rules = int(event.get("rules") or 0)
        job.computed_id = str(event.get("computed_id") or "")
        job.finished_at = time.monotonic()
        if job.computed_id and job.computed_id != job.job_id:
            # the worker stored the run under another content address,
            # so the shared cache holds nothing under the gateway's id
            obs.inc("gateway.fingerprint_mismatches")
            ok = False
            error = (
                f"worker computed job id {job.computed_id}, gateway "
                f"expected {job.job_id}: the worker's code or dataset "
                f"snapshot differs from the gateway's"
            )
        if ok:
            job.state = GatewayJobState.DONE
            job.source = "worker-cache" if job.cache_hit else "worker"
            with self._cv:
                self.jobs_completed += 1
        else:
            job.state = GatewayJobState.FAILED
            job.error = error
            job.source = "worker"
            with self._cv:
                self.jobs_failed += 1
        obs.inc(
            "gateway.jobs_completed",
            ok=ok, cache_hit=job.cache_hit,
        )
        if job.cache_hit:
            obs.inc("gateway.cache.hits", source="worker")
        elif ok:
            obs.inc("gateway.cache.misses", source="worker")
        if job.started_at is not None:
            obs.observe(
                "gateway.job_seconds", job.finished_at - job.started_at
            )
        if job.trace is not None:
            attempt = job.trace.end_phase(
                "gateway.attempt",
                ok=ok, cache_hit=job.cache_hit, rules=job.rules,
            )
            spans = event.get("spans")
            if spans:
                job.trace.graft(
                    spans, under=attempt, worker=job.worker_id or "",
                )
            job.trace.finish(
                state=job.state.value, source=job.source, error=job.error,
            )
        job.done.set()

    def _reader_loop(
        self,
        handle: _WorkerHandle,
        proc: subprocess.Popen,
        generation: int,
    ) -> None:
        assert proc is not None and proc.stdout is not None
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                event = protocol.decode_line(line)
            except protocol.ProtocolError:
                obs.inc("gateway.protocol_errors", worker=handle.worker_id)
                continue
            kind = event.get("event")
            if kind == "ready":
                with self._cv:
                    handle.ready = True
                    self._cv.notify_all()
            elif kind == "done":
                with self._cv:
                    job = handle.busy
                    handle.busy = None
                    handle.executed += 1
                    self._cv.notify_all()
                if job is not None:
                    self._resolve(job, event)
        self._on_worker_exit(handle, generation)

    def _fail_inflight(self, job: GatewayJob) -> None:
        job.state = GatewayJobState.FAILED
        job.error = "worker process died while executing the job"
        job.finished_at = time.monotonic()
        with self._cv:
            self.jobs_failed += 1
        obs.inc("gateway.jobs_completed", ok=False, cache_hit=False)
        if job.trace is not None:
            job.trace.end_phase("gateway.attempt", error=job.error)
            job.trace.finish(state=job.state.value, error=job.error)
        job.done.set()

    def _on_worker_exit(self, handle: _WorkerHandle, generation: int) -> None:
        """Stdout EOF / broken pipe: recover the job, maybe respawn.

        Idempotent per process generation: the dispatch loop (send
        failure) and the reader thread (EOF) may both observe one death.
        """
        with self._cv:
            if handle.exit_handled_gen >= generation:
                return
            handle.exit_handled_gen = generation
            # keep the handle out of _idle_worker until the replacement
            # process (if any) is fully spawned — the dying one can stay
            # unreapable for a moment after its pipes EOF, so ``alive``
            # alone cannot be trusted here
            handle.respawning = True
            job = handle.busy
            handle.busy = None
            stopping = self._draining or self._stopped
            crashed = job is not None or not stopping
            if crashed:
                handle.crashes += 1
                self.worker_crashes += 1
            self._cv.notify_all()
        if crashed:
            obs.inc("gateway.worker_crashes", worker=handle.worker_id)
        if job is not None and not job.state.terminal:
            if stopping or job.dispatch_attempts > 1:
                # during drain there is no fleet left to retry on; and a
                # twice-crashed job is poison — fail it loudly
                self._fail_inflight(job)
            else:
                if job.trace is not None:
                    # the aborted attempt stays in the tree, marked as an
                    # error; the retry lands beside it as a sibling
                    job.trace.end_phase(
                        "gateway.attempt", error="worker_crash",
                    )
                    job.trace.event(
                        "gateway.requeue",
                        worker=handle.worker_id,
                        attempt=job.dispatch_attempts,
                        waited_seconds=(
                            time.monotonic() - job.first_enqueued_at
                        ),
                    )
                with self._cv:
                    job.state = GatewayJobState.QUEUED
                    job.worker_id = None
                    self._backlog.appendleft(job)
                    obs.set_gauge(
                        "gateway.queue.depth", len(self._backlog)
                    )
                    self._cv.notify_all()
                obs.inc("gateway.jobs_requeued")
                if job.trace is not None:
                    job.trace.start_phase("gateway.queue", requeued=True)
        try:
            if not stopping and handle.crashes <= RESPAWN_LIMIT:
                handle.spawn()
                self._spawn_reader(handle)
        except OSError:
            pass
        finally:
            with self._cv:
                handle.respawning = False
                self._cv.notify_all()

    # ------------------------------------------------------------------
    # drain / stop
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Refuse new jobs, finish in-flight work, stop the fleet.

        Returns True when every queued and dispatched job reached a
        terminal state before the deadline; a False return means the
        fleet was stopped with work abandoned (those jobs stay
        non-terminal — callers surface that as a failed drain).
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cv:
            self._draining = True
            clean = self._cv.wait_for(
                lambda: not self._backlog and all(
                    handle.busy is None for handle in self._workers
                ),
                timeout=timeout,
            )
        self._shutdown_workers(deadline)
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        return clean

    def stop(self) -> None:
        """Hard stop: no waiting beyond the polite shutdown handshake."""
        with self._cv:
            self._draining = True
            self._stopped = True
            self._cv.notify_all()
        self._shutdown_workers(deadline=time.monotonic() + 5.0)

    def _shutdown_workers(self, deadline: float | None) -> None:
        for handle in self._workers:
            proc = handle.proc
            if proc is None or proc.poll() is not None:
                continue
            try:
                handle.send(protocol.shutdown_message())
                proc.stdin.close()
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            proc = handle.proc
            if proc is None:
                continue
            remaining = 5.0
            if deadline is not None:
                remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
