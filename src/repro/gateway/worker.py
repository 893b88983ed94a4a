"""Worker process entrypoint: ``python -m repro.gateway.worker``.

One worker is one OS process owning one
:class:`~repro.service.JobRunner` pointed at the *shared* on-disk
result cache.  It speaks the line protocol of
:mod:`repro.gateway.protocol` over stdin/stdout:

* reads ``job`` ops — each names a dataset snapshot file (written by
  the gateway via :mod:`repro.datasets.snapshot`), the full pipeline
  spec and the gateway's content-addressed job id;
* loads the snapshot (cached per dataset name), runs the job on its
  main thread through the runner (retry/backoff, disk cache), and
  emits a ``done`` event.  The snapshot carries no CSR: the worker
  compiles the graph's CSR on its first query and keeps it until the
  gateway republishes the dataset.  A cell another worker process
  already mined lands as a **cross-process cache hit** — the runner
  finds the entry in the shared cache and never touches a pipeline;
* exits cleanly on a ``shutdown`` op, stdin EOF, or SIGTERM/SIGINT.  A
  signal while idle exits at once; a signal during a job lets the job
  finish and report ``done`` first.

Stdout carries protocol lines only; anything human-readable goes to
stderr.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from pathlib import Path
from typing import IO

from repro.datasets.base import Dataset
from repro.datasets.snapshot import load_dataset
from repro.gateway import protocol
from repro.obs import distributed
from repro.obs import trace as obs_trace
from repro.service import JobRunner, ResultCache, RetryPolicy

__all__ = ["GatewayWorker", "main"]


class _DrainRequested(BaseException):
    """Raised out of a signal handler to leave an idle ``readline``.

    A ``BaseException`` so that no job-scoped ``except Exception`` can
    swallow it and report the drain as a failed job.
    """


class GatewayWorker:
    """The protocol loop around one :class:`~repro.service.JobRunner`."""

    def __init__(
        self,
        cache_dir: str | Path,
        worker_id: str = "w0",
        max_retries: int = 3,
        cache_max_entries: int | None = None,
        stdin: IO[str] | None = None,
        stdout: IO[str] | None = None,
    ) -> None:
        self.worker_id = worker_id
        self._stdin = stdin if stdin is not None else sys.stdin
        self._stdout = stdout if stdout is not None else sys.stdout
        self.runner = JobRunner(
            cache=ResultCache(cache_dir, max_entries=cache_max_entries),
            retry_policy=RetryPolicy(max_retries=max_retries),
            loader=self._load,
        )
        self._snapshots: dict[str, str] = {}
        self._datasets: dict[str, Dataset] = {}
        #: set by SIGTERM/SIGINT; the loop stops before the next op
        self._drain_requested = False
        #: True only while blocked reading the next op — the one place
        #: a signal may interrupt
        self._idle = False
        self.jobs_handled = 0

    # ------------------------------------------------------------------
    def _load(self, name: str) -> Dataset:
        """Runner loader: datasets come from snapshot files."""
        try:
            return self._datasets[name.lower()]
        except KeyError:
            raise KeyError(
                f"worker has no snapshot for dataset {name!r}"
            ) from None

    def _ensure_snapshot(self, name: str, path: str) -> None:
        """Load (or reload) the dataset behind ``name``.

        A changed snapshot path for a known name means the gateway
        republished the dataset (watch mode, or a regenerated graph):
        the runner forgets that dataset's fingerprint, context and
        warmed pipelines, while every other dataset stays warm.
        """
        name = name.lower()
        if self._snapshots.get(name) == path:
            return
        self._datasets[name] = load_dataset(path)
        self._snapshots[name] = path
        self.runner.forget(name)

    # ------------------------------------------------------------------
    def _emit(self, message: dict) -> None:
        self._stdout.write(protocol.encode_line(message))
        self._stdout.flush()

    def _begin_trace(
        self, message: dict, job_id: str
    ) -> tuple[object, object, str] | None:
        """Adopt the gateway's trace context for one job, if present.

        Installs a fresh per-job collector and opens the worker-side
        root span; every service/pipeline span the mining run records
        nests under it on this thread.  Returns
        ``(collector, root, trace_id)`` plus remembers the previously
        installed collector for restoration.
        """
        context = distributed.parse_traceparent(message.get("trace"))
        if context is None:
            return None
        trace_id, parent_span = context
        self._previous_collector = obs_trace.get_collector()
        collector = obs_trace.TraceCollector()
        obs_trace.install(collector)
        root = collector.start_span("worker.job", {
            "trace_id": trace_id,
            "remote_parent": parent_span,
            "job_id": job_id[:12],
            "worker": self.worker_id,
            "pid": os.getpid(),
        })
        return collector, root, trace_id

    def _end_trace(
        self, adopted: tuple[object, object, str] | None,
        error: str | None = None,
    ) -> tuple[str | None, dict | None]:
        """Close the job's root span, restore the previous collector and
        serialise the finished tree for the ``done`` event."""
        if adopted is None:
            return None, None
        collector, root, trace_id = adopted
        if error is not None:
            root.attributes.setdefault("error", error)
        collector.end_span(root)
        previous = getattr(self, "_previous_collector", None)
        if previous is not None:
            obs_trace.install(previous)
        else:
            obs_trace.uninstall()
        self._previous_collector = None
        return trace_id, distributed.span_to_wire(root)

    def handle_job(self, message: dict) -> None:
        job_id = str(message.get("job_id", ""))
        started = time.monotonic()
        adopted = self._begin_trace(message, job_id)
        try:
            spec = protocol.parse_submit(message["spec"])
            self._ensure_snapshot(spec.dataset, str(message["snapshot"]))
            trace_tags = (
                {"trace_id": adopted[2]} if adopted is not None else None
            )
            result = self.runner.run(spec, trace_tags=trace_tags)
        except Exception as error:
            # mining failures, snapshot errors, protocol drift — anything
            # job-scoped becomes a failed done event, never a dead worker
            reason = f"{type(error).__name__}: {error}"
            trace_id, spans = self._end_trace(adopted, error=reason)
            self._emit(protocol.done_event(
                job_id, ok=False,
                run_seconds=time.monotonic() - started,
                error=reason,
                trace=trace_id, spans=spans,
            ))
        else:
            trace_id, spans = self._end_trace(adopted)
            self._emit(protocol.done_event(
                job_id, ok=True,
                cache_hit=result.cache_hit,
                attempts=result.attempts,
                retries=result.retries,
                rules=result.run.rule_count,
                run_seconds=time.monotonic() - started,
                computed_id=result.job_id,
                trace=trace_id, spans=spans,
            ))
        finally:
            self.jobs_handled += 1

    # ------------------------------------------------------------------
    def _install_signal_handlers(self) -> None:
        def handler(signum: int, frame: object) -> None:
            self._drain_requested = True
            if self._idle:
                raise _DrainRequested()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, handler)
            except ValueError:  # not the main thread (tests)
                return

    def _read_op(self) -> str:
        self._idle = True
        try:
            return self._stdin.readline()
        finally:
            self._idle = False

    def run(self) -> int:
        """Protocol loop: read ops until shutdown/EOF/signal."""
        self._install_signal_handlers()
        self._emit(protocol.ready_event(self.worker_id, os.getpid()))
        exit_code = 0
        try:
            while not self._drain_requested:
                line = self._read_op()
                if not line:          # gateway closed stdin
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = protocol.decode_line(line)
                except protocol.ProtocolError as error:
                    print(
                        f"worker {self.worker_id}: {error}",
                        file=sys.stderr,
                    )
                    exit_code = 2
                    break
                op = message.get("op")
                if op == "shutdown":
                    break
                if op == "job":
                    self.handle_job(message)
                # unknown ops are skipped: a newer gateway may send
                # advisory ops an older worker can safely ignore
        except _DrainRequested:
            pass
        finally:
            self._emit({
                "event": "bye",
                "worker_id": self.worker_id,
                "jobs": self.jobs_handled,
            })
        return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway.worker",
        description=(
            "Gateway worker process: runs mining jobs from stdin "
            "(JSON lines), stores results in the shared on-disk cache, "
            "reports completions on stdout."
        ),
    )
    parser.add_argument("--cache-dir", required=True, metavar="PATH")
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument("--max-retries", type=int, default=3)
    parser.add_argument(
        "--cache-max-entries", type=int, default=None,
        help="LRU bound the worker enforces on the shared result cache",
    )
    args = parser.parse_args(argv)
    worker = GatewayWorker(
        cache_dir=args.cache_dir,
        worker_id=args.worker_id,
        max_retries=args.max_retries,
        cache_max_entries=args.cache_max_entries,
    )
    return worker.run()


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    sys.exit(main())
