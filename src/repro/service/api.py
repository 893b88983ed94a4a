"""The job runner: one mining job, start to finish, on the caller's thread.

:class:`JobRunner` turns a :class:`~repro.service.jobs.JobSpec` into a
scored :class:`~repro.mining.result.MiningRun`::

    runner = JobRunner(cache=ResultCache("~/.repro-cache"))
    spec = JobSpec("wwc2019", "llama3", "rag", "zero_shot")
    job_id, run, cache_hit, attempts, retries = runner.run(spec)

A job's id is the content address of its (graph, code, config) triple,
so running the same spec twice yields the same id and, with a cache, at
most one mining run.  Results persist in the on-disk
:class:`~repro.service.cache.ResultCache`, so a fresh process re-running
an already-mined cell answers from cache without touching a pipeline.
A miss mines on the runner's :class:`~repro.mining.pool.PipelinePool`:
one warmed pipeline per (dataset, method, chunking), shared by every
seed, so a fresh seed costs the prompts and scoring, not re-chunking
and re-embedding the graph.  Transient LLM failures are retried with
exponential backoff per the :class:`~repro.service.workers.RetryPolicy`;
everything is instrumented through :mod:`repro.obs` (cache hit/miss,
retries, job latency).

The runner is not thread-safe: the CLI grid loops over it, and each
gateway worker process owns one.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional

from repro import obs
from repro.datasets.base import Dataset
from repro.datasets.registry import load
from repro.mining.pipeline import PROMPT_MODES
from repro.mining.pool import METHODS, PipelinePool
from repro.mining.result import MiningRun
from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec, cache_key, graph_fingerprint
from repro.service.workers import RetryPolicy, call_with_retry

__all__ = ["JobResult", "JobRunner"]


class JobResult(NamedTuple):
    """What :meth:`JobRunner.run` returns for a finished job."""

    job_id: str                      # == the result-cache content address
    run: MiningRun
    cache_hit: bool
    attempts: int                    # mining attempts actually started
    retries: int                     # attempts beyond the first


class JobRunner:
    """Content address + result cache + pooled pipelines + retry."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        retry_policy: RetryPolicy | None = None,
        loader: Callable[[str], Dataset] | None = None,
        llm_middleware: Callable[[object], object] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache
        self.retry_policy = retry_policy or RetryPolicy()
        self.loader = loader or load
        self.pool = PipelinePool(self.loader, llm_middleware)
        self._sleep = sleep
        self._clock = clock
        self._fingerprints: dict[str, str] = {}

    # ------------------------------------------------------------------
    # dataset / pipeline plumbing
    # ------------------------------------------------------------------
    def job_id(self, spec: JobSpec) -> str:
        """The spec's content address; rejects unknown methods/prompts."""
        if spec.method not in METHODS:
            raise ValueError(
                f"unknown method {spec.method!r}; one of {METHODS}"
            )
        if spec.prompt_mode not in PROMPT_MODES:
            raise ValueError(
                f"unknown prompt mode {spec.prompt_mode!r}; "
                f"one of {PROMPT_MODES}"
            )
        key = spec.dataset.lower()
        if key not in self._fingerprints:
            self._fingerprints[key] = graph_fingerprint(
                self.loader(key).graph
            )
        return cache_key(spec, self._fingerprints[key])

    def forget(self, dataset: str) -> None:
        """Drop one dataset's fingerprint and pooled pipelines, so the
        next job re-reads it through the loader; other datasets stay
        warm."""
        key = dataset.lower()
        self._fingerprints.pop(key, None)
        self.pool.forget(key)

    # ------------------------------------------------------------------
    # the job
    # ------------------------------------------------------------------
    def run(
        self, spec: JobSpec, trace_tags: Optional[dict] = None,
    ) -> JobResult:
        """Run one job: answer from the cache, or mine and store.

        Raises whatever ended the job: a non-transient pipeline error
        at once, :class:`~repro.service.workers.RetriesExhaustedError`
        or :class:`~repro.service.workers.JobTimeoutError` once the
        retry policy gives up.  ``trace_tags`` are stamped onto the
        job's ``service.job`` span.
        """
        job_id = self.job_id(spec)
        cached = self.cache.get(job_id) if self.cache is not None else None
        if cached is not None:
            obs.inc("service.jobs_completed", cache_hit=True)
            return JobResult(job_id, cached, True, 0, 0)

        dataset, model, method, prompt_mode = spec.cell()
        attempts = 0
        retries = 0

        def attempt() -> MiningRun:
            nonlocal attempts
            attempts += 1
            with obs.span(
                "service.attempt", job_id=job_id[:12], attempt=attempts,
            ):
                pipeline = self.pool.pipeline(
                    dataset, method,
                    window_size=spec.window_size, overlap=spec.overlap,
                    rag_chunk_tokens=spec.rag_chunk_tokens,
                    rag_top_k=spec.rag_top_k,
                )
                pipeline.base_seed = spec.base_seed
                return pipeline.mine(model, prompt_mode)

        def on_retry(
            _attempt: int, pause: float, _error: BaseException,
        ) -> None:
            nonlocal retries
            retries += 1
            obs.inc("service.retries")
            obs.observe("service.retry_backoff_seconds", pause)

        started = self._clock()
        try:
            with obs.span(
                "service.job", job_id=job_id[:12], dataset=dataset,
                model=model, method=method, prompt_mode=prompt_mode,
            ) as sp:
                for tag, value in (trace_tags or {}).items():
                    sp.set_attribute(tag, value)
                run = call_with_retry(
                    attempt, self.retry_policy,
                    sleep=self._sleep, clock=self._clock,
                    on_retry=on_retry,
                )
                sp.set_attribute("attempts", attempts)
                sp.set_attribute("rules", run.rule_count)
            if self.cache is not None:
                self.cache.put(
                    job_id, run,
                    meta={"cell": list(spec.cell()), "attempts": attempts},
                )
        except Exception as error:
            obs.inc("service.jobs_failed", error=type(error).__name__)
            raise
        finally:
            obs.observe("service.job_seconds", self._clock() - started)
        obs.inc("service.jobs_completed", cache_hit=False)
        return JobResult(job_id, run, False, attempts, retries)
