"""End-to-end tests for JobRunner: one id and one mining run per spec,
disk-cache reuse across a process-simulating reload, config-hash
invalidation, one warm pipeline shared by every seed, forgetting a
republished dataset, and transient-failure retry."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.graph import PropertyGraph
from repro.llm.faults import TransientFaultInjector
from repro.mining import PipelineContext, RAGPipeline, SlidingWindowPipeline
from repro.mining.persistence import run_to_dict
from repro.service import (
    JobRunner,
    JobSpec,
    ResultCache,
    RetriesExhaustedError,
    RetryPolicy,
)

#: retry instantly — backoff schedules are unit-tested separately
FAST_RETRY = RetryPolicy(max_retries=3, base_delay=0.0)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset(name: str) -> Dataset:
    graph = PropertyGraph(name)
    for index in range(8):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


@pytest.fixture()
def loader():
    cache: dict[str, Dataset] = {}

    def load(name: str) -> Dataset:
        if name not in cache:
            cache[name] = build_dataset(name)
        return cache[name]

    return load


def runner(loader, cache_dir=None, **kwargs) -> JobRunner:
    kwargs.setdefault("retry_policy", FAST_RETRY)
    kwargs.setdefault("sleep", lambda seconds: None)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return JobRunner(cache=cache, loader=loader, **kwargs)


def spec(method: str = "rag", model: str = "llama3", **knobs) -> JobSpec:
    return JobSpec("tiny", model, method, "zero_shot", **knobs)


# ----------------------------------------------------------------------
# identity + caching
# ----------------------------------------------------------------------
class TestSubmission:
    def test_duplicate_submit_is_one_job(self, loader, tmp_path):
        jobs = runner(loader, tmp_path)
        first = jobs.run(spec())
        second = jobs.run(spec())
        assert first.job_id == second.job_id
        assert first.run.rule_count >= 0
        assert (first.cache_hit, first.attempts) == (False, 1)
        # exactly one mining run: the repeat was answered from the cache
        assert (second.cache_hit, second.attempts) == (True, 0)
        assert second.run.key() == first.run.key()
        assert jobs.cache.stats.stores == 1

    def test_unknown_method_and_prompt_rejected(self, loader):
        jobs = runner(loader)
        with pytest.raises(ValueError):
            jobs.run(JobSpec("tiny", "llama3", "nope", "zero_shot"))
        with pytest.raises(ValueError):
            jobs.run(JobSpec("tiny", "llama3", "rag", "nope"))


class TestDiskCache:
    def test_second_service_answers_from_cache(self, loader, tmp_path):
        first = runner(loader, tmp_path)
        original = first.run(spec())
        assert first.cache.stats.stores == 1

        collector = obs.install()
        # a second runner on the same directory stands in for a fresh
        # process: nothing in memory, everything on disk
        again = runner(loader, tmp_path).run(spec())
        assert again.job_id == original.job_id
        assert again.cache_hit is True
        assert again.attempts == 0                # nothing re-mined
        assert again.run.key() == original.run.key()
        assert again.run.rule_count == original.run.rule_count
        hits = collector.metrics.counter("service.cache.hits")
        assert hits.total() == 1
        # no mining span was opened on the cache-served pass
        names = {item.name for item in collector.iter_spans()}
        assert "mine.rag" not in names

    def test_config_change_re_mines(self, loader, tmp_path):
        original = runner(loader, tmp_path).run(spec())
        tweaked = runner(loader, tmp_path).run(spec(rag_top_k=4))
        assert tweaked.job_id != original.job_id
        assert tweaked.cache_hit is False
        assert tweaked.attempts == 1


class TestForget:
    def test_forget_re_reads_only_that_dataset(self):
        datasets = {
            "tiny": build_dataset("tiny"), "other": build_dataset("other"),
        }
        loads: list[str] = []

        def load(name: str) -> Dataset:
            loads.append(name)
            return datasets[name]

        jobs = runner(load)
        before = jobs.run(spec())
        other = JobSpec("other", "llama3", "rag", "zero_shot")
        jobs.run(other)

        # republish "tiny" with users that lack a screen name
        mutated = build_dataset("tiny")
        for index in range(8, 12):
            mutated.graph.add_node(f"u{index}", "User", {"id": index})
        datasets["tiny"] = mutated
        jobs.forget("tiny")
        other_loads = loads.count("other")
        after = jobs.run(spec())
        jobs.run(other)

        fresh = runner(lambda name: mutated).run(spec())
        assert run_to_dict(fresh.run) != run_to_dict(before.run)
        # the forgotten dataset is re-read: new address, new graph mined
        assert after.job_id == fresh.job_id != before.job_id
        assert run_to_dict(after.run) == run_to_dict(fresh.run)
        # the other dataset stayed warm: never loaded again
        assert loads.count("other") == other_loads

    def test_forget_re_indexes_only_that_dataset(self, loader):
        jobs = runner(loader)
        cells = [spec(), JobSpec("other", "llama3", "rag", "zero_shot")]
        for cell in cells:
            jobs.run(cell)
        collector = obs.install()
        jobs.forget("tiny")
        for cell in cells:
            jobs.run(JobSpec(*cell.cell(), base_seed=1))
        indexed = {
            job.attributes["dataset"]: sum(
                span.name == "rag.index" for span in job.walk()
            )
            for job in collector.iter_spans() if job.name == "service.job"
        }
        assert indexed == {"tiny": 1, "other": 0}


# ----------------------------------------------------------------------
# one warm pipeline per (dataset, method, chunking), shared by every seed
# ----------------------------------------------------------------------
class TestSharedPipelines:
    def test_every_seed_mines_what_a_fresh_pipeline_mines(self, loader):
        cells = [
            (method, seed, top_k)
            for method in ("rag", "sliding_window")
            for seed in (0, 1, 7, 1, 0)
            for top_k in (16, 4)
        ]
        random.Random(5).shuffle(cells)
        context = PipelineContext.build(loader("tiny"))
        expected = {}
        for method, seed, top_k in set(cells):
            if method == "rag":
                fresh = RAGPipeline(context, top_k=top_k, base_seed=seed)
            else:
                fresh = SlidingWindowPipeline(context, base_seed=seed)
            expected[method, seed, top_k] = run_to_dict(
                fresh.mine("llama3", "zero_shot")
            )

        collector = obs.install()
        jobs = runner(loader)
        for method, seed, top_k in cells:
            result = jobs.run(spec(method, base_seed=seed, rag_top_k=top_k))
            assert run_to_dict(result.run) == expected[method, seed, top_k]
        # one index and one retrieval per (dataset, chunking), not per seed
        spans = list(collector.iter_spans())
        assert sorted(
            span.attributes["top_k"] for span in spans
            if span.name == "retrieve"
        ) == [4, 16]
        assert sum(span.name == "rag.index" for span in spans) == 2


# ----------------------------------------------------------------------
# retry/backoff against injected transient failures
# ----------------------------------------------------------------------
class TestTransientFailures:
    def test_transient_failures_retried_until_done(self, loader):
        injector = TransientFaultInjector(failures=2)
        sleeps: list[float] = []
        collector = obs.install()
        jobs = JobRunner(
            loader=loader, llm_middleware=injector,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.25),
            sleep=sleeps.append,
        )
        result = jobs.run(spec(model="mixtral"))
        assert result.attempts == 3               # 2 failures + 1 success
        assert result.retries == 2
        assert injector.injected == 2
        assert sleeps == [0.25, 0.5]              # exponential backoff
        assert result.run.rule_count >= 0
        retries = collector.metrics.counter("service.retries")
        assert retries.total() == 2

    def test_exhausted_retries_fail_the_job(self, loader):
        injector = TransientFaultInjector(failures=100)
        collector = obs.install()
        jobs = runner(
            loader, llm_middleware=injector,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0),
        )
        with pytest.raises(RetriesExhaustedError):
            jobs.run(spec())
        failed = collector.metrics.counter("service.jobs_failed")
        assert failed.value(error="RetriesExhaustedError") == 1


# ----------------------------------------------------------------------
# the acceptance scenario: a grid slice through the runner, twice
# ----------------------------------------------------------------------
class TestGridSliceTwice:
    SLICE = [
        spec(method, model)
        for method in ("rag", "sliding_window")
        for model in ("llama3", "mixtral")
    ]

    def test_second_pass_is_all_cache_hits(self, loader, tmp_path):
        first = runner(loader, tmp_path)
        originals = [first.run(cell) for cell in self.SLICE]
        assert first.cache.stats.stores == 4

        collector = obs.install()
        second = runner(loader, tmp_path)
        replay = [second.run(cell) for cell in self.SLICE]
        assert [r.job_id for r in replay] == [r.job_id for r in originals]
        for again, original in zip(replay, originals):
            assert again.cache_hit is True
            assert again.attempts == 0            # nothing re-mined
            assert again.run.key() == original.run.key()
            assert again.run.rule_count == original.run.rule_count
        hits = collector.metrics.counter("service.cache.hits")
        assert hits.total() == 4
        names = {item.name for item in collector.iter_spans()}
        assert not any(name.startswith("mine.") for name in names)
