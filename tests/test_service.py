"""Unit tests for the mining job service: job identity, retry/backoff,
and the content-addressed result cache."""

from __future__ import annotations

import json
import sys

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.graph import PropertyGraph
from repro.llm.faults import TransientLLMError
from repro.mining import PipelineContext, RAGPipeline, SlidingWindowPipeline
from repro.mining.persistence import FORMAT_VERSION
from repro.mining.result import MiningRun
from repro.service import (
    JobSpec,
    JobTimeoutError,
    ResultCache,
    RetriesExhaustedError,
    RetryPolicy,
    cache_key,
    call_with_retry,
    graph_fingerprint,
)
from repro.service.jobs import _CODE_FINGERPRINT_MODULES


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_graph(name: str = "tiny", variant: int = 0) -> PropertyGraph:
    graph = PropertyGraph(name)
    for index in range(6):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index + variant}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    return graph


def build_dataset(name: str = "tiny", variant: int = 0) -> Dataset:
    return Dataset(
        graph=build_graph(name, variant), true_rules=[], dirt=DirtReport()
    )


SPEC = JobSpec(
    dataset="tiny", model="llama3", method="rag", prompt_mode="zero_shot"
)


# ----------------------------------------------------------------------
# job identity
# ----------------------------------------------------------------------
#: modules of ``repro.rag``, ``repro.prompts`` and ``repro.encoding`` that
#: stay out of the code fingerprint, each with the reason its source
#: cannot change a mined run
FINGERPRINT_EXEMPT = {
    "repro.rag": "package init: re-exports only",
    "repro.prompts": "package init: re-exports only",
    "repro.encoding": "package init: re-exports only",
    "repro.encoding.adjacency":
        "the ablation encoder; the pipelines mine the incident encoding",
    "repro.encoding.dirty":
        "watch-mode block invalidation; a mined run never calls it",
}


class TestJobIdentity:
    def test_same_inputs_same_id(self):
        fp_a = graph_fingerprint(build_graph())
        fp_b = graph_fingerprint(build_graph())
        assert fp_a == fp_b
        assert cache_key(SPEC, fp_a, "code") == cache_key(SPEC, fp_b, "code")

    def test_insertion_order_does_not_matter(self):
        forward = build_graph()
        backward = PropertyGraph("tiny")
        for index in reversed(range(6)):
            backward.add_node(f"t{index}", "Tweet", {
                "id": 100 + index, "text": f"tweet {index}",
                "created_at": f"2021-03-{index + 1:02d}T09:00:00",
            })
            backward.add_node(f"u{index}", "User", {
                "id": index, "screen_name": f"@user{index}",
            })
            backward.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
        assert graph_fingerprint(forward) == graph_fingerprint(backward)

    def test_graph_change_changes_id(self):
        fp_a = graph_fingerprint(build_graph(variant=0))
        fp_b = graph_fingerprint(build_graph(variant=1))
        assert fp_a != fp_b
        assert cache_key(SPEC, fp_a, "code") != cache_key(SPEC, fp_b, "code")

    def test_config_change_changes_id(self):
        fp = graph_fingerprint(build_graph())
        tweaked = JobSpec(
            dataset="tiny", model="llama3", method="rag",
            prompt_mode="zero_shot", rag_top_k=4,
        )
        assert cache_key(SPEC, fp, "code") != cache_key(tweaked, fp, "code")

    def test_code_change_changes_id(self):
        fp = graph_fingerprint(build_graph())
        assert cache_key(SPEC, fp, "v1") != cache_key(SPEC, fp, "v2")

    def test_code_fingerprint_lists_every_module_a_run_loads(self):
        context = PipelineContext.build(build_dataset())
        RAGPipeline(context).mine("llama3", "zero_shot")
        SlidingWindowPipeline(context).mine("llama3", "zero_shot")
        loaded = {
            name for name in sys.modules
            for package in ("repro.rag", "repro.prompts", "repro.encoding")
            if name == package or name.startswith(package + ".")
        }
        assert "repro.rag.embeddings" in loaded
        unlisted = loaded - set(_CODE_FINGERPRINT_MODULES)
        assert unlisted <= set(FINGERPRINT_EXEMPT), sorted(
            unlisted - set(FINGERPRINT_EXEMPT)
        )


# ----------------------------------------------------------------------
# retry/backoff
# ----------------------------------------------------------------------
class FakeClock:
    """Manual clock: sleeping advances time; so does nothing else."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestRetryPolicy:
    def test_exponential_schedule_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=3.0)
        assert [policy.delay(i) for i in range(4)] == [1.0, 2.0, 3.0, 3.0]

    def test_retries_then_succeeds_with_backoff(self):
        clock = FakeClock()
        calls = []

        def flaky():
            calls.append(clock())
            if len(calls) < 3:
                raise TransientLLMError("boom")
            return "ok"

        policy = RetryPolicy(max_retries=3, base_delay=0.5, multiplier=2.0)
        result = call_with_retry(
            flaky, policy, sleep=clock.sleep, clock=clock
        )
        assert result == "ok"
        assert len(calls) == 3
        assert clock.sleeps == [0.5, 1.0]

    def test_retries_exhausted(self):
        clock = FakeClock()

        def always_fails():
            raise TransientLLMError("down")

        policy = RetryPolicy(max_retries=2, base_delay=0.1)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            call_with_retry(
                always_fails, policy, sleep=clock.sleep, clock=clock
            )
        assert excinfo.value.attempts == 3       # initial + 2 retries
        assert clock.sleeps == [0.1, 0.2]

    def test_non_retryable_propagates_immediately(self):
        clock = FakeClock()

        def broken():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retry(
                broken, RetryPolicy(), sleep=clock.sleep, clock=clock
            )
        assert clock.sleeps == []

    def test_cooperative_timeout_stops_backoff(self):
        clock = FakeClock()

        def always_fails():
            raise TransientLLMError("down")

        policy = RetryPolicy(
            max_retries=10, base_delay=2.0, timeout_seconds=5.0
        )
        with pytest.raises(JobTimeoutError):
            call_with_retry(
                always_fails, policy, sleep=clock.sleep, clock=clock
            )
        # first backoff (2s) fits the 5s budget; the second (4s) would
        # land past the deadline, so it is never slept
        assert clock.sleeps == [2.0]


# ----------------------------------------------------------------------
# on-disk result cache
# ----------------------------------------------------------------------
def make_run() -> MiningRun:
    return MiningRun(
        dataset="tiny", model="llama3", method="rag",
        prompt_mode="zero_shot", mining_seconds=1.5,
    )


KEY = "ab" + "0" * 62


class TestResultCache:
    def test_miss_put_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) is None
        cache.put(KEY, make_run())
        fetched = cache.get(KEY)
        assert fetched is not None
        assert fetched.key() == make_run().key()
        assert fetched.mining_seconds == 1.5
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_hit_across_reload(self, tmp_path):
        ResultCache(tmp_path).put(KEY, make_run())
        reloaded = ResultCache(tmp_path)          # fresh process simulant
        assert KEY in reloaded
        fetched = reloaded.get(KEY)
        assert fetched is not None
        assert fetched.key() == make_run().key()
        assert reloaded.stats.hits == 1

    def test_corrupt_entry_is_evicted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(KEY) is None
        assert cache.stats.evictions == 1
        assert not path.exists()

    def test_key_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, make_run())
        other = "cd" + "0" * 62
        payload = json.loads(cache.path_for(KEY).read_text())
        path = cache.path_for(other)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))      # stored under wrong key
        assert cache.get(other) is None

    def test_newer_format_entry_is_left_alone_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "format_version": FORMAT_VERSION + 1,
            "key": KEY,
            "run": {"format_version": FORMAT_VERSION + 1},
        }))
        assert cache.get(KEY) is None
        assert path.exists()                      # not evicted
        assert cache.stats.misses == 1

    def test_keys_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(KEY, make_run())
        assert cache.keys() == [KEY]
        assert len(cache) == 1
