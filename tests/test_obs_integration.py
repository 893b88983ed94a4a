"""End-to-end observability: the mining pipelines emit the expected
span trees and the LLM counters match the runs' reported totals."""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.graph import PropertyGraph
from repro.mining import PipelineContext, RAGPipeline, SlidingWindowPipeline
from repro.mining.parallel import ParallelSlidingWindowPipeline


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset() -> Dataset:
    graph = PropertyGraph("mini")
    for index in range(40):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
    for index in range(80):
        graph.add_node(f"t{index}", "Tweet", {
            "id": index,
            "text": f"tweet number {index}",
            "created_at": f"2021-02-{(index % 28) + 1:02d}T08:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index % 40}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


def span_names(collector: obs.TraceCollector) -> set[str]:
    return {item.name for item in collector.iter_spans()}


def test_sliding_window_trace_and_counters():
    collector = obs.install()
    context = PipelineContext.build(build_dataset())
    pipeline = SlidingWindowPipeline(context, window_size=1500, overlap=150)
    run = pipeline.mine("llama3", "zero_shot")

    # the full pipeline shape: encode → window → LLM call → translate
    # → evaluate (evaluate drives cypher.execute)
    assert {
        "encode", "mine.sliding_window", "window", "llm.call",
        "translate", "evaluate", "cypher.execute",
    } <= span_names(collector)

    # tree shape: windows and translations nest under the mine span
    mine_span = next(
        item for item in collector.iter_spans()
        if item.name == "mine.sliding_window"
    )
    child_names = {child.name for child in mine_span.children}
    assert {"window", "translate"} <= child_names
    windows = [c for c in mine_span.children if c.name == "window"]
    assert len(windows) == run.window_count
    assert all(
        any(g.name == "llm.call" for g in w.children) for w in windows
    )

    # LLM counters match the run's reported totals exactly
    metrics = collector.metrics
    assert metrics.counter("llm.calls").total() == run.llm_calls
    assert metrics.counter("llm.prompt_tokens").total() == run.prompt_tokens
    assert (
        metrics.counter("llm.completion_tokens").total()
        == run.completion_tokens
    )
    assert run.llm_calls == run.window_count + run.rule_count

    # simulated seconds on the llm.call spans reproduce the run's clock
    sim_total = sum(
        item.sim_seconds for item in collector.iter_spans()
        if item.name == "llm.call"
    )
    assert sim_total == pytest.approx(
        run.mining_seconds + run.cypher_seconds
    )


def test_rag_trace_and_counters():
    collector = obs.install()
    context = PipelineContext.build(build_dataset())
    run = RAGPipeline(context, chunk_tokens=256, top_k=4).mine(
        "llama3", "zero_shot"
    )

    assert {
        "encode", "mine.rag", "rag.index", "vectorstore.add", "retrieve",
        "llm.call", "translate", "evaluate", "cypher.execute",
    } <= span_names(collector)

    metrics = collector.metrics
    assert metrics.counter("llm.calls").total() == run.llm_calls
    assert metrics.counter("llm.prompt_tokens").total() == run.prompt_tokens
    assert (
        metrics.counter("rag.chunks_retrieved").total()
        == run.retrieved_chunks
    )
    # RAG mines with a single call; the rest are Cypher translations
    assert run.llm_calls == 1 + run.rule_count


def test_parallel_pipeline_worker_spans():
    collector = obs.install()
    context = PipelineContext.build(build_dataset())
    pipeline = ParallelSlidingWindowPipeline(
        context, workers=3, window_size=1500, overlap=150
    )
    run = pipeline.mine("llama3", "zero_shot")

    assert {
        "mine.parallel_sliding_window", "window", "worker", "llm.call",
    } <= span_names(collector)
    workers = [
        item for item in collector.iter_spans() if item.name == "worker"
    ]
    assert len(workers) == 3
    assert (
        sum(worker.attributes["windows"] for worker in workers)
        == run.window_count
    )
    # makespan: the slowest worker's simulated time is the mining time
    assert max(
        worker.sim_seconds for worker in workers
    ) == pytest.approx(run.mining_seconds)
    assert collector.metrics.counter("llm.calls").total() == run.llm_calls
    # one loop on the calling thread: the windows are siblings under the
    # mine span, in window order, and belong to no worker
    (mine,) = [
        root for root in collector.roots
        if root.name == "mine.parallel_sliding_window"
    ]
    windows = [child for child in mine.children if child.name == "window"]
    assert [w.attributes["index"] for w in windows] == list(
        range(run.window_count)
    )
    assert not any("worker" in w.attributes for w in windows)
    assert collector.metrics.counter(
        "mining.windows_prompted"
    ).total() == run.window_count


def test_pipelines_unchanged_without_collector():
    """Instrumentation must not alter results when obs is off."""
    context = PipelineContext.build(build_dataset())
    baseline = SlidingWindowPipeline(
        context, window_size=1500, overlap=150
    ).mine("llama3", "zero_shot")

    obs.install()
    traced_run = SlidingWindowPipeline(
        context, window_size=1500, overlap=150
    ).mine("llama3", "zero_shot")
    obs.uninstall()

    assert [r.rule.text for r in traced_run.results] == [
        r.rule.text for r in baseline.results
    ]
    assert traced_run.mining_seconds == baseline.mining_seconds
    assert traced_run.prompt_tokens == baseline.prompt_tokens
