"""Tests for the future-work pipelines: parallel SWA and summary mining."""

import threading

import pytest

from repro.llm.simulated import SimulatedLLM
from repro.mining import (
    PROMPT_MODES,
    ParallelSlidingWindowPipeline,
    PipelineContext,
    SlidingWindowPipeline,
    SummaryPipeline,
    build_summary_statements,
    run_seed,
    run_to_dict,
)
from repro.prompts import examples_text, few_shot_prompt, zero_shot_prompt


@pytest.fixture(scope="module")
def context(cyber_dataset):
    return PipelineContext.build(cyber_dataset)


def round_robin_bins(context, model, prompt_mode, workers):
    """``workers`` bins, window ``i`` in bin ``i % workers``, each the
    sum of its windows' latencies from a fresh LLM seeded like the
    sequential run."""
    llm = SimulatedLLM(model, seed=run_seed(
        context.name, model, "sliding_window", prompt_mode,
    ))
    bins = [0.0] * workers
    for window in SlidingWindowPipeline(context).window_set.windows:
        if prompt_mode == "few_shot":
            prompt = few_shot_prompt(window.text, examples_text())
        else:
            prompt = zero_shot_prompt(window.text)
        bins[window.index % workers] += llm.complete(prompt).latency_seconds
    return bins


class TestParallelPipeline:
    def test_worker_validation(self, context):
        with pytest.raises(ValueError):
            ParallelSlidingWindowPipeline(context, workers=0)

    @pytest.mark.parametrize("prompt_mode", PROMPT_MODES)
    @pytest.mark.parametrize("workers", (1, 2, 3, 8))
    def test_sequential_run_retimed(self, context, workers, prompt_mode):
        sequential = run_to_dict(
            SlidingWindowPipeline(context).mine("llama3", prompt_mode)
        )
        pipeline = ParallelSlidingWindowPipeline(context, workers=workers)
        parallel = run_to_dict(pipeline.mine("llama3", prompt_mode))
        assert parallel.pop("method") == "parallel_sliding_window"
        makespan = parallel.pop("mining_seconds")
        del sequential["method"], sequential["mining_seconds"]
        assert parallel == sequential
        bins = round_robin_bins(context, "llama3", prompt_mode, workers)
        assert [r.seconds for r in pipeline.worker_reports] == bins
        assert makespan == max(bins)

    def test_mines_without_threads(self, context, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        run = ParallelSlidingWindowPipeline(context, workers=4).mine(
            "llama3", "zero_shot"
        )
        assert run.window_count > 4

    def test_same_rules_as_sequential(self, context):
        sequential = SlidingWindowPipeline(context).mine(
            "llama3", "zero_shot"
        )
        parallel = ParallelSlidingWindowPipeline(context, workers=4).mine(
            "llama3", "zero_shot"
        )
        assert [r.text for r in parallel.rules] == \
            [r.text for r in sequential.rules]

    def test_makespan_near_linear_speedup(self, context):
        sequential = SlidingWindowPipeline(context).mine(
            "llama3", "zero_shot"
        )
        pipeline = ParallelSlidingWindowPipeline(context, workers=4)
        parallel = pipeline.mine("llama3", "zero_shot")
        speedup = sequential.mining_seconds / parallel.mining_seconds
        assert 3.0 < speedup <= 4.001
        assert pipeline.speedup_over_sequential(parallel) == \
            pytest.approx(speedup, rel=0.05)

    def test_one_worker_equals_sequential_time(self, context):
        sequential = SlidingWindowPipeline(context).mine(
            "mixtral", "zero_shot"
        )
        parallel = ParallelSlidingWindowPipeline(context, workers=1).mine(
            "mixtral", "zero_shot"
        )
        assert parallel.mining_seconds == sequential.mining_seconds

    def test_windows_distributed_round_robin(self, context):
        pipeline = ParallelSlidingWindowPipeline(context, workers=3)
        pipeline.mine("llama3", "zero_shot")
        counts = [report.windows for report in pipeline.worker_reports]
        assert sum(counts) == pipeline.window_set.window_count
        assert max(counts) - min(counts) <= 1

    def test_more_workers_never_slower(self, context):
        two = ParallelSlidingWindowPipeline(context, workers=2).mine(
            "llama3", "zero_shot"
        )
        eight = ParallelSlidingWindowPipeline(context, workers=8).mine(
            "llama3", "zero_shot"
        )
        assert eight.mining_seconds <= two.mining_seconds


class TestSummaryPipeline:
    def test_summary_covers_every_label(self, context):
        statements = build_summary_statements(context)
        text = "\n".join(s.text for s in statements)
        for label in context.graph.node_labels():
            assert f"label {label} " in text or f"({label})" in text
        for edge_label in context.graph.edge_labels():
            assert f"label {edge_label} " in text

    def test_summary_much_smaller_than_graph(self, context):
        from repro.encoding import count_tokens

        statements = build_summary_statements(context)
        summary_tokens = sum(count_tokens(s.text) for s in statements)
        full_tokens = sum(
            count_tokens(s.text) for s in context.statements
        )
        assert summary_tokens < full_tokens / 4

    def test_mine_single_call_speed(self, context):
        run = SummaryPipeline(context).mine("llama3", "zero_shot")
        assert run.method == "summary"
        assert run.rule_count >= 3
        assert run.mining_seconds < 60  # one call, RAG-like cost

    def test_summary_quality_between_rag_and_swa(self, context):
        from repro.mining import RAGPipeline

        summary = SummaryPipeline(context).mine("llama3", "zero_shot")
        swa = SlidingWindowPipeline(context).mine("llama3", "zero_shot")
        rag = RAGPipeline(context).mine("llama3", "zero_shot")
        # stratified coverage: at least as many rules as RAG
        assert summary.rule_count >= rag.rule_count - 1
        assert summary.rule_count <= swa.rule_count + 2

    def test_deterministic(self, context):
        first = SummaryPipeline(context).mine("mixtral", "few_shot")
        second = SummaryPipeline(context).mine("mixtral", "few_shot")
        assert [r.text for r in first.rules] == \
            [r.text for r in second.rules]

    def test_reseeded_pipeline_mines_the_new_seeds_sample(self, context):
        from repro.mining import run_to_dict

        pipeline = SummaryPipeline(context)
        pipeline.mine("llama3", "zero_shot")
        pipeline.base_seed = 7
        reseeded = pipeline.mine("llama3", "zero_shot")
        fresh = SummaryPipeline(context, base_seed=7).mine(
            "llama3", "zero_shot"
        )
        assert run_to_dict(reseeded) == run_to_dict(fresh)
