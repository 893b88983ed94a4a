"""Unit tests for the pipeline machinery (combination, contexts)."""

import random

import pytest

from repro.datasets.base import Dataset, DirtReport
from repro.llm import LLAMA3_PROFILE, MIXTRAL_PROFILE
from repro.mining import (
    BasePipeline,
    ParallelSlidingWindowPipeline,
    PipelineContext,
    RAGPipeline,
    SlidingWindowPipeline,
    SummaryPipeline,
    combine_and_cap,
)
from repro.rules import ConsistencyRule, RuleKind


def rule(label, prop, kind=RuleKind.PROPERTY_EXISTS):
    return ConsistencyRule(
        kind=kind, text=f"{label}.{prop}", label=label, properties=(prop,),
    )


def rng():
    return random.Random(7)


class TestCombineAndCap:
    def test_dedup_by_signature(self):
        calls = [[rule("A", "x")], [rule("A", "x")], [rule("A", "x")]]
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        assert len(combined.rules) == 1

    def test_floor_drops_one_off_rules(self):
        calls = [[rule("A", "x")] for _ in range(10)]
        calls[0] = [rule("A", "x"), rule("B", "oneoff")]
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        labels = {r.label for r in combined.rules}
        assert "B" not in labels or len(combined.rules) <= 2

    def test_single_call_keeps_everything_under_cap(self):
        calls = [[rule("A", "x"), rule("B", "y"),
                  rule("C", "z", RuleKind.UNIQUENESS)]]
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        assert len(combined.rules) == 3

    def test_property_rules_fused_per_label(self):
        calls = [
            [rule("Match", "date"), rule("Match", "stage")],
            [rule("Match", "date"), rule("Match", "stage")],
        ]
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        assert len(combined.rules) == 1
        assert set(combined.rules[0].properties) == {"date", "stage"}

    def test_rare_property_not_fused_into_merged_rule(self):
        # 'ghost' appears twice in 40 calls; 'date' in all 40 — the
        # 30%-of-max member filter must exclude 'ghost'
        calls = [[rule("Match", "date")] for _ in range(40)]
        calls[0].append(rule("Match", "ghost"))
        calls[1].append(rule("Match", "ghost"))
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        merged = next(
            r for r in combined.rules
            if r.kind is RuleKind.PROPERTY_EXISTS
        )
        assert "ghost" not in merged.properties

    def test_cap_respected(self):
        calls = [
            [rule(f"L{i}", "p") for i in range(30)]
            for _ in range(3)
        ]
        combined = combine_and_cap(calls, MIXTRAL_PROFILE, "zero_shot", rng())
        assert len(combined.rules) <= MIXTRAL_PROFILE.swa_rule_cap

    def test_few_shot_cap_lower(self):
        calls = [
            [rule(f"L{i}", "p") for i in range(30)]
            for _ in range(3)
        ]
        zero = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        few = combine_and_cap(calls, LLAMA3_PROFILE, "few_shot", rng())
        assert len(few.rules) < len(zero.rules)

    def test_diversity_prevents_label_flooding(self):
        # 12 uniqueness rules on label A (freq 5) + rules on other
        # labels (freq 3): selection must include other labels
        calls = []
        for _ in range(5):
            calls.append([
                rule("A", f"p{i}", RuleKind.UNIQUENESS) for i in range(12)
            ])
        for _ in range(3):
            calls.append([rule("B", "x"), rule("C", "y"),
                          rule("D", "z", RuleKind.UNIQUENESS)])
        combined = combine_and_cap(calls, LLAMA3_PROFILE, "zero_shot", rng())
        labels = {r.label for r in combined.rules}
        assert {"B", "C", "D"} <= labels

    def test_empty_input(self):
        combined = combine_and_cap([], LLAMA3_PROFILE, "zero_shot", rng())
        assert combined.rules == []
        combined = combine_and_cap([[]], LLAMA3_PROFILE, "zero_shot", rng())
        assert combined.rules == []


class TestPipelineContext:
    def test_build_encodes_once(self, social_graph):
        dataset = Dataset(
            graph=social_graph, true_rules=[], dirt=DirtReport()
        )
        context = PipelineContext.build(dataset)
        assert context.name == "social"
        assert len(context.statements) == 10  # 5 nodes + 5 edges
        assert "User" in context.schema_summary
        assert context.graph is social_graph

    def test_custom_encoder(self, social_graph):
        from repro.encoding import AdjacencyEncoder

        dataset = Dataset(
            graph=social_graph, true_rules=[], dirt=DirtReport()
        )
        context = PipelineContext.build(dataset, encoder=AdjacencyEncoder())
        assert any(
            s.text.startswith("Edge ") for s in context.statements
        )


class TestFinish:
    @pytest.mark.parametrize("pipeline_class", [
        SlidingWindowPipeline, ParallelSlidingWindowPipeline,
        RAGPipeline, SummaryPipeline,
    ])
    def test_semantic_dedup_once_per_mine(
        self, cyber_dataset, pipeline_class, monkeypatch
    ):
        calls = []
        semantic_dedup = BasePipeline.semantic_dedup

        def counted(pipeline, rules):
            calls.append(len(rules))
            return semantic_dedup(pipeline, rules)

        monkeypatch.setattr(BasePipeline, "semantic_dedup", counted)
        pipeline = pipeline_class(PipelineContext.build(cyber_dataset))
        for prompt_mode in ("zero_shot", "few_shot"):
            pipeline.mine("llama3", prompt_mode)
        assert len(calls) == 2
