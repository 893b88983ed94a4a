"""Result records for mining runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.findings import AnalysisReport
from repro.correction.corrector import CorrectionOutcome
from repro.metrics.definitions import AggregateMetrics, RuleMetrics, aggregate
from repro.refine.loop import RefineResult
from repro.rules.model import ConsistencyRule


@dataclass
class RuleResult:
    """Everything known about one mined rule at the end of the pipeline."""

    rule: ConsistencyRule
    outcome: CorrectionOutcome
    metrics: RuleMetrics
    #: static analysis of the final query (None for pre-analyzer archives)
    analysis: Optional[AnalysisReport] = None
    #: metric evaluation was skipped because the bundle is statically doomed
    triage_skipped: bool = False
    #: what the refine loop did, when it ran (None: never triggered)
    refinement: Optional[RefineResult] = None


@dataclass
class MiningRun:
    """One cell of the experiment grid: (dataset, model, method, prompt)."""

    dataset: str
    model: str
    method: str                      # 'sliding_window' | 'rag'
    prompt_mode: str                 # 'zero_shot' | 'few_shot'
    results: list[RuleResult] = field(default_factory=list)
    mining_seconds: float = 0.0      # rule-generation LLM time (Table 5)
    cypher_seconds: float = 0.0      # Cypher-generation LLM time
    window_count: int = 0
    broken_statements: int = 0       # statements split at boundaries
    broken_patterns: int = 0         # incident blocks split (§4.5 counts)
    retrieved_chunks: int = 0        # RAG only
    total_chunks: int = 0            # RAG only
    llm_calls: int = 0               # both LLM steps
    prompt_tokens: int = 0           # total prompt tokens sent
    completion_tokens: int = 0       # total completion tokens received

    # ------------------------------------------------------------------
    @property
    def rules(self) -> list[ConsistencyRule]:
        return [result.rule for result in self.results]

    @property
    def rule_count(self) -> int:
        return len(self.results)

    def aggregate_metrics(self) -> AggregateMetrics:
        """The Tables 2-4 cell for this run."""
        return aggregate([result.metrics for result in self.results])

    # Table 6 --------------------------------------------------------
    @property
    def correct_queries(self) -> int:
        return sum(
            1 for result in self.results
            if result.outcome.classification.is_correct
        )

    @property
    def generated_queries(self) -> int:
        return len(self.results)

    def error_census(self) -> dict[str, int]:
        """Count of primary error categories across incorrect queries."""
        census: dict[str, int] = {}
        for result in self.results:
            category = result.outcome.classification.category_name
            if category is not None:
                census[category] = census.get(category, 0) + 1
        return census

    # static analysis ------------------------------------------------
    @property
    def triaged_out(self) -> int:
        """Rules whose metric evaluation was statically skipped."""
        return sum(1 for result in self.results if result.triage_skipped)

    def triage_census(self) -> dict[str, int]:
        """Count of analyzer verdicts across the run's final queries."""
        census: dict[str, int] = {}
        for result in self.results:
            if result.analysis is None:
                continue
            verdict = result.analysis.verdict.value
            census[verdict] = census.get(verdict, 0) + 1
        return census

    # refinement -----------------------------------------------------
    @property
    def refined(self) -> int:
        """Rules the refine loop was invoked on."""
        return sum(
            1 for result in self.results if result.refinement is not None
        )

    @property
    def recovered(self) -> int:
        """Rules the refine loop brought back to a healthy, scored state."""
        return sum(
            1 for result in self.results
            if result.refinement is not None and result.refinement.recovered
        )

    def key(self) -> tuple[str, str, str, str]:
        return (self.dataset, self.model, self.method, self.prompt_mode)
