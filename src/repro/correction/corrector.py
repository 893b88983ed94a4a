"""The correction protocol of §4.4, automated.

The authors "corrected the queries in case of syntax errors or wrong
edge directions, but … left them as they were [for] queries with
additional non-existing properties, because those errors corresponded to
hallucination at rule generation level, rather than the translation to
Cypher."

The corrector mirrors that: a query flagged for SYNTAX or DIRECTION is
regenerated from the rule's intended meaning (the ground-truth
translator, oriented by the true schema) — exactly what a human fixing
the query "while maintaining the intended meaning of the rule" does.
Because the translator translates the rule *as stated*, a rule whose own
property was hallucinated keeps its hallucination through correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis import StaticAnalyzer
from repro.correction.classifier import Classification, QueryClassifier
from repro.cypher.linter import ErrorCategory
from repro.graph.schema import GraphSchema
from repro.rules.model import ConsistencyRule
from repro.rules.translator import (
    MetricQueries,
    RuleTranslator,
    UntranslatableRuleError,
)


@dataclass(frozen=True)
class CorrectionOutcome:
    """What happened to one generated query."""

    rule: ConsistencyRule
    generated_query: str
    final_query: str
    classification: Classification
    corrected: bool                       # a repair was applied
    left_uncorrected: bool                # hallucination kept on purpose
    metric_queries: Optional[MetricQueries]


class QueryCorrector:
    """Classifies generated queries and applies the §4.4 repairs."""

    def __init__(
        self,
        schema: GraphSchema,
        analyzer: Optional[StaticAnalyzer] = None,
    ) -> None:
        self.schema = schema
        self.analyzer = analyzer or StaticAnalyzer(schema)
        self.classifier = QueryClassifier(schema, analyzer=self.analyzer)
        self.translator = RuleTranslator(schema)

    def correct(
        self, rule: ConsistencyRule, generated_query: str
    ) -> CorrectionOutcome:
        classification = self.classifier.classify(generated_query)
        try:
            metric_queries = self.translator.translate(rule)
        except UntranslatableRuleError:
            metric_queries = None

        if classification.is_correct:
            return CorrectionOutcome(
                rule=rule, generated_query=generated_query,
                final_query=generated_query,
                classification=classification, corrected=False,
                left_uncorrected=False, metric_queries=metric_queries,
            )

        categories = classification.report.categories()
        repairable = bool(
            categories & {ErrorCategory.SYNTAX, ErrorCategory.DIRECTION}
        )
        if repairable and metric_queries is not None:
            return CorrectionOutcome(
                rule=rule, generated_query=generated_query,
                final_query=metric_queries.check,
                classification=classification, corrected=True,
                left_uncorrected=False, metric_queries=metric_queries,
            )
        # hallucinated properties (or untranslatable rules): left as-is
        return CorrectionOutcome(
            rule=rule, generated_query=generated_query,
            final_query=generated_query,
            classification=classification, corrected=False,
            left_uncorrected=True, metric_queries=metric_queries,
        )
