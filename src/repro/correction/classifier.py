"""Classify a generated Cypher query per the paper's §4.4 protocol.

A query is **correct** when it parses and matches the data model
(labels, property keys, relationship directions).  Otherwise it belongs
to one or more of the three error categories; for the correctness census
of Table 6 the *primary* category is, in the paper's order of
discussion: direction first, then hallucinated properties, then syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis import AnalysisReport, StaticAnalyzer
from repro.cypher.linter import ErrorCategory, Linter, LintReport
from repro.graph.schema import GraphSchema


@dataclass(frozen=True)
class Classification:
    """Verdict on one generated query."""

    query: str
    is_correct: bool
    primary_category: Optional[ErrorCategory]
    report: LintReport
    #: semantic analysis, when the classifier was built with an analyzer
    analysis: Optional[AnalysisReport] = None

    @property
    def category_name(self) -> Optional[str]:
        return self.primary_category.value if self.primary_category else None


_PRIORITY = (
    ErrorCategory.SYNTAX,
    ErrorCategory.DIRECTION,
    ErrorCategory.HALLUCINATED_PROPERTY,
)


def _first_position(report: LintReport, category: ErrorCategory) -> float:
    positions = [
        issue.position
        for issue in report.issues
        if issue.category is category and issue.position is not None
    ]
    return min(positions) if positions else float("inf")


def _primary_category(report: LintReport) -> Optional[ErrorCategory]:
    """The paper's Table 6 primary category, with positional ordering.

    A query that both has a syntax problem and a wrong direction counts
    as syntax-primary only when the syntax error *precedes* the
    direction conjunct in the query text; a genuine parse failure has no
    direction findings at all (no AST), so it stays syntax-primary
    automatically.
    """
    categories = report.categories()
    primary = next(
        (category for category in _PRIORITY if category in categories),
        None,
    )
    if (
        primary is ErrorCategory.SYNTAX
        and ErrorCategory.DIRECTION in categories
        and _first_position(report, ErrorCategory.DIRECTION)
        < _first_position(report, ErrorCategory.SYNTAX)
    ):
        primary = ErrorCategory.DIRECTION
    return primary


class QueryClassifier:
    """Applies the §4.4 criteria against an inferred schema.

    When built with a :class:`~repro.analysis.StaticAnalyzer`, every
    classification also carries the query's semantic analysis.
    """

    def __init__(
        self,
        schema: GraphSchema,
        analyzer: Optional[StaticAnalyzer] = None,
    ) -> None:
        self._linter = Linter(schema)
        self._analyzer = analyzer

    def classify(self, query_text: str) -> Classification:
        report = self._linter.lint(query_text)
        analysis = (
            self._analyzer.analyze(query_text)
            if self._analyzer is not None else None
        )
        if report.is_correct:
            return Classification(
                query=query_text, is_correct=True,
                primary_category=None, report=report, analysis=analysis,
            )
        primary = _primary_category(report)
        return Classification(
            query=query_text, is_correct=False,
            primary_category=primary, report=report, analysis=analysis,
        )
