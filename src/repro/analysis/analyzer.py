"""The :class:`StaticAnalyzer` facade tying the passes together.

One analyzer instance holds a schema (optional — without it the type
pass is skipped) and a small memo keyed by query text, because the
mining loop analyzes the same generated queries repeatedly: once for
triage, once for persistence, once for dedup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.analysis.canonical import canonical_signature
from repro.analysis.dataflow import analyze_query_dataflow
from repro.analysis.findings import AnalysisReport, Finding, Verdict
from repro.analysis.satisfiability import analyze_satisfiability
from repro.analysis.typecheck import analyze_types
from repro.cypher import CypherError, parse_cached
from repro.graph.schema import GraphSchema

_CACHE_SIZE = 512


@dataclass
class RuleTriage:
    """Pre-execution judgement on one rule's check query."""

    report: AnalysisReport

    @property
    def verdict(self) -> Verdict:
        return self.report.verdict

    @property
    def should_evaluate(self) -> bool:
        """False when running the query is provably pointless."""
        return not self.report.verdict.dooms_execution

    @property
    def reason(self) -> Optional[str]:
        """The finding that sealed the verdict, for logs and reports."""
        if self.report.parse_failed:
            return "query does not parse"
        for finding in self.report.findings:
            if finding.severity is self.report.verdict:
                return finding.message
        return None


class StaticAnalyzer:
    """Multi-pass static analyzer over the project's Cypher subset."""

    def __init__(
        self,
        schema: Optional[GraphSchema] = None,
        cache_size: int = _CACHE_SIZE,
    ) -> None:
        self.schema = schema
        self._cache_size = cache_size
        self._cache: OrderedDict[str, AnalysisReport] = OrderedDict()

    # ------------------------------------------------------------------
    def analyze(self, query_text: str) -> AnalysisReport:
        """Analyze one query string (memoized per analyzer instance)."""
        cached = self._cache.get(query_text)
        if cached is not None:
            self._cache.move_to_end(query_text)
            return cached
        report = self._analyze_uncached(query_text)
        self._cache[query_text] = report
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return report

    def analyze_ast(self, query, query_text: str = "") -> AnalysisReport:
        """Analyze an already-parsed AST (no memoization)."""
        findings, table = analyze_query_dataflow(query)
        if self.schema is not None:
            findings += analyze_types(query, self.schema, table)
        findings += analyze_satisfiability(query)
        try:
            signature = canonical_signature(query)
        except (CypherError, TypeError, ValueError):
            signature = None
        return AnalysisReport(
            query_text=query_text,
            findings=tuple(findings),
            signature=signature,
        )

    def triage(self, query_text: str) -> RuleTriage:
        return RuleTriage(self.analyze(query_text))

    def signature(self, query_text: str) -> Optional[str]:
        """Semantic signature of a query string, None when unparseable."""
        return self.analyze(query_text).signature

    # ------------------------------------------------------------------
    def _analyze_uncached(self, query_text: str) -> AnalysisReport:
        try:
            query = parse_cached(query_text)
        except CypherError as exc:
            return AnalysisReport(
                query_text=query_text,
                findings=(Finding(
                    "parse", "syntax-error", str(exc),
                    severity=Verdict.ERROR,
                ),),
                parse_failed=True,
            )
        return self.analyze_ast(query, query_text)


def analyze_query(
    query_text: str, schema: Optional[GraphSchema] = None
) -> AnalysisReport:
    """One-shot convenience wrapper around :class:`StaticAnalyzer`."""
    return StaticAnalyzer(schema).analyze(query_text)
