"""Incremental maintenance of mined-rule metrics under graph deltas.

Full re-mining reruns every rule's three count queries after any
mutation; the :class:`IncrementalMaintainer` instead proves most rules
unaffected.  Per rule it extracts a :class:`~repro.stream.footprint
.RuleFootprint` from the metric query bundle (once, cached), resolves
wildcards against the planner's catalog, and re-evaluates only rules
some delta in the batch can actually reach.  Rules it cannot prove
unaffected fall back to re-evaluation, so the result is always
value-identical to a from-scratch recompute — the property the
hypothesis suite in ``tests/test_stream_equivalence.py`` checks.

Rules whose bundle never executes (untranslatable rules and statically
triaged ones score a constant zero) are graph-independent and never
re-evaluated at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.graph.changelog import GraphDelta
from repro.graph.store import PropertyGraph
from repro.metrics.definitions import RuleMetrics
from repro.metrics.evaluator import evaluate_rule
from repro.mining.result import MiningRun, RuleResult
from repro.stream.footprint import (
    RuleFootprint,
    delta_affects,
    footprint_of_queries,
    resolve_footprint,
)

_ZERO = RuleMetrics(support=0, relevant=0, body=0)


@dataclass(frozen=True)
class RuleChange:
    """One rule whose metrics moved under a delta batch."""

    index: int                  # position in the run's result list
    rule_text: str
    before: RuleMetrics
    after: RuleMetrics


@dataclass
class MaintenanceReport:
    """Accounting for one maintenance pass."""

    epoch: int = 0
    deltas: int = 0
    total_rules: int = 0
    constant_rules: int = 0     # graph-independent (zero-scoring) rules
    pruned: int = 0             # proven unaffected, metrics kept
    reevaluated: int = 0
    full_fallback: bool = False
    changes: list[RuleChange] = field(default_factory=list)

    @property
    def changed(self) -> int:
        return len(self.changes)

    @property
    def savings(self) -> float:
        """Fraction of evaluable rules the pass did *not* re-evaluate."""
        evaluable = self.total_rules - self.constant_rules
        if evaluable <= 0:
            return 0.0
        return self.pruned / evaluable


def _is_constant(result: RuleResult) -> bool:
    """Rules whose metrics never depend on graph state (always zero)."""
    return result.outcome.metric_queries is None or result.triage_skipped


def _batch_vocabulary(
    deltas: list[GraphDelta],
) -> tuple[frozenset[str], frozenset[str]]:
    labels: set[str] = set()
    edge_types: set[str] = set()
    for delta in deltas:
        labels.update(delta.labels)
        if delta.edge_label is not None:
            edge_types.add(delta.edge_label)
    return frozenset(labels), frozenset(edge_types)


class IncrementalMaintainer:
    """Keeps one :class:`MiningRun`'s metrics in sync with its graph.

    The maintainer owns the run's metric freshness: after mutating the
    graph, call :meth:`apply` with what ``graph.changes_since(epoch)``
    returns for the epoch the metrics were last fresh at.  Metrics are
    updated in place on the run's results.
    """

    def __init__(self, run: MiningRun, graph: PropertyGraph) -> None:
        self.run = run
        self.graph = graph
        self._footprints: dict[int, RuleFootprint] = {}

    # ------------------------------------------------------------------
    def footprint(self, index: int) -> RuleFootprint:
        """The (cached, unresolved) footprint of rule ``index``."""
        cached = self._footprints.get(index)
        if cached is not None:
            return cached
        result = self.run.results[index]
        queries = result.outcome.metric_queries
        if queries is None:
            footprint = RuleFootprint()       # constant: observes nothing
        else:
            footprint = footprint_of_queries(
                [queries.satisfy, queries.relevant, queries.body]
            )
        self._footprints[index] = footprint
        return footprint

    # ------------------------------------------------------------------
    def recompute(self) -> list[RuleMetrics]:
        """From-scratch metrics for every rule (the equivalence oracle).

        Does not mutate the run — callers compare or assign explicitly.
        """
        fresh: list[RuleMetrics] = []
        for result in self.run.results:
            if _is_constant(result):
                fresh.append(_ZERO)
            else:
                fresh.append(
                    evaluate_rule(self.graph, result.outcome.metric_queries)
                )
        return fresh

    # ------------------------------------------------------------------
    def apply(self, deltas: list[GraphDelta] | None) -> MaintenanceReport:
        """Maintain metrics after ``deltas`` were applied to the graph.

        ``None`` (the graph's change log lost history) re-evaluates every
        evaluable rule.  The returned report lists the rules whose
        metrics actually moved.
        """
        complete = deltas is not None
        deltas = deltas or []
        report = MaintenanceReport(
            epoch=self.graph.epoch,
            deltas=len(deltas),
            total_rules=len(self.run.results),
            full_fallback=not complete,
        )
        if not deltas and complete:
            report.constant_rules = sum(
                1 for result in self.run.results if _is_constant(result)
            )
            report.pruned = report.total_rules - report.constant_rules
            return report

        catalog = self.graph.catalog()
        batch_labels, batch_edge_types = _batch_vocabulary(deltas)
        with obs.span(
            "stream.maintain", dataset=self.run.dataset, deltas=len(deltas)
        ) as sp:
            for index, result in enumerate(self.run.results):
                if _is_constant(result):
                    report.constant_rules += 1
                    continue
                if complete:
                    # pruning needs a trustworthy delta list; on fallback
                    # every evaluable rule re-evaluates unconditionally
                    # (the lost deltas may have touched anything at all)
                    footprint = resolve_footprint(
                        self.footprint(index), catalog,
                        batch_labels, batch_edge_types,
                    )
                    if not any(
                        delta_affects(footprint, delta) for delta in deltas
                    ):
                        report.pruned += 1
                        continue
                before = result.metrics
                after = evaluate_rule(self.graph, result.outcome.metric_queries)
                result.metrics = after
                report.reevaluated += 1
                if after != before:
                    report.changes.append(RuleChange(
                        index=index,
                        rule_text=result.rule.text,
                        before=before,
                        after=after,
                    ))
            sp.set_attribute("reevaluated", report.reevaluated)
            sp.set_attribute("pruned", report.pruned)
        obs.inc("stream.maintenance_batches")
        obs.inc("stream.rules_reevaluated", report.reevaluated)
        obs.inc("stream.rules_pruned", report.pruned)
        if not complete:
            obs.inc("stream.full_fallbacks")
        if report.changes:
            obs.inc("stream.rules_changed", len(report.changes))
        return report


__all__ = [
    "IncrementalMaintainer",
    "MaintenanceReport",
    "RuleChange",
]
