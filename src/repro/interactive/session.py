"""Interactive rule refinement (§5's third future-work direction).

"Developing interactive rule mining techniques could allow users to
engage in the rule extraction process, offering real-time feedback to
refine the rules."

A :class:`RefinementSession` wraps a mining run and lets a domain expert
(or a script standing in for one):

* inspect each rule with its metrics and its violating elements;
* **accept** / **reject** rules;
* **edit** a rule by restating it in natural language — the edited rule
  is re-translated and re-scored immediately;
* **tighten** a VALUE_DOMAIN rule to the values actually observed, or
  **widen** it by adding values;
* export the accepted set as (rule, Cypher, metrics) triples.

All state transitions are recorded so a session is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.cypher.errors import CypherError
from repro.cypher.executor import execute
from repro.graph.schema import GraphSchema
from repro.graph.store import PropertyGraph
from repro.metrics.definitions import RuleMetrics
from repro.metrics.evaluator import evaluate_rule
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.nl import from_natural_language, to_natural_language
from repro.rules.translator import (
    MetricQueries,
    RuleTranslator,
    UntranslatableRuleError,
)


class RuleStatus(Enum):
    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    EDITED = "edited"      # replaced by a user restatement


@dataclass
class SessionEntry:
    """One rule under review."""

    rule: ConsistencyRule
    status: RuleStatus
    metrics: Optional[RuleMetrics]
    queries: Optional[MetricQueries]
    note: str = ""
    replaced_by: Optional[int] = None   # index of the edit's new entry


@dataclass
class AuditRecord:
    action: str
    entry_index: int
    detail: str = ""


@dataclass
class RefinementSession:
    """Review loop over a set of mined rules."""

    graph: PropertyGraph
    schema: GraphSchema
    entries: list[SessionEntry] = field(default_factory=list)
    audit_log: list[AuditRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def from_rules(
        cls,
        graph: PropertyGraph,
        schema: GraphSchema,
        rules: list[ConsistencyRule],
    ) -> "RefinementSession":
        session = cls(graph=graph, schema=schema)
        for rule in rules:
            session._add_entry(rule)
        return session

    def _add_entry(self, rule: ConsistencyRule) -> int:
        translator = RuleTranslator(self.schema)
        try:
            queries = translator.translate(rule)
            metrics = evaluate_rule(self.graph, queries)
        except UntranslatableRuleError:
            queries = None
            metrics = None
        self.entries.append(SessionEntry(
            rule=rule, status=RuleStatus.PENDING,
            metrics=metrics, queries=queries,
        ))
        return len(self.entries) - 1

    # ------------------------------------------------------------------
    # review verbs
    # ------------------------------------------------------------------
    def accept(self, index: int, note: str = "") -> SessionEntry:
        entry = self._pending(index)
        entry.status = RuleStatus.ACCEPTED
        entry.note = note
        self.audit_log.append(AuditRecord("accept", index, note))
        return entry

    def reject(self, index: int, note: str = "") -> SessionEntry:
        entry = self._pending(index)
        entry.status = RuleStatus.REJECTED
        entry.note = note
        self.audit_log.append(AuditRecord("reject", index, note))
        return entry

    def edit(self, index: int, new_sentence: str) -> SessionEntry:
        """Replace a rule with a natural-language restatement.

        The restatement must parse under the canonical rule grammar; the
        new rule is translated and scored immediately and enters the
        session as a fresh PENDING entry.
        """
        entry = self._pending(index)
        new_rule = from_natural_language(
            new_sentence, provenance=f"edit-of-{index}"
        )
        if new_rule is None:
            raise ValueError(
                f"could not parse the restated rule: {new_sentence!r}"
            )
        entry.status = RuleStatus.EDITED
        new_index = self._add_entry(new_rule)
        entry.replaced_by = new_index
        self.audit_log.append(AuditRecord("edit", index, new_sentence))
        return self.entries[new_index]

    def tighten_domain(self, index: int) -> SessionEntry:
        """Restrict a VALUE_DOMAIN rule to the values present in the data
        (the typical fix for a partial domain mined from one window)."""
        entry = self._pending(index)
        rule = entry.rule
        if rule.kind is not RuleKind.VALUE_DOMAIN or not rule.label:
            raise ValueError("tighten_domain applies to VALUE_DOMAIN rules")
        key = rule.properties[0]
        result = execute(
            self.graph,
            f"MATCH (n:{rule.label}) WHERE n.{key} IS NOT NULL "
            f"RETURN DISTINCT n.{key} AS value",
        )
        observed = tuple(sorted(result.values("value"), key=repr))
        widened = ConsistencyRule(
            kind=rule.kind, text="", label=rule.label,
            properties=rule.properties, allowed_values=observed,
        )
        sentence = to_natural_language(widened)
        self.audit_log.append(AuditRecord("tighten", index, sentence))
        entry.status = RuleStatus.EDITED
        new_index = self._add_entry(ConsistencyRule(
            kind=rule.kind, text=sentence, label=rule.label,
            properties=rule.properties, allowed_values=observed,
            provenance=f"tighten-of-{index}",
        ))
        entry.replaced_by = new_index
        return self.entries[new_index]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def violations(self, index: int, limit: int = 10) -> list[dict]:
        """Concrete violating elements for one rule (empty if clean)."""
        entry = self.entries[index]
        if entry.queries is None or entry.queries.violations is None:
            return []
        try:
            result = execute(self.graph, entry.queries.violations)
        except CypherError:
            return []
        return result.rows[:limit]

    def pending(self) -> list[int]:
        return [
            index for index, entry in enumerate(self.entries)
            if entry.status is RuleStatus.PENDING
        ]

    def accepted(self) -> list[SessionEntry]:
        return [
            entry for entry in self.entries
            if entry.status is RuleStatus.ACCEPTED
        ]

    def export(self) -> list[tuple[ConsistencyRule, str, RuleMetrics]]:
        """The accepted set as (rule, check query, metrics) triples."""
        exported = []
        for entry in self.accepted():
            if entry.queries is not None and entry.metrics is not None:
                exported.append(
                    (entry.rule, entry.queries.check, entry.metrics)
                )
        return exported

    def summary(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for entry in self.entries:
            tally[entry.status.value] = tally.get(entry.status.value, 0) + 1
        return tally

    # ------------------------------------------------------------------
    def _pending(self, index: int) -> SessionEntry:
        entry = self.entries[index]
        if entry.status is not RuleStatus.PENDING:
            raise ValueError(
                f"entry {index} already {entry.status.value}"
            )
        return entry
