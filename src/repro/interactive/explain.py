"""Rule explanations (§5's fourth future-work direction).

"Enabling LLMs to explain the rationale behind the rules they generate
would improve transparency and provide valuable insights into the
underlying data patterns."

:func:`explain_rule` grounds a rule in the graph it was mined from: it
recomputes the statistical evidence (how many elements the rule touches,
how complete/unique/ordered the data actually is) and renders a short
rationale plus the counter-examples, so a reviewer can judge the rule on
evidence rather than on the model's say-so.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cypher.errors import CypherError
from repro.cypher.executor import execute
from repro.graph.schema import GraphSchema
from repro.graph.store import PropertyGraph
from repro.metrics.evaluator import evaluate_rule
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.translator import RuleTranslator, UntranslatableRuleError


@dataclass(frozen=True)
class Explanation:
    """The grounded rationale for one rule."""

    rule: ConsistencyRule
    rationale: str
    evidence: dict[str, object]
    counter_examples: tuple[dict, ...]

    def render(self) -> str:
        lines = [f"RULE   {self.rule.text}", f"WHY    {self.rationale}"]
        for key, value in self.evidence.items():
            lines.append(f"  {key}: {value}")
        if self.counter_examples:
            lines.append("COUNTER-EXAMPLES:")
            for row in self.counter_examples:
                lines.append(f"  {row}")
        return "\n".join(lines)


_KIND_TEMPLATES = {
    RuleKind.PROPERTY_EXISTS: (
        "{matching} of {total} {label} nodes carry {props}; treating the "
        "property as mandatory flags the {missing} without it."
    ),
    RuleKind.UNIQUENESS: (
        "{distinct} of {total} {label} nodes hold a {props} value no "
        "other node has; {dupes} share theirs with another."
    ),
    RuleKind.VALUE_DOMAIN: (
        "observed values of {props} on {label} concentrate on "
        "{domain}; {outside} node(s) fall outside it."
    ),
    RuleKind.VALUE_FORMAT: (
        "{matching} of {present} non-null {props} values match the "
        "format; the rest are malformed."
    ),
    RuleKind.ENDPOINT: (
        "all sampled {edge} relationships run {src} -> {dst}; the rule "
        "pins that direction and typing."
    ),
    RuleKind.MANDATORY_EDGE: (
        "{covered} of {total} {label} nodes participate in a {edge} "
        "relationship; the {uncovered} that do not are suspicious."
    ),
    RuleKind.NO_SELF_LOOP: (
        "{clean} of {total} {edge} relationships connect distinct "
        "nodes; {loops} self-loop(s) violate the rule."
    ),
    RuleKind.TEMPORAL_ORDER: (
        "{ordered} of {total} {edge} relationships respect the "
        "{time} ordering; {violating} run backwards in time."
    ),
    RuleKind.TEMPORAL_UNIQUE: (
        "{unique} of {total} {edge} relationships have a distinct "
        "{time} per endpoint pair; {collisions} collide."
    ),
    RuleKind.PRIMARY_KEY: (
        "{unique} of {total} scoped key values are unique within their "
        "{scope}; {collisions} collide."
    ),
    RuleKind.PATTERN: (
        "{closed} of {total} {label}-{edge} pairs close the "
        "{scope_edge} hop to {scope}; {open} do not."
    ),
    RuleKind.EDGE_PROP_EXISTS: (
        "{matching} of {total} {edge} relationships carry {props}."
    ),
}


def explain_rule(
    graph: PropertyGraph,
    schema: GraphSchema,
    rule: ConsistencyRule,
    max_counter_examples: int = 5,
) -> Explanation:
    """Ground ``rule`` in the data and produce a rationale."""
    translator = RuleTranslator(schema)
    try:
        queries = translator.translate(rule)
    except UntranslatableRuleError:
        return Explanation(
            rule=rule,
            rationale="the rule is underspecified and cannot be checked",
            evidence={},
            counter_examples=(),
        )
    metrics = evaluate_rule(graph, queries)

    evidence: dict[str, object] = {
        "support": metrics.support,
        "head relation size": metrics.relevant,
        "body matches": metrics.body,
        "coverage": f"{metrics.coverage:.1f}%",
        "confidence": f"{metrics.confidence:.1f}%",
    }
    counter_examples: tuple[dict, ...] = ()
    if queries.violations is not None:
        try:
            rows = execute(graph, queries.violations).rows
            counter_examples = tuple(rows[:max_counter_examples])
            evidence["violations"] = len(rows)
        except CypherError:
            evidence["violations"] = "query failed (hallucinated fields?)"

    rationale = _render_rationale(rule, metrics, evidence)
    return Explanation(
        rule=rule, rationale=rationale, evidence=evidence,
        counter_examples=counter_examples,
    )


def _render_rationale(rule, metrics, evidence) -> str:
    template = _KIND_TEMPLATES.get(rule.kind)
    values = {
        "label": rule.label or "?",
        "props": " and ".join(rule.properties) or "?",
        "edge": rule.edge_label or "?",
        "src": rule.src_label or "?",
        "dst": rule.dst_label or "?",
        "time": rule.time_property or "?",
        "scope": rule.scope_label or "?",
        "scope_edge": rule.scope_edge_label or "?",
        "domain": ", ".join(repr(v) for v in rule.allowed_values) or "?",
        "total": metrics.relevant,
        "present": metrics.body,
        "matching": metrics.support,
        "missing": metrics.relevant - metrics.support,
        "distinct": metrics.support,
        "dupes": metrics.body - metrics.support,
        "outside": metrics.body - metrics.support,
        "covered": metrics.support,
        "uncovered": metrics.relevant - metrics.support,
        "clean": metrics.support,
        "loops": metrics.body - metrics.support,
        "ordered": metrics.support,
        "violating": metrics.body - metrics.support,
        "unique": metrics.support,
        "collisions": max(metrics.body - metrics.support, 0),
        "closed": metrics.support,
        "open": metrics.body - metrics.support,
    }
    if template is None:
        return (
            f"the rule holds for {metrics.support} of {metrics.body} "
            "body matches"
        )
    return template.format(**values)
