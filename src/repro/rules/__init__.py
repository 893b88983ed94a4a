"""Consistency-rule model, NL round-trip, translation and deduplication."""

from repro.rules.dedup import deduplicate, merge_property_exists
from repro.rules.model import (
    COMPLEX_KINDS,
    SIMPLE_KINDS,
    ConsistencyRule,
    RuleKind,
    RuleSet,
)
from repro.rules.neo4j_ddl import (
    export_rules,
    rule_to_neo4j_ddl,
    rule_to_quality_check,
)
from repro.rules.nl import (
    from_natural_language,
    parse_rule_list,
    to_natural_language,
)
from repro.rules.translator import (
    MetricQueries,
    RuleTranslator,
    UntranslatableRuleError,
)

__all__ = [
    "COMPLEX_KINDS",
    "ConsistencyRule",
    "MetricQueries",
    "RuleKind",
    "RuleSet",
    "RuleTranslator",
    "SIMPLE_KINDS",
    "UntranslatableRuleError",
    "deduplicate",
    "export_rules",
    "from_natural_language",
    "merge_property_exists",
    "parse_rule_list",
    "rule_to_neo4j_ddl",
    "rule_to_quality_check",
    "to_natural_language",
]
