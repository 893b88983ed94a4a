"""Cross-window rule deduplication, merging and implication pruning.

The sliding-window pipeline prompts the LLM once per window and then
"the rules generated from each window are combined to create a
comprehensive set of rules that apply to the entire graph" (§3.1.1).
The pipelines' combination (``combine_and_cap`` and ``semantic_dedup``
in :mod:`repro.mining.pipeline`) is built from these helpers: drop
duplicate rules, merge PROPERTY_EXISTS rules over the same label into
one multi-property rule (the paper's example rule covers *date and
stage* at once), and prune rules a stronger survivor implies.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Optional

from repro.analysis import StaticAnalyzer, implies, query_parts
from repro.graph.schema import GraphSchema
from repro.rules.model import ConsistencyRule, RuleKind, RuleSet
from repro.rules.nl import to_natural_language
from repro.rules.translator import RuleTranslator, UntranslatableRuleError


def deduplicate(
    rules: list[ConsistencyRule],
    analyzer: Optional[StaticAnalyzer] = None,
) -> list[ConsistencyRule]:
    """Drop duplicate rules; first occurrence wins.

    The field signature catches verbatim repeats but counted
    alpha-renamed / endpoint-permuted rules as distinct — e.g. the same
    edge constraint mined from two windows with the src/dst labels
    written in opposite orders.  When an ``analyzer`` with a schema is
    provided, each rule is additionally keyed by the analyzer's
    canonical form of its translated check query, which erases variable
    naming and edge orientation; rules the translator cannot handle
    fall back to the field signature alone.
    """
    semantic_keys: set[str] = set()
    translator = (
        RuleTranslator(analyzer.schema)
        if analyzer is not None and analyzer.schema is not None else None
    )
    ruleset = RuleSet()
    output: list[ConsistencyRule] = []
    for rule in rules:
        if not ruleset.add(rule):
            continue
        if translator is not None:
            key = _semantic_key(rule, translator, analyzer)
            if key is not None:
                if key in semantic_keys:
                    continue
                semantic_keys.add(key)
        output.append(rule)
    return output


def _semantic_key(
    rule: ConsistencyRule, translator: RuleTranslator, analyzer
) -> Optional[str]:
    """Canonical signature of the rule's check query, None when unknown."""
    try:
        queries = translator.translate(rule)
    except UntranslatableRuleError:
        return None
    return analyzer.signature(queries.check)


def prune_implied(
    rules: list[ConsistencyRule],
    schema: GraphSchema,
) -> list[ConsistencyRule]:
    """Drop rules provably implied by a strictly-stronger survivor.

    For each pair, the rules' translated *satisfy* queries are compared
    with :func:`repro.analysis.implication.implies`: when every element
    satisfying rule A provably satisfies rule B, B adds nothing and is
    pruned.  The survivor records the pruned texts in ``implied_by`` —
    the provenance chain transfers, so A ⇒ B ⇒ C leaves A carrying both.
    Mutually-implied (equivalent) rules keep the earlier occurrence.
    Rules the translator or the implication engine cannot model are
    never pruned.
    """
    translator = RuleTranslator(schema)
    parts = []
    for rule in rules:
        try:
            satisfy = translator.translate(rule).satisfy
        except UntranslatableRuleError:
            parts.append(None)
            continue
        parts.append(query_parts(satisfy))

    kept = [True] * len(rules)
    subsumed: dict[int, list[str]] = {}
    for i in range(len(rules)):
        if not kept[i] or parts[i] is None:
            continue
        for j in range(len(rules)):
            if j == i or not kept[j] or parts[j] is None:
                continue
            if not implies(parts[i], parts[j]):
                continue
            if j < i and implies(parts[j], parts[i]):
                continue             # equivalent: the earlier index wins
            kept[j] = False
            chain = subsumed.setdefault(i, [])
            chain.append(rules[j].text or rules[j].describe())
            chain.extend(subsumed.pop(j, []))

    output: list[ConsistencyRule] = []
    for index, rule in enumerate(rules):
        if not kept[index]:
            continue
        if index in subsumed:
            rule = dataclasses.replace(
                rule,
                implied_by=rule.implied_by + tuple(subsumed[index]),
            )
        output.append(rule)
    return output


def merge_property_exists(
    rules: list[ConsistencyRule],
) -> list[ConsistencyRule]:
    """Fuse same-label PROPERTY_EXISTS rules into multi-property rules.

    Other rules pass through unchanged, keeping their relative order at
    the position of the first fused member.
    """
    by_label: dict[str, list[ConsistencyRule]] = defaultdict(list)
    for rule in rules:
        if rule.kind is RuleKind.PROPERTY_EXISTS and rule.label:
            by_label[rule.label].append(rule)

    fused: dict[str, ConsistencyRule] = {}
    for label, members in by_label.items():
        if len(members) == 1:
            fused[label] = members[0]
            continue
        properties = tuple(
            dict.fromkeys(
                key for member in members for key in member.properties
            )
        )
        merged = ConsistencyRule(
            kind=RuleKind.PROPERTY_EXISTS,
            text="",
            label=label,
            properties=properties,
            provenance=members[0].provenance,
        )
        fused[label] = ConsistencyRule(
            kind=merged.kind,
            text=to_natural_language(merged),
            label=merged.label,
            properties=merged.properties,
            provenance=merged.provenance,
        )

    output: list[ConsistencyRule] = []
    emitted: set[str] = set()
    for rule in rules:
        if rule.kind is RuleKind.PROPERTY_EXISTS and rule.label in fused:
            if rule.label not in emitted:
                emitted.add(rule.label)
                output.append(fused[rule.label])
            continue
        output.append(rule)
    return output
