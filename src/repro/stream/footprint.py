"""Rule footprints: which graph vocabulary a metric bundle can read.

A rule's §4.2 metrics are three count queries; their results are a pure
function of the graph state those queries can *observe*.  The footprint
over-approximates that observable region as a vocabulary triple — node
labels scanned, edge types traversed, property keys read — plus wildcard
flags for the constructs that defeat static narrowing (unlabelled node
patterns, untyped relationships, ``properties(n)``-style dynamic access,
or a query our parser rejects).

The incremental maintainer intersects footprints against a delta batch:
a rule whose footprint is disjoint from everything the batch touched
provably kept its metrics, so it is never re-evaluated.  Wildcards are
resolved against the planner's catalog (the current label / edge-type
vocabulary) at decision time, so "any label" means "any label that
actually exists or is being introduced", not a blanket re-evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cypher import ast_nodes as ast
from repro.cypher.errors import CypherError
from repro.cypher.parser import parse_cached
from repro.graph.changelog import DeltaKind, GraphDelta
from repro.graph.statistics import GraphCatalog

#: functions whose value depends on a node/edge's *entire* property map —
#: a property delta on any key can change them
_DYNAMIC_PROPERTY_FUNCTIONS = frozenset({"properties", "keys"})


@dataclass(frozen=True)
class RuleFootprint:
    """Static over-approximation of one rule's observable vocabulary."""

    labels: frozenset[str] = frozenset()
    edge_types: frozenset[str] = frozenset()
    property_keys: frozenset[str] = frozenset()
    any_label: bool = False        # unlabelled node pattern present
    any_edge_type: bool = False    # untyped relationship pattern present
    any_property: bool = False     # dynamic whole-map property access
    wildcard: bool = False         # could not analyze: affected by anything

    def union(self, other: "RuleFootprint") -> "RuleFootprint":
        return RuleFootprint(
            labels=self.labels | other.labels,
            edge_types=self.edge_types | other.edge_types,
            property_keys=self.property_keys | other.property_keys,
            any_label=self.any_label or other.any_label,
            any_edge_type=self.any_edge_type or other.any_edge_type,
            any_property=self.any_property or other.any_property,
            wildcard=self.wildcard or other.wildcard,
        )


#: a footprint that intersects every delta — the sound fallback
WILDCARD_FOOTPRINT = RuleFootprint(wildcard=True)


class _Collector:
    def __init__(self) -> None:
        self.labels: set[str] = set()
        self.edge_types: set[str] = set()
        self.property_keys: set[str] = set()
        self.any_label = False
        self.any_edge_type = False
        self.any_property = False

    def visit(self, node: object) -> None:
        if isinstance(node, ast.NodePattern):
            if node.labels:
                self.labels.update(node.labels)
            else:
                self.any_label = True
            self.property_keys.update(key for key, _ in node.properties)
        elif isinstance(node, ast.RelPattern):
            if node.types:
                self.edge_types.update(node.types)
            else:
                self.any_edge_type = True
            self.property_keys.update(key for key, _ in node.properties)
        elif isinstance(node, ast.LabelPredicate):
            self.labels.update(node.labels)
        elif isinstance(node, ast.PropertyAccess):
            self.property_keys.add(node.key)
        elif isinstance(node, ast.FunctionCall):
            if node.name in _DYNAMIC_PROPERTY_FUNCTIONS:
                self.any_property = True

    def footprint(self) -> RuleFootprint:
        return RuleFootprint(
            labels=frozenset(self.labels),
            edge_types=frozenset(self.edge_types),
            property_keys=frozenset(self.property_keys),
            any_label=self.any_label,
            any_edge_type=self.any_edge_type,
            any_property=self.any_property,
        )


def extract_footprint(query_text: str) -> RuleFootprint | None:
    """Footprint of one query, or None when the query cannot parse.

    ``None`` is *stronger* than a wildcard: the evaluator's ``_count``
    scores an unparsable query 0 on every graph, so it contributes
    nothing observable at all.
    """
    try:
        tree = parse_cached(query_text)
    except CypherError:
        return None
    collector = _Collector()
    for node in ast.walk(tree):
        collector.visit(node)
    return collector.footprint()


def footprint_of_queries(query_texts: list[str]) -> RuleFootprint:
    """Union footprint of a rule's evaluated count queries."""
    result = RuleFootprint()
    for text in query_texts:
        footprint = extract_footprint(text)
        if footprint is not None:
            result = result.union(footprint)
    return result


def resolve_footprint(
    footprint: RuleFootprint,
    catalog: GraphCatalog,
    batch_labels: frozenset[str],
    batch_edge_types: frozenset[str],
) -> RuleFootprint:
    """Ground wildcard flags against the catalog's current vocabulary.

    An unlabelled node pattern can observe any label that exists now or
    is mentioned by the batch (``batch_labels`` must include vocabulary
    the batch removes — the catalog is post-batch state and may have
    forgotten it); likewise untyped relationships.  Resolution
    keeps the flags set (future-proof against vocabulary the catalog has
    not seen) but widens the concrete sets so plain intersection works.
    """
    labels = footprint.labels
    edge_types = footprint.edge_types
    if footprint.any_label:
        labels = labels | frozenset(catalog.label_counts) | batch_labels
    if footprint.any_edge_type:
        edge_types = (
            edge_types | frozenset(catalog.edge_stats) | batch_edge_types
        )
    return RuleFootprint(
        labels=labels,
        edge_types=edge_types,
        property_keys=footprint.property_keys,
        any_label=footprint.any_label,
        any_edge_type=footprint.any_edge_type,
        any_property=footprint.any_property,
        wildcard=footprint.wildcard,
    )


def delta_affects(footprint: RuleFootprint, delta: GraphDelta) -> bool:
    """Whether ``delta`` can change a rule with a *resolved* footprint.

    Callers must ground wildcards first (:func:`resolve_footprint` with
    batch vocabulary covering every label / edge type the batch
    mentions) — afterwards plain set intersection is sound.  True may be
    spurious; False is a proof of non-interference.  Structural node
    deltas interfere through shared labels; property deltas additionally
    require a shared property key; edge deltas interfere through the
    edge type (endpoint labels are deliberately ignored — the delta does
    not carry them).
    """
    if footprint.wildcard:
        return True
    kind = delta.kind
    if kind in (DeltaKind.NODE_ADDED, DeltaKind.NODE_REMOVED):
        return bool(footprint.labels.intersection(delta.labels))
    if kind is DeltaKind.NODE_PROPS:
        return bool(footprint.labels.intersection(delta.labels)) and (
            footprint.any_property
            or bool(footprint.property_keys.intersection(delta.keys))
        )
    # edge deltas
    touches_type = delta.edge_label in footprint.edge_types
    if kind is DeltaKind.EDGE_PROPS:
        return touches_type and (
            footprint.any_property
            or bool(footprint.property_keys.intersection(delta.keys))
        )
    return touches_type
