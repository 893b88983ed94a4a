"""Rule induction over the *visible* prompt contents.

This is the cognitive core of the simulated LLM: given only the
:class:`~repro.llm.prompt_io.VisibleGraphView` parsed from one prompt
(one sliding window, or one RAG context), propose consistency rules with
an evidence score.  Because proposals are grounded in what the window
happens to contain, the paper's observed mechanics come out naturally:

* windows see the whole graph ⇒ union of proposals is broad (SWA wins);
* RAG sees a few retrieved chunks ⇒ fewer, narrower proposals;
* temporal rules require *both* endpoints of an edge to be visible in
  the same context ⇒ they appear only "occasionally";
* categorical-domain proposals list only the values the window saw ⇒
  globally incomplete domains ⇒ confidence below 100%.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.llm.prompt_io import EdgeObservation, VisibleGraphView
from repro.rules.model import ConsistencyRule, RuleKind

#: property names treated as timestamps for temporal-rule induction
TIME_PROPERTY_NAMES = frozenset({
    "created_at", "date", "timestamp", "time", "since", "dob",
    "pwdlastset", "lastlogon", "published", "discovered", "minute",
})

#: property names treated as identifiers for key-rule induction
ID_PROPERTY_HINTS = ("id", "objectid", "uuid", "key")

#: named format detectors: (format name, regex); values must fullmatch
FORMAT_DETECTORS: tuple[tuple[str, str], ...] = (
    ("url", r"https?://[a-z0-9./-]+"),
    ("cve", r"CVE-\d{4}-\d{4,5}"),
    ("domain", r"([a-z0-9-]+\.)+[a-z]{2,}"),
    ("iso_datetime", r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}"),
    ("iso_date", r"\d{4}-\d{2}-\d{2}"),
)

_MIN_LABEL_SAMPLE = 2       # need at least this many nodes of a label
_MIN_EDGE_SAMPLE = 3
_MAX_DOMAIN_SIZE = 6        # categorical domains larger than this: no rule
#: an LLM freely overgeneralises "should have" rules from a mostly-
#: complete property — the mechanism behind sub-100% confidence scores
_COMPLETENESS_THRESHOLD = 0.75


@dataclass(frozen=True)
class Proposal:
    """One candidate rule with the evidence that produced it."""

    rule: ConsistencyRule
    evidence: float


def _is_id_property(key: str) -> bool:
    lowered = key.lower()
    return any(
        lowered == hint or lowered.endswith(hint)
        for hint in ID_PROPERTY_HINTS
    )


def _is_time_property(key: str) -> bool:
    return key.lower() in TIME_PROPERTY_NAMES


def _detect_format(values: list[object]) -> tuple[str, str] | None:
    strings = [value for value in values if isinstance(value, str)]
    if len(strings) < 3 or len(strings) != len(values):
        return None
    for name, regex in FORMAT_DETECTORS:
        compiled = re.compile(regex)
        if all(compiled.fullmatch(value) for value in strings):
            return name, regex
    return None


class InductionEngine:
    """Derives rule proposals from one visible graph view."""

    def __init__(self, view: VisibleGraphView) -> None:
        self.view = view

    # ------------------------------------------------------------------
    def propose(self) -> list[Proposal]:
        """All proposals derivable from the view, unfiltered."""
        proposals: list[Proposal] = []
        proposals.extend(self._node_property_rules())
        proposals.extend(self._edge_rules())
        proposals.extend(self._mandatory_edge_rules())
        proposals.extend(self._temporal_order_rules())
        proposals.extend(self._primary_key_rules())
        proposals.extend(self._pattern_rules())
        return proposals

    # ------------------------------------------------------------------
    # node-level rules
    # ------------------------------------------------------------------
    def _node_property_rules(self) -> Iterable[Proposal]:
        for label in self.view.labels():
            nodes = self.view.nodes_with_label(label)
            total = len(nodes)
            if total < _MIN_LABEL_SAMPLE:
                continue
            keys: dict[str, list[object]] = {}
            for node in nodes:
                for key, value in node.properties.items():
                    keys.setdefault(key, []).append(value)
            for key, values in sorted(keys.items()):
                completeness = len(values) / total
                if completeness >= _COMPLETENESS_THRESHOLD:
                    yield Proposal(
                        rule=ConsistencyRule(
                            kind=RuleKind.PROPERTY_EXISTS, text="",
                            label=label, properties=(key,),
                        ),
                        evidence=min(0.98, completeness),
                    )
                if (
                    _is_id_property(key)
                    and completeness >= _COMPLETENESS_THRESHOLD
                    and self._all_distinct(values)
                ):
                    yield Proposal(
                        rule=ConsistencyRule(
                            kind=RuleKind.UNIQUENESS, text="",
                            label=label, properties=(key,),
                        ),
                        evidence=min(0.95, 0.6 + total / 50),
                    )
                yield from self._domain_rules(label, key, values)

    @staticmethod
    def _all_distinct(values: list[object]) -> bool:
        try:
            return len(set(values)) == len(values)
        except TypeError:
            return False

    def _domain_rules(
        self, label: str, key: str, values: list[object]
    ) -> Iterable[Proposal]:
        if len(values) < _MIN_EDGE_SAMPLE:
            return
        try:
            distinct = set(values)
        except TypeError:
            return
        if distinct <= {True, False} and len(distinct) >= 1:
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.VALUE_DOMAIN, text="", label=label,
                    properties=(key,), allowed_values=(True, False),
                ),
                evidence=0.85,
            )
            return
        detected = _detect_format(values)
        if detected is not None and not _is_id_property(key):
            _name, regex = detected
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.VALUE_FORMAT, text="", label=label,
                    properties=(key,), pattern_regex=regex,
                ),
                evidence=0.72,
            )
            return
        if (
            all(isinstance(value, str) for value in distinct)
            and len(distinct) <= _MAX_DOMAIN_SIZE
            and len(values) >= 8
            and all(len(value) <= 30 for value in distinct)
        ):
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.VALUE_DOMAIN, text="", label=label,
                    properties=(key,),
                    allowed_values=tuple(sorted(distinct)),
                ),
                evidence=0.62,
            )

    # ------------------------------------------------------------------
    # edge-level rules
    # ------------------------------------------------------------------
    def _edge_rules(self) -> Iterable[Proposal]:
        for edge_label in self.view.edge_labels():
            edges = self.view.edges_with_label(edge_label)
            if len(edges) < _MIN_EDGE_SAMPLE:
                continue
            yield from self._endpoint_rule(edge_label, edges)
            yield from self._edge_property_rules(edge_label, edges)
            yield from self._self_loop_rule(edge_label, edges)
            yield from self._temporal_unique_rule(edge_label, edges)

    def _endpoint_labels(
        self, edge: EdgeObservation
    ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        src_labels = edge.src_labels or self.view.resolve_labels(edge.src)
        dst_labels = edge.dst_labels or self.view.resolve_labels(edge.dst)
        return src_labels, dst_labels

    def _endpoint_rule(
        self, edge_label: str, edges: list[EdgeObservation]
    ) -> Iterable[Proposal]:
        pairs = set()
        known = 0
        for edge in edges:
            src_labels, dst_labels = self._endpoint_labels(edge)
            if not src_labels or not dst_labels:
                continue
            known += 1
            pairs.add((src_labels[0], dst_labels[0]))
        if known >= _MIN_EDGE_SAMPLE and len(pairs) == 1:
            src_label, dst_label = next(iter(pairs))
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.ENDPOINT, text="",
                    edge_label=edge_label,
                    src_label=src_label, dst_label=dst_label,
                ),
                evidence=min(0.95, 0.5 + known / 20),
            )

    def _edge_property_rules(
        self, edge_label: str, edges: list[EdgeObservation]
    ) -> Iterable[Proposal]:
        total = len(edges)
        keys: dict[str, int] = {}
        for edge in edges:
            for key in edge.properties:
                keys[key] = keys.get(key, 0) + 1
        for key, present in sorted(keys.items()):
            completeness = present / total
            if completeness >= _COMPLETENESS_THRESHOLD:
                yield Proposal(
                    rule=ConsistencyRule(
                        kind=RuleKind.EDGE_PROP_EXISTS, text="",
                        edge_label=edge_label, properties=(key,),
                    ),
                    evidence=min(0.9, completeness * 0.92),
                )

    def _self_loop_rule(
        self, edge_label: str, edges: list[EdgeObservation]
    ) -> Iterable[Proposal]:
        same_label = 0
        label: str | None = None
        for edge in edges:
            src_labels, dst_labels = self._endpoint_labels(edge)
            if src_labels and src_labels == dst_labels:
                same_label += 1
                label = src_labels[0]
            if edge.src == edge.dst:
                return  # a self-loop was observed; no rule
        if same_label >= 5 and label is not None:
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.NO_SELF_LOOP, text="",
                    label=label, edge_label=edge_label,
                ),
                evidence=min(0.8, 0.5 + same_label / 40),
            )

    def _temporal_unique_rule(
        self, edge_label: str, edges: list[EdgeObservation]
    ) -> Iterable[Proposal]:
        for key in sorted({k for e in edges for k in e.properties}):
            if not _is_time_property(key):
                continue
            triples = []
            for edge in edges:
                if key in edge.properties:
                    triples.append((edge.src, edge.dst, edge.properties[key]))
            if len(triples) < _MIN_EDGE_SAMPLE:
                continue
            if len(set(triples)) != len(triples):
                continue  # duplicate observed: rule does not hold
            src_labels, dst_labels = self._endpoint_labels(edges[0])
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.TEMPORAL_UNIQUE, text="",
                    edge_label=edge_label,
                    src_label=src_labels[0] if src_labels else None,
                    dst_label=dst_labels[0] if dst_labels else None,
                    time_property=key,
                ),
                evidence=min(0.75, 0.45 + len(triples) / 30),
            )

    # ------------------------------------------------------------------
    # rules requiring node/edge joins inside the visible context
    # ------------------------------------------------------------------
    def _mandatory_edge_rules(self) -> Iterable[Proposal]:
        incoming: dict[tuple[str, str], set[str]] = {}
        outgoing: dict[tuple[str, str], set[str]] = {}
        other_side: dict[tuple[str, str, str], str] = {}
        for edge in self.view.edges:
            src_labels, dst_labels = self._endpoint_labels(edge)
            for label in dst_labels[:1]:
                incoming.setdefault((label, edge.label), set()).add(edge.dst)
                if src_labels:
                    other_side[(label, edge.label, "in")] = src_labels[0]
            for label in src_labels[:1]:
                outgoing.setdefault((label, edge.label), set()).add(edge.src)
                if dst_labels:
                    other_side[(label, edge.label, "out")] = dst_labels[0]

        for (label, edge_label), covered in sorted(incoming.items()):
            nodes = {
                n.node_id for n in self.view.nodes_with_label(label)
            }
            if len(nodes) < 5:
                continue
            fraction = len(covered & nodes) / len(nodes)
            partner = other_side.get((label, edge_label, "in"))
            if fraction >= 0.95 and partner:
                yield Proposal(
                    rule=ConsistencyRule(
                        kind=RuleKind.MANDATORY_EDGE, text="",
                        label=label, edge_label=edge_label,
                        src_label=partner, dst_label=label,
                    ),
                    evidence=min(0.85, fraction * 0.85),
                )
        for (label, edge_label), covered in sorted(outgoing.items()):
            nodes = {
                n.node_id for n in self.view.nodes_with_label(label)
            }
            if len(nodes) < 5:
                continue
            fraction = len(covered & nodes) / len(nodes)
            partner = other_side.get((label, edge_label, "out"))
            if fraction >= 0.95 and partner:
                yield Proposal(
                    rule=ConsistencyRule(
                        kind=RuleKind.MANDATORY_EDGE, text="",
                        label=label, edge_label=edge_label,
                        src_label=label, dst_label=partner,
                    ),
                    evidence=min(0.85, fraction * 0.82),
                )

    def _temporal_order_rules(self) -> Iterable[Proposal]:
        for edge_label in self.view.edge_labels():
            edges = self.view.edges_with_label(edge_label)
            candidates: dict[str, list[tuple[object, object]]] = {}
            for edge in edges:
                src = self.view.nodes.get(edge.src)
                dst = self.view.nodes.get(edge.dst)
                if src is None or dst is None:
                    continue
                for key in src.properties:
                    if not _is_time_property(key):
                        continue
                    if key not in dst.properties:
                        continue
                    candidates.setdefault(key, []).append(
                        (src.properties[key], dst.properties[key])
                    )
            for key, pairs in sorted(candidates.items()):
                if len(pairs) < 2:
                    continue
                try:
                    ordered = all(a >= b for a, b in pairs)
                except TypeError:
                    continue
                if not ordered:
                    continue
                edge = next(
                    e for e in edges
                    if e.src in self.view.nodes and e.dst in self.view.nodes
                )
                src_labels, dst_labels = self._endpoint_labels(edge)
                if not src_labels or not dst_labels:
                    continue
                yield Proposal(
                    rule=ConsistencyRule(
                        kind=RuleKind.TEMPORAL_ORDER, text="",
                        edge_label=edge_label,
                        src_label=src_labels[0], dst_label=dst_labels[0],
                        time_property=key,
                    ),
                    evidence=min(0.8, 0.45 + len(pairs) / 12),
                )

    def _primary_key_rules(self) -> Iterable[Proposal]:
        # scoped uniqueness: id of L unique within the S it links to
        groups: dict[tuple[str, str, str], list[tuple[str, object]]] = {}
        for edge in self.view.edges:
            src = self.view.nodes.get(edge.src)
            dst = self.view.nodes.get(edge.dst)
            if src is None or dst is None:
                continue
            if not src.labels or not dst.labels:
                continue
            for key, value in src.properties.items():
                if not _is_id_property(key):
                    continue
                groups.setdefault(
                    (src.labels[0], edge.label, dst.labels[0]), []
                ).append((edge.dst + "/" + key, value))
        for (label, edge_label, scope_label), pairs in sorted(groups.items()):
            if len(pairs) < 4:
                continue
            key = pairs[0][0].rsplit("/", 1)[1]
            scoped = [(scope, value) for scope, value in pairs
                      if scope.endswith("/" + key)]
            try:
                if len(set(scoped)) != len(scoped):
                    continue
            except TypeError:
                continue
            yield Proposal(
                rule=ConsistencyRule(
                    kind=RuleKind.PRIMARY_KEY, text="", label=label,
                    properties=(key,), scope_label=scope_label,
                    scope_edge_label=edge_label,
                ),
                evidence=min(0.7, 0.4 + len(scoped) / 30),
            )

    def _pattern_rules(self) -> Iterable[Proposal]:
        # two-hop closure: (n:L)-[:E1]->(m:M) implies (m)-[:E2]->(k:K).
        # dicts double as insertion-ordered sets: iteration must not
        # depend on hash randomisation or runs stop being reproducible
        first_hop: dict[tuple[str, str, str], dict[str, None]] = {}
        second_hop: dict[tuple[str, str], dict[str, str]] = {}
        for edge in self.view.edges:
            src_labels, dst_labels = self._endpoint_labels(edge)
            if not src_labels or not dst_labels:
                continue
            first_hop.setdefault(
                (src_labels[0], edge.label, dst_labels[0]), {}
            )[edge.dst] = None
            second_hop.setdefault(
                (dst_labels[0], edge.label), {}
            )
            second_hop.setdefault((src_labels[0], edge.label), {})[
                edge.src
            ] = dst_labels[0]
        for (label, edge1, mid_label), mids in sorted(first_hop.items()):
            if len(mids) < 3:
                continue
            for (mid2, edge2), sources in sorted(second_hop.items()):
                if mid2 != mid_label or edge2 == edge1:
                    continue
                covered = [m for m in mids if m in sources]
                if not covered or len(covered) / len(mids) < 0.9:
                    continue
                scope_label = sources[covered[0]]
                yield Proposal(
                    rule=ConsistencyRule(
                        kind=RuleKind.PATTERN, text="", label=label,
                        edge_label=edge1, dst_label=mid_label,
                        scope_label=scope_label, scope_edge_label=edge2,
                    ),
                    evidence=min(
                        0.7, 0.4 + len(covered) / (len(mids) * 4)
                    ),
                )
