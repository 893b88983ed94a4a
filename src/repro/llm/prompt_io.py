"""Reading prompts from the inside — the simulated LLM's only input.

The honesty contract of this reproduction: the simulated LLM sees
*nothing but the prompt string*.  This module recovers, from that string:

* which task is being asked (rule generation vs. Cypher generation) and
  whether few-shot examples are present;
* the encoded graph text (possibly a window fragment or a RAG context);
* a :class:`VisibleGraphView` parsed from that text — statements clipped
  at window boundaries fail to parse and are counted as lost, which is
  precisely the fragmentation effect §3.1.1 worries about;
* for Cypher prompts, the rule sentence and a :class:`MiniSchema` parsed
  from the schema summary.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from repro.prompts.templates import (
    EXAMPLES_SECTION,
    FEEDBACK_SECTION,
    GRAPH_SECTION,
    RULE_SECTION,
    SCHEMA_SECTION,
    TASK_SECTION,
)

_SECTIONS = (GRAPH_SECTION, EXAMPLES_SECTION, TASK_SECTION,
             RULE_SECTION, SCHEMA_SECTION, FEEDBACK_SECTION)
#: any section header; headers cannot overlap one another (``#`` occurs
#: only in their first three characters), so the matches of one
#: left-to-right scan are every header occurrence in the prompt
_HEADER_RE = re.compile("|".join(re.escape(header) for header in _SECTIONS))


def prompt_sections(prompt: str) -> dict[str, str]:
    """Every section of ``prompt``, keyed by its header, in one scan.

    A section is the stripped text between its header's first
    occurrence and the next header occurrence (any header, the same one
    repeated included), or the end of the prompt.  Headers absent from
    the prompt have no key.
    """
    sections: dict[str, str] = {}
    open_header = None
    open_start = 0
    for match in _HEADER_RE.finditer(prompt):
        if open_header is not None:
            sections[open_header] = prompt[open_start:match.start()].strip()
            open_header = None
        header = match.group()
        if header not in sections:
            open_header, open_start = header, match.end()
    if open_header is not None:
        sections[open_header] = prompt[open_start:].strip()
    return sections


def extract_section(prompt: str, header: str) -> str | None:
    """Text between ``header`` and the next section header (or the end)."""
    return prompt_sections(prompt).get(header)


# ----------------------------------------------------------------------
# encoded-statement parsing
# ----------------------------------------------------------------------
_NODE_RE = re.compile(
    r"^Node (\S+) with label (\S+) has properties \((.*)\)\.$"
)
_EDGE_INCIDENT_RE = re.compile(
    r"^Node (\S+) \((\S+)\) connects to node (\S+) \((\S+)\) via edge "
    r"(\S+) with label (\S+) and properties \((.*)\)\.$"
)
_EDGE_ADJACENCY_RE = re.compile(
    r"^Edge (\S+): (\S+) -(\S+)-> (\S+) with properties \((.*)\)\.$"
)


def parse_property_block(block: str) -> dict[str, object]:
    """Parse ``key: value, key: value`` with quote/bracket awareness."""
    properties: dict[str, object] = {}
    if not block.strip():
        return properties
    entries: list[str] = []
    depth = 0
    in_string = False
    current: list[str] = []
    for char in block:
        if char == "'" :
            in_string = not in_string
            current.append(char)
        elif char in "[(" and not in_string:
            depth += 1
            current.append(char)
        elif char in "])" and not in_string:
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0 and not in_string:
            entries.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        entries.append("".join(current))
    for entry in entries:
        if ":" not in entry:
            continue
        key, _colon, raw = entry.partition(":")
        properties[key.strip()] = _parse_value(raw.strip())
    return properties


def _parse_value(raw: str) -> object:
    if raw == "True":
        return True
    if raw == "False":
        return False
    if raw.startswith("'") and raw.endswith("'") and len(raw) >= 2:
        return raw[1:-1]
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part.strip()) for part in inner.split(",")]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


@dataclass(frozen=True)
class NodeObservation:
    node_id: str
    labels: tuple[str, ...]
    properties: dict[str, object]


@dataclass(frozen=True)
class EdgeObservation:
    edge_id: str
    label: str
    src: str
    dst: str
    src_labels: tuple[str, ...]     # empty for adjacency-encoded edges
    dst_labels: tuple[str, ...]
    properties: dict[str, object]


@dataclass
class VisibleGraphView:
    """Everything the LLM can know about the graph from one prompt."""

    nodes: dict[str, NodeObservation] = field(default_factory=dict)
    edges: list[EdgeObservation] = field(default_factory=list)
    unparsed_lines: int = 0          # boundary fragments, lost context

    # ------------------------------------------------------------------
    def node_count(self, label: str) -> int:
        return sum(1 for node in self.nodes.values() if label in node.labels)

    def labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for node in self.nodes.values():
            for label in node.labels:
                seen.setdefault(label, None)
        return list(seen)

    def nodes_with_label(self, label: str) -> list[NodeObservation]:
        return [n for n in self.nodes.values() if label in n.labels]

    def edge_labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for edge in self.edges:
            seen.setdefault(edge.label, None)
        return list(seen)

    def edges_with_label(self, label: str) -> list[EdgeObservation]:
        return [e for e in self.edges if e.label == label]

    def resolve_labels(self, node_id: str) -> tuple[str, ...]:
        observation = self.nodes.get(node_id)
        return observation.labels if observation else ()


def parse_visible_graph(text: str) -> VisibleGraphView:
    """Parse encoded-graph text into a view, dropping clipped lines."""
    view = VisibleGraphView()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        match = _NODE_RE.match(line)
        if match:
            node_id, label_text, props = match.groups()
            labels = tuple(label_text.split(":")) if label_text != "None" else ()
            view.nodes[node_id] = NodeObservation(
                node_id=node_id, labels=labels,
                properties=parse_property_block(props),
            )
            continue
        match = _EDGE_INCIDENT_RE.match(line)
        if match:
            src, src_labels, dst, dst_labels, edge_id, label, props = (
                match.groups()
            )
            view.edges.append(EdgeObservation(
                edge_id=edge_id, label=label, src=src, dst=dst,
                src_labels=tuple(src_labels.split(":"))
                if src_labels != "None" else (),
                dst_labels=tuple(dst_labels.split(":"))
                if dst_labels != "None" else (),
                properties=parse_property_block(props),
            ))
            continue
        match = _EDGE_ADJACENCY_RE.match(line)
        if match:
            edge_id, src, label, dst, props = match.groups()
            view.edges.append(EdgeObservation(
                edge_id=edge_id, label=label, src=src, dst=dst,
                src_labels=(), dst_labels=(),
                properties=parse_property_block(props),
            ))
            continue
        view.unparsed_lines += 1
    return view


# ----------------------------------------------------------------------
# schema summaries in Cypher prompts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MiniSchema:
    """Schema knowledge parsed back out of a Cypher prompt.

    Offers the same ``edge_connects`` surface the
    :class:`~repro.rules.translator.RuleTranslator` needs for direction
    decisions, so the simulated LLM orients patterns using only what the
    prompt told it.  :func:`parse_schema_summary` shares one instance
    per summary text, so a parsed schema is read-only.
    """

    node_properties: dict[str, list[str]] = field(default_factory=dict)
    edge_properties: dict[str, list[str]] = field(default_factory=dict)
    connections: list[tuple[str, str, str]] = field(default_factory=list)

    def edge_connects(
        self, src_label: str, edge_label: str, dst_label: str
    ) -> bool:
        return (src_label, edge_label, dst_label) in self.connections


_SUMMARY_NODE_RE = re.compile(r"^  (\S+): (.*)$")
_SUMMARY_CONN_RE = re.compile(r"^  \((\S+)\)-\[:(\S+)\]->\((\S+)\) x\d+$")


@functools.lru_cache(maxsize=64)
def parse_schema_summary(summary: str) -> MiniSchema:
    """Parse the :meth:`GraphSchema.describe` text back into a view.

    Memoized by the text: every Cypher prompt of a dataset carries the
    same summary.  The returned schema is shared and must not be mutated.
    """
    schema = MiniSchema()
    mode = None
    for line in summary.splitlines():
        if line.startswith("Node labels"):
            mode = "node"
            continue
        if line.startswith("Edge labels"):
            mode = "edge"
            continue
        if line.startswith("Connections"):
            mode = "conn"
            continue
        if mode == "conn":
            match = _SUMMARY_CONN_RE.match(line)
            if match:
                schema.connections.append(match.groups())
            continue
        match = _SUMMARY_NODE_RE.match(line)
        if match:
            label, keys = match.groups()
            key_list = (
                [] if keys.strip() == "(none)"
                else [key.strip() for key in keys.split(",")]
            )
            if mode == "node":
                schema.node_properties[label] = key_list
            elif mode == "edge":
                schema.edge_properties[label] = key_list
    return schema
