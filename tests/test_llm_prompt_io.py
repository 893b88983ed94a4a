"""Unit tests for prompt parsing (the simulated LLM's input channel)."""

import dataclasses

import pytest

from repro.llm.prompt_io import (
    extract_section,
    parse_property_block,
    parse_schema_summary,
    parse_visible_graph,
)
from repro.prompts import (
    cypher_prompt,
    examples_text,
    few_shot_prompt,
    zero_shot_prompt,
)


class TestSectionExtraction:
    def test_zero_shot_sections(self):
        prompt = zero_shot_prompt("GRAPH TEXT HERE")
        assert extract_section(prompt, "### Graph data:") == \
            "GRAPH TEXT HERE"
        assert "consistency rules" in extract_section(prompt, "### Task:")
        assert extract_section(
            prompt, "### Examples of consistency rules:"
        ) is None

    def test_few_shot_sections(self):
        prompt = few_shot_prompt("G", examples_text())
        examples = extract_section(
            prompt, "### Examples of consistency rules:"
        )
        assert "Book" in examples
        assert extract_section(prompt, "### Graph data:") == "G"

    def test_cypher_prompt_sections(self):
        prompt = cypher_prompt("THE RULE.", "THE SCHEMA")
        assert extract_section(prompt, "### Rule:") == "THE RULE."
        assert extract_section(
            prompt, "### Property graph information:"
        ) == "THE SCHEMA"

    def test_missing_section(self):
        assert extract_section("no sections here", "### Rule:") is None


class TestPropertyBlock:
    def test_simple_values(self):
        assert parse_property_block("a: 1, b: 'x', c: True, d: 2.5") == {
            "a": 1, "b": "x", "c": True, "d": 2.5,
        }

    def test_comma_inside_string(self):
        assert parse_property_block("t: 'a, b', n: 3") == {
            "t": "a, b", "n": 3,
        }

    def test_list_value(self):
        assert parse_property_block("xs: [1, 2, 3]") == {"xs": [1, 2, 3]}

    def test_empty_block(self):
        assert parse_property_block("") == {}
        assert parse_property_block("   ") == {}

    def test_malformed_entry_skipped(self):
        assert parse_property_block("novalue, a: 1") == {"a": 1}


class TestVisibleGraphParsing:
    def test_clipped_lines_are_dropped_and_counted(self):
        text = (
            "label User has properties (id: 1).\n"          # clipped head
            "Node u2 with label User has properties (id: 2).\n"
            "Node u2 (User) connects to node t9 (Tweet) via edge e7 "
            "with label POSTS and properties ().\n"
            "Node t9 with label Tweet has prop"              # clipped tail
        )
        view = parse_visible_graph(text)
        assert set(view.nodes) == {"u2"}
        assert len(view.edges) == 1
        assert view.unparsed_lines == 2

    def test_multi_label_node(self):
        view = parse_visible_graph(
            "Node x with label A:B has properties ()."
        )
        assert view.nodes["x"].labels == ("A", "B")

    def test_view_helpers(self):
        text = (
            "Node a with label X has properties (k: 1).\n"
            "Node b with label X has properties ().\n"
            "Node a (X) connects to node b (X) via edge e1 with label R "
            "and properties (w: 2)."
        )
        view = parse_visible_graph(text)
        assert view.node_count("X") == 2
        assert view.labels() == ["X"]
        assert view.edge_labels() == ["R"]
        assert len(view.edges_with_label("R")) == 1
        assert view.resolve_labels("a") == ("X",)
        assert view.resolve_labels("zz") == ()


class TestSchemaSummary:
    def test_round_trip_from_describe(self, social_schema):
        mini = parse_schema_summary(social_schema.describe())
        assert mini.node_properties["User"] == ["active", "id", "name"]
        assert mini.edge_properties["FOLLOWS"] == ["since"]
        assert mini.edge_connects("User", "POSTS", "Tweet")
        assert not mini.edge_connects("Tweet", "POSTS", "User")

    def test_none_properties(self):
        summary = (
            "Node labels and properties:\n"
            "  Bare: (none)\n"
            "Edge labels and properties:\n"
            "Connections (source)-[edge]->(target):\n"
        )
        mini = parse_schema_summary(summary)
        assert mini.node_properties["Bare"] == []

    def test_parsed_once_per_text(self, social_schema):
        summary = social_schema.describe()
        mini = parse_schema_summary(summary)
        # every Cypher prompt of a dataset shares one read-only parse
        assert parse_schema_summary(summary) is mini
        with pytest.raises(dataclasses.FrozenInstanceError):
            mini.connections = []
