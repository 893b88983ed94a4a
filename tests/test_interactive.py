"""Tests for interactive refinement and explanations."""

import dataclasses

import pytest

from repro.graph import infer_schema
from repro.interactive import (
    RefinementSession,
    RuleStatus,
    explain_rule,
)
from repro.interactive import explain as explain_module
from repro.interactive import session as session_module
from repro.rules import ConsistencyRule, RuleKind, to_natural_language
from repro.rules.translator import RuleTranslator

#: a violation query the engine rejects, as a hallucinating model writes
BROKEN_QUERY = "MATCH (n:Match RETURN n"


def engine_bug(*_args, **_kwargs):
    raise RuntimeError("engine bug")


def named(rule):
    return ConsistencyRule(
        kind=rule.kind, text=to_natural_language(rule), label=rule.label,
        properties=rule.properties, edge_label=rule.edge_label,
        src_label=rule.src_label, dst_label=rule.dst_label,
        allowed_values=rule.allowed_values,
        pattern_regex=rule.pattern_regex,
        scope_edge_label=rule.scope_edge_label,
        scope_label=rule.scope_label, time_property=rule.time_property,
    )


@pytest.fixture()
def session(sports_graph):
    schema = infer_schema(sports_graph)
    rules = [
        named(ConsistencyRule(RuleKind.PROPERTY_EXISTS, "", label="Match",
                              properties=("date", "stage"))),
        named(ConsistencyRule(RuleKind.UNIQUENESS, "", label="Person",
                              properties=("id",))),
        named(ConsistencyRule(RuleKind.TEMPORAL_UNIQUE, "",
                              edge_label="SCORED_GOAL",
                              src_label="Person", dst_label="Match",
                              time_property="minute")),
        named(ConsistencyRule(RuleKind.VALUE_DOMAIN, "", label="Match",
                              properties=("stage",),
                              allowed_values=("Group",))),  # too narrow
    ]
    return RefinementSession.from_rules(sports_graph, schema, rules)


class TestReviewFlow:
    def test_entries_scored_on_entry(self, session):
        assert all(entry.metrics is not None for entry in session.entries)
        assert session.pending() == [0, 1, 2, 3]

    def test_accept_and_export(self, session):
        session.accept(0, "essential attributes")
        session.accept(1)
        exported = session.export()
        assert len(exported) == 2
        rule, query, metrics = exported[0]
        assert "Match" in rule.text
        assert "count" in query
        assert metrics.support == 2

    def test_reject(self, session):
        session.reject(2, "minute collisions are legal")
        assert session.entries[2].status is RuleStatus.REJECTED
        assert session.entries[2].note == "minute collisions are legal"

    def test_double_review_rejected(self, session):
        session.accept(0)
        with pytest.raises(ValueError):
            session.reject(0)

    def test_summary_tally(self, session):
        session.accept(0)
        session.reject(1)
        tally = session.summary()
        assert tally == {"accepted": 1, "rejected": 1, "pending": 2}

    def test_audit_log(self, session):
        session.accept(0, "keep")
        session.reject(1, "drop")
        actions = [(record.action, record.entry_index)
                   for record in session.audit_log]
        assert actions == [("accept", 0), ("reject", 1)]


class TestEditing:
    def test_edit_replaces_with_rescored_rule(self, session):
        new_entry = session.edit(
            0, "Each Match node should have a date property."
        )
        assert session.entries[0].status is RuleStatus.EDITED
        assert session.entries[0].replaced_by == 4
        assert new_entry.rule.properties == ("date",)
        assert new_entry.metrics.support == 2

    def test_edit_rejects_unparseable(self, session):
        with pytest.raises(ValueError):
            session.edit(0, "make it nicer please")

    def test_tighten_domain(self, session):
        # entry 3's domain is only ('Group'), but the data has 'Final'
        before = session.entries[3].metrics
        assert before.confidence < 100.0
        new_entry = session.tighten_domain(3)
        assert set(new_entry.rule.allowed_values) == {"Group", "Final"}
        assert new_entry.metrics.confidence == 100.0

    def test_tighten_requires_domain_rule(self, session):
        with pytest.raises(ValueError):
            session.tighten_domain(0)


class TestViolations:
    def test_violations_surface_offenders(self, session, sports_graph):
        sports_graph.remove_node_property("m1", "stage")
        rows = session.violations(0)
        assert rows and rows[0]["id"] == 1

    def test_clean_rule_no_violations(self, session):
        assert session.violations(1) == []

    def test_only_query_errors_degrade(self, session, monkeypatch):
        entry = session.entries[0]
        entry.queries = dataclasses.replace(
            entry.queries, violations=BROKEN_QUERY
        )
        assert session.violations(0) == []
        monkeypatch.setattr(session_module, "execute", engine_bug)
        with pytest.raises(RuntimeError):
            session.violations(1)


class TestExplanations:
    def test_explains_every_translatable_kind(self, session, sports_graph):
        schema = infer_schema(sports_graph)
        for entry in session.entries:
            explanation = explain_rule(sports_graph, schema, entry.rule)
            assert explanation.rationale
            assert "support" in explanation.evidence
            assert explanation.render().startswith("RULE")

    def test_explanation_counts_are_grounded(self, sports_graph):
        schema = infer_schema(sports_graph)
        rule = named(ConsistencyRule(
            RuleKind.TEMPORAL_UNIQUE, "", edge_label="SCORED_GOAL",
            src_label="Person", dst_label="Match",
            time_property="minute",
        ))
        explanation = explain_rule(sports_graph, schema, rule)
        # 3 goals, one colliding pair -> 1 unique, 2 collide
        assert "1 of 3" in explanation.rationale
        assert explanation.counter_examples

    def test_only_query_errors_degrade(self, sports_graph, monkeypatch):
        schema = infer_schema(sports_graph)
        rule = named(ConsistencyRule(
            RuleKind.TEMPORAL_UNIQUE, "", edge_label="SCORED_GOAL",
            src_label="Person", dst_label="Match",
            time_property="minute",
        ))
        translate = RuleTranslator.translate
        with monkeypatch.context() as patch:
            patch.setattr(
                RuleTranslator, "translate",
                lambda self, r: dataclasses.replace(
                    translate(self, r), violations=BROKEN_QUERY
                ),
            )
            explanation = explain_rule(sports_graph, schema, rule)
        assert explanation.evidence["violations"].startswith("query failed")
        assert explanation.counter_examples == ()
        monkeypatch.setattr(explain_module, "execute", engine_bug)
        with pytest.raises(RuntimeError):
            explain_rule(sports_graph, schema, rule)

    def test_untranslatable_rule_graceful(self, sports_graph):
        schema = infer_schema(sports_graph)
        broken = ConsistencyRule(RuleKind.PROPERTY_EXISTS, "no fields")
        explanation = explain_rule(sports_graph, schema, broken)
        assert "underspecified" in explanation.rationale
