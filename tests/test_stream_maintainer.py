"""Incremental rule maintenance: footprint extraction, affected-rule
pruning, constant rules and the full-re-evaluation fallback."""

from __future__ import annotations

import pytest

from repro import obs
from repro.correction.corrector import CorrectionOutcome
from repro.graph import DeltaKind, GraphDelta, PropertyGraph, store
from repro.metrics.definitions import RuleMetrics
from repro.mining.result import MiningRun, RuleResult
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.translator import MetricQueries
from repro.stream import (
    IncrementalMaintainer,
    RuleFootprint,
    WILDCARD_FOOTPRINT,
    delta_affects,
    extract_footprint,
    footprint_of_queries,
    resolve_footprint,
)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


# ----------------------------------------------------------------------
# fixtures: a small graph and a hand-built mined run over it
# ----------------------------------------------------------------------
def build_graph() -> PropertyGraph:
    graph = PropertyGraph("stream")
    graph.add_node("u1", "User", {"name": "alice"})
    graph.add_node("u2", "User", {"name": "bob"})
    graph.add_node("t1", "Tweet", {"text": "first"})
    graph.add_node("t2", "Tweet", {})
    graph.add_edge("f1", "FOLLOWS", "u1", "u2")
    graph.add_edge("p1", "POSTS", "u1", "t1")
    graph.add_edge("p2", "POSTS", "u2", "t2")
    return graph


def bundle(satisfy: str, relevant: str, body: str) -> MetricQueries:
    return MetricQueries(
        check=satisfy, relevant=relevant, body=body, satisfy=satisfy,
    )


USER_NAME = bundle(
    "MATCH (u:User) WHERE u.name IS NOT NULL RETURN count(u)",
    "MATCH (u:User) RETURN count(u)",
    "MATCH (u:User) RETURN count(u)",
)
TWEET_TEXT = bundle(
    "MATCH (t:Tweet) WHERE t.text IS NOT NULL RETURN count(t)",
    "MATCH (t:Tweet) RETURN count(t)",
    "MATCH (t:Tweet) RETURN count(t)",
)
FOLLOWS_SHAPE = bundle(
    "MATCH (:User)-[f:FOLLOWS]->(:User) RETURN count(f)",
    "MATCH ()-[f:FOLLOWS]->() RETURN count(f)",
    "MATCH ()-[f:FOLLOWS]->() RETURN count(f)",
)


def make_result(
    queries: MetricQueries | None,
    text: str = "rule",
    triage_skipped: bool = False,
) -> RuleResult:
    rule = ConsistencyRule(kind=RuleKind.PATTERN, text=text)
    outcome = CorrectionOutcome(
        rule=rule,
        generated_query=queries.check if queries else "",
        final_query=queries.check if queries else "",
        classification=None,
        corrected=False,
        left_uncorrected=False,
        metric_queries=queries,
    )
    return RuleResult(
        rule=rule, outcome=outcome,
        metrics=RuleMetrics(support=0, relevant=0, body=0),
        triage_skipped=triage_skipped,
    )


def make_run(results: list[RuleResult]) -> MiningRun:
    return MiningRun(
        dataset="stream", model="llama3", method="sliding_window",
        prompt_mode="zero_shot", results=results,
    )


def fresh_maintainer() -> tuple[PropertyGraph, IncrementalMaintainer]:
    graph = build_graph()
    run = make_run([
        make_result(USER_NAME, "user name"),
        make_result(TWEET_TEXT, "tweet text"),
        make_result(FOLLOWS_SHAPE, "follows shape"),
        make_result(None, "untranslatable"),
        make_result(USER_NAME, "triaged", triage_skipped=True),
    ])
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics
    return graph, maintainer


def node_props(subject: str, labels, keys, epoch: int = 1) -> GraphDelta:
    return GraphDelta(
        kind=DeltaKind.NODE_PROPS, epoch=epoch, subject_id=subject,
        labels=tuple(labels), keys=tuple(keys),
    )


# ----------------------------------------------------------------------
# footprints
# ----------------------------------------------------------------------
class TestFootprints:
    def test_labelled_query_footprint(self):
        footprint = extract_footprint(
            "MATCH (u:User) WHERE u.name IS NOT NULL RETURN count(u)"
        )
        assert footprint.labels == {"User"}
        assert footprint.property_keys == {"name"}
        assert not footprint.any_label

    def test_unlabelled_pattern_sets_any_label(self):
        footprint = extract_footprint("MATCH (n) RETURN count(n)")
        assert footprint.any_label
        assert footprint.labels == frozenset()

    def test_untyped_relationship_sets_any_edge_type(self):
        footprint = extract_footprint(
            "MATCH (:User)-[r]->() RETURN count(r)"
        )
        assert footprint.any_edge_type

    def test_dynamic_property_access_sets_any_property(self):
        footprint = extract_footprint(
            "MATCH (u:User) WHERE size(keys(u)) > 2 RETURN count(u)"
        )
        assert footprint.any_property

    def test_unparsable_query_contributes_nothing(self):
        assert extract_footprint("THIS IS NOT CYPHER") is None
        footprint = footprint_of_queries([
            "THIS IS NOT CYPHER",
            "MATCH (t:Tweet) RETURN count(t)",
        ])
        assert footprint.labels == {"Tweet"}
        assert not footprint.wildcard

    def test_resolution_grounds_wildcards_in_catalog_and_batch(self):
        graph = build_graph()
        footprint = RuleFootprint(any_label=True)
        resolved = resolve_footprint(
            footprint, graph.catalog(),
            frozenset({"Ghost"}), frozenset(),
        )
        # every live label plus the batch-mentioned (possibly removed) one
        assert resolved.labels == {"User", "Tweet", "Ghost"}

    def test_delta_affects_requires_key_overlap_for_props(self):
        footprint = extract_footprint(
            "MATCH (u:User) WHERE u.name IS NOT NULL RETURN count(u)"
        )
        hit = node_props("u1", ("User",), ("name",))
        miss_key = node_props("u1", ("User",), ("bio",))
        miss_label = node_props("t1", ("Tweet",), ("name",))
        assert delta_affects(footprint, hit)
        assert not delta_affects(footprint, miss_key)
        assert not delta_affects(footprint, miss_label)

    def test_wildcard_footprint_is_affected_by_everything(self):
        delta = node_props("u1", ("User",), ("anything",))
        assert delta_affects(WILDCARD_FOOTPRINT, delta)


# ----------------------------------------------------------------------
# the maintainer
# ----------------------------------------------------------------------
class TestMaintainer:
    def test_baseline_metrics_match_direct_evaluation(self):
        _, maintainer = fresh_maintainer()
        user = maintainer.run.results[0].metrics
        assert (user.support, user.relevant, user.body) == (2, 2, 2)
        tweet = maintainer.run.results[1].metrics
        assert (tweet.support, tweet.relevant, tweet.body) == (1, 2, 2)

    def test_unaffected_rules_are_pruned_not_reevaluated(self):
        graph, maintainer = fresh_maintainer()
        since = graph.epoch
        graph.update_node("t2", {"text": "filled in"})
        report = maintainer.apply(graph.changes_since(since))
        # only the Tweet rule touches Tweet.text
        assert report.reevaluated == 1
        assert report.pruned == 2
        assert report.constant_rules == 2
        assert [c.rule_text for c in report.changes] == ["tweet text"]
        after = maintainer.run.results[1].metrics
        assert (after.support, after.relevant) == (2, 2)

    def test_maintained_metrics_equal_recompute(self):
        graph, maintainer = fresh_maintainer()
        since = graph.epoch
        with graph.batch():
            graph.add_node("u3", "User", {})
            graph.add_edge("f2", "FOLLOWS", "u3", "u1")
            graph.remove_edge("p2")
            graph.remove_node("t2")
        maintainer.apply(graph.changes_since(since))
        maintained = [r.metrics for r in maintainer.run.results]
        assert maintained == maintainer.recompute()

    def test_constant_rules_are_never_reevaluated(self):
        graph, maintainer = fresh_maintainer()
        since = graph.epoch
        graph.add_node("u9", "User", {"name": "zoe"})
        report = maintainer.apply(graph.changes_since(since))
        assert report.constant_rules == 2
        assert report.reevaluated + report.pruned == 3
        zero = RuleMetrics(support=0, relevant=0, body=0)
        assert maintainer.run.results[3].metrics == zero
        assert maintainer.run.results[4].metrics == zero

    def test_empty_batch_is_free(self):
        _, maintainer = fresh_maintainer()
        collector = obs.install()
        report = maintainer.apply([])
        assert report.reevaluated == 0
        assert report.pruned == 3
        assert collector.metrics.counter("metrics.rules_evaluated").total() == 0

    def test_incomplete_log_falls_back_to_full_reevaluation(
        self, monkeypatch
    ):
        graph, maintainer = fresh_maintainer()
        monkeypatch.setattr(store, "CHANGE_LOG_SIZE", 1)
        since = graph.epoch
        graph.update_node("t2", {"text": "one"})
        graph.update_node("u1", {"name": "renamed"})   # drops the first
        assert graph.changes_since(since) is None
        report = maintainer.apply(graph.changes_since(since))
        assert report.full_fallback
        assert report.reevaluated == 3                 # every evaluable rule
        assert report.pruned == 0
        maintained = [r.metrics for r in maintainer.run.results]
        assert maintained == maintainer.recompute()

    def test_savings_fraction_counts_only_evaluable_rules(self):
        graph, maintainer = fresh_maintainer()
        since = graph.epoch
        graph.update_node("t2", {"text": "x"})
        report = maintainer.apply(graph.changes_since(since))
        assert report.savings == pytest.approx(2 / 3)

    def test_edge_delta_reaches_rules_via_edge_type(self):
        graph, maintainer = fresh_maintainer()
        since = graph.epoch
        graph.remove_edge("f1")
        report = maintainer.apply(graph.changes_since(since))
        assert [c.rule_text for c in report.changes] == ["follows shape"]
        follows = maintainer.run.results[2].metrics
        assert follows.support == 0

    def test_obs_counters_account_for_the_pass(self):
        graph, maintainer = fresh_maintainer()
        collector = obs.install()
        since = graph.epoch
        graph.update_node("t2", {"text": "x"})
        maintainer.apply(graph.changes_since(since))
        counters = collector.metrics
        assert counters.counter("stream.maintenance_batches").total() == 1
        assert counters.counter("stream.rules_reevaluated").total() == 1
        assert counters.counter("stream.rules_pruned").total() == 2
        assert counters.counter("stream.rules_changed").total() == 1
