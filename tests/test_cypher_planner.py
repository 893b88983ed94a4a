"""Unit tests for the cost-based query planner.

Covers the full stack it sits on: the snapshot's value index, store
epochs, catalog estimates, seed selection, join ordering, predicate
pushdown safety, EXPLAIN rendering and the executor's
written-order fallbacks.  Planned results are checked against the naive
reference matcher in ``tests/reference_matcher.py``.
"""

import dataclasses

import pytest

from repro import obs
from repro.cypher import (
    CypherError,
    Executor,
    execute,
    explain,
    parse,
)
from repro.cypher.matcher import MatchStats, match_patterns
from repro.cypher.planner import QueryPlanner
from repro.graph import PropertyGraph
from repro.graph.store import property_index_key
from tests.reference_matcher import reference_engine


def team_graph(people=40, teams=4):
    g = PropertyGraph("teams")
    for t in range(teams):
        g.add_node(f"t{t}", "Team", {"name": f"team{t}"})
    for p in range(people):
        g.add_node(
            f"p{p}", "Person",
            {"name": f"name{p}", "age": 20 + (p % 5)},
        )
        g.add_edge(f"m{p}", "MEMBER_OF", f"p{p}", f"t{p % teams}")
    return g


def run_both(graph, text, parameters=None):
    """(planned rows, reference rows) for one query text."""
    query = parse(text)
    planned = Executor(graph, parameters).run(query)
    with reference_engine():
        unplanned = Executor(graph, parameters).run(query)
    return planned, unplanned


# ----------------------------------------------------------------------
# snapshot value index + store epochs
# ----------------------------------------------------------------------
def indexed(graph, label, key, value):
    """Ids the CSR snapshot's value index yields for ``label.key = value``."""
    snapshot = graph.columnar()
    index_key = property_index_key(value)
    if index_key is None:
        return []
    return [
        snapshot.node_objs[nid].id
        for nid in snapshot.index_candidates(label, key, index_key)
    ]


class TestPropertyIndex:
    def test_index_finds_by_value(self):
        g = team_graph()
        assert indexed(g, "Person", "name", "name7") == ["p7"]

    def test_index_tracks_updates_and_removals(self):
        g = team_graph()
        g.update_node("p7", {"name": "renamed"})
        assert indexed(g, "Person", "name", "name7") == []
        assert indexed(g, "Person", "name", "renamed") == ["p7"]
        g.remove_node_property("p7", "name")
        assert indexed(g, "Person", "name", "renamed") == []
        g.remove_node("p6")
        assert indexed(g, "Person", "name", "name6") == []

    def test_index_distinguishes_bool_from_int(self):
        # Cypher: true <> 1, but 2 = 2.0
        g = PropertyGraph()
        g.add_node("a", "N", {"v": True})
        g.add_node("b", "N", {"v": 1})
        g.add_node("c", "N", {"v": 1.0})
        assert indexed(g, "N", "v", True) == ["a"]
        assert sorted(indexed(g, "N", "v", 1)) == ["b", "c"]
        assert sorted(indexed(g, "N", "v", 1.0)) == ["b", "c"]

    def test_unindexable_values_yield_nothing(self):
        g = PropertyGraph()
        g.add_node("a", "N", {"v": [1, 2]})
        assert indexed(g, "N", "v", [1, 2]) == []
        assert property_index_key([1, 2]) is None
        assert property_index_key(None) is None
        assert property_index_key(float("nan")) is None

    def test_epoch_bumps_on_every_mutation(self):
        g = PropertyGraph()
        seen = {g.epoch}

        g.add_node("a", "N")
        seen.add(g.epoch)
        g.add_node("b", "N")
        seen.add(g.epoch)
        g.add_edge("e", "R", "a", "b")
        seen.add(g.epoch)
        g.update_node("a", {"x": 1})
        seen.add(g.epoch)
        g.update_edge("e", {"y": 2})
        seen.add(g.epoch)
        g.remove_node_property("a", "x")
        seen.add(g.epoch)
        g.remove_edge("e")
        seen.add(g.epoch)
        g.remove_node("b")
        seen.add(g.epoch)
        assert len(seen) == 9  # strictly monotonic: all distinct

    def test_catalog_cached_per_epoch(self):
        g = team_graph()
        first = g.catalog()
        assert g.catalog() is first
        g.add_node("x", "Person")
        assert g.catalog() is not first

    def test_fingerprints_unique_per_graph(self):
        a, b = PropertyGraph(), PropertyGraph()
        assert a.fingerprint() != b.fingerprint()


# ----------------------------------------------------------------------
# catalog estimates
# ----------------------------------------------------------------------
class TestCatalog:
    def test_label_and_property_estimates(self):
        g = team_graph(people=40, teams=4)
        catalog = g.catalog()
        assert catalog.label_count("Person") == 40
        assert catalog.estimate_label_scan(("Person",)) == 40.0
        # age cycles 20..24 over 40 people: 8 nodes per value, and the
        # MCV sketch (width 8) holds all 5 values exactly
        assert catalog.estimate_property_eq("Person", "age", 21) == 8.0
        assert catalog.estimate_property_eq("Person", "name", "name3") == \
            pytest.approx(1.0)
        assert catalog.estimate_property_eq("Person", "missing", 1) == 0.0

    def test_fanout_averages(self):
        g = team_graph(people=40, teams=4)
        catalog = g.catalog()
        # every person has exactly one outgoing MEMBER_OF edge
        assert catalog.avg_fanout(("MEMBER_OF",), "out") == 1.0
        # each team receives 10
        assert catalog.avg_fanout(("MEMBER_OF",), "in") == 10.0
        assert catalog.avg_fanout(("MEMBER_OF",), "any") == 11.0
        assert catalog.avg_fanout(("NOPE",), "out") == 0.0


# ----------------------------------------------------------------------
# planning decisions
# ----------------------------------------------------------------------
class TestPlanChoices:
    def test_equality_conjunct_becomes_index_seed(self):
        g = team_graph()
        plan = QueryPlanner().plan(
            parse("MATCH (p:Person) WHERE p.name = 'name3' RETURN p"), g
        )
        step = plan.clause_plan(0, 0).steps[0]
        assert step.seed.kind == "index"
        assert (step.seed.label, step.seed.key) == ("Person", "name")

    def test_inline_property_map_becomes_index_seed(self):
        g = team_graph()
        plan = QueryPlanner().plan(
            parse("MATCH (p:Person {name: 'name3'}) RETURN p"), g
        )
        assert plan.clause_plan(0, 0).steps[0].seed.kind == "index"

    def test_cheaper_pattern_runs_first(self):
        g = team_graph()
        text = (
            "MATCH (p:Person), (t:Team {name: 'team1'}) "
            "RETURN p.name AS n, t.name AS t"
        )
        plan = QueryPlanner().plan(parse(text), g)
        steps = plan.clause_plan(0, 0).steps
        # the 1-row indexed Team lookup goes before the 40-row scan
        assert steps[0].source_index == 1
        assert steps[1].source_index == 0

    def test_unnamed_pattern_reverses_toward_selective_end(self):
        g = team_graph()
        text = (
            "MATCH (p:Person)-[:MEMBER_OF]->(t:Team {name: 'team2'}) "
            "RETURN count(*) AS c"
        )
        plan = QueryPlanner().plan(parse(text), g)
        step = plan.clause_plan(0, 0).steps[0]
        assert step.reversed
        assert step.seed.kind == "index"
        assert step.pattern.elements[0].labels == ("Team",)

    def test_named_path_is_never_reversed(self):
        g = team_graph()
        text = (
            "MATCH q = (p:Person)-[:MEMBER_OF]->(t:Team {name: 'team2'}) "
            "RETURN q"
        )
        plan = QueryPlanner().plan(parse(text), g)
        assert not plan.clause_plan(0, 0).steps[0].reversed

    def test_safe_conjunct_is_pushed_unsafe_stays_residual(self):
        g = team_graph()
        text = (
            "MATCH (p:Person)-[:MEMBER_OF]->(t:Team) "
            "WHERE p.age > 21 AND size(t.name) > 2 RETURN p"
        )
        plan = QueryPlanner().plan(parse(text), g)
        clause_plan = plan.clause_plan(0, 0)
        pushed = [
            predicate
            for step in clause_plan.steps
            for predicates in step.checks.values()
            for predicate in predicates
        ]
        assert len(pushed) == 1  # the comparison; size() may raise
        assert clause_plan.residual is not None

    def test_parameter_conjuncts_are_never_pushed(self):
        g = team_graph()
        plan = QueryPlanner().plan(
            parse("MATCH (p:Person) WHERE p.age > $min RETURN p"), g
        )
        clause_plan = plan.clause_plan(0, 0)
        assert not any(step.checks for step in clause_plan.steps)
        assert clause_plan.residual is not None

    def test_bound_variable_seeds_from_binding(self):
        g = team_graph()
        text = (
            "MATCH (t:Team {name: 'team0'}) "
            "MATCH (t)<-[:MEMBER_OF]-(p:Person) RETURN count(p) AS c"
        )
        plan = QueryPlanner().plan(parse(text), g)
        assert plan.clause_plan(0, 1).steps[0].seed.kind == "bound"


# ----------------------------------------------------------------------
# end-to-end: planned == unplanned
# ----------------------------------------------------------------------
class TestPlannedExecution:
    def test_results_identical_with_where(self):
        g = team_graph()
        planned, unplanned = run_both(
            g,
            "MATCH (p:Person)-[:MEMBER_OF]->(t:Team) "
            "WHERE p.age = 22 AND t.name <> 'team0' "
            "RETURN p.name AS name ORDER BY name",
        )
        assert planned.rows == unplanned.rows
        assert len(planned.rows) > 0

    def test_parameters_match_with_index_seed_fallback(self):
        g = team_graph()
        planned, unplanned = run_both(
            g,
            "MATCH (p:Person) WHERE p.name = $n RETURN p.age AS age",
            {"n": "name9"},
        )
        assert planned.rows == unplanned.rows == [{"age": 24}]

    def test_self_loop_var_length(self):
        g = PropertyGraph()
        g.add_node("a", "N")
        g.add_node("b", "N")
        g.add_edge("loop", "R", "a", "a")
        g.add_edge("ab", "R", "a", "b")
        planned, unplanned = run_both(
            g, "MATCH (x:N)-[:R*1..3]->(y) RETURN count(*) AS c"
        )
        assert planned.scalar() == unplanned.scalar()

    def test_optional_match_padding(self):
        g = team_graph()
        planned, unplanned = run_both(
            g,
            "MATCH (t:Team) OPTIONAL MATCH (t)<-[:MEMBER_OF]-"
            "(p:Person {name: 'nobody'}) RETURN t.name AS t, p AS p",
        )
        assert planned.rows == unplanned.rows
        assert all(row["p"] is None for row in planned.rows)

    def test_union_branches_plan_independently(self):
        g = team_graph()
        planned, unplanned = run_both(
            g,
            "MATCH (p:Person {name: 'name1'}) RETURN p.name AS n "
            "UNION MATCH (t:Team {name: 'team1'}) RETURN t.name AS n",
        )
        assert planned.rows == unplanned.rows

    def test_raising_where_still_raises(self):
        g = team_graph()
        text = "MATCH (p:Person) WHERE p.age / 0 > 1 RETURN p"
        with pytest.raises(CypherError):
            Executor(g).run(parse(text))
        with pytest.raises(CypherError), reference_engine():
            Executor(g).run(parse(text))

    def test_planner_error_falls_back_to_written_order(self, monkeypatch):
        def broken(self, query, graph):
            raise RuntimeError("planner bug")

        monkeypatch.setattr(QueryPlanner, "plan", broken)
        g = team_graph()
        collector = obs.install()
        try:
            result = Executor(g).run(parse(
                "MATCH (p:Person)-[:MEMBER_OF]->(t:Team) "
                "WHERE p.age = 22 RETURN count(*) AS c"
            ))
            errors = collector.metrics.counter("planner.errors").total()
            frontiers = collector.metrics.counter(
                "matcher.csr.frontier_expansions"
            ).total()
        finally:
            obs.uninstall()
        assert result.scalar() == 8
        assert errors == 1
        assert frontiers == 40          # one slice per Person, unseeded

    def test_raising_prefilter_falls_back_to_written_order(
        self, monkeypatch
    ):
        # a prefilter that raises on the input row hands the clause to
        # the written-order walk, which applies the full WHERE to each
        # match: the error surfaces only when some row matches
        plan = QueryPlanner.plan

        def raising_prefilter(self, query, graph):
            planned = plan(self, query, graph)
            where = query.clauses[0].where
            return dataclasses.replace(planned, clause_plans={
                key: dataclasses.replace(
                    clause_plan, prefilter=(where,), residual=None
                )
                for key, clause_plan in planned.clause_plans.items()
            })

        monkeypatch.setattr(QueryPlanner, "plan", raising_prefilter)
        g = team_graph()
        query = parse(
            "MATCH (p:Person {name: $n}) WHERE p.age / 0 = 1 "
            "RETURN p.name AS n"
        )
        with pytest.raises(CypherError, match="division by zero"):
            Executor(g, {"n": "name2"}).run(query)
        assert Executor(g, {"n": "nobody"}).run(query).rows == []

    def test_planner_counters_emitted(self):
        collector = obs.install()
        try:
            g = team_graph()
            execute(g, "MATCH (p:Person {name: 'name5'}) RETURN p")
            plans = collector.metrics.counter("planner.plans").total()
            seeds = collector.metrics.counter("matcher.seeds").total()
        finally:
            obs.uninstall()
        assert plans == 1
        assert seeds == 1  # index seed enumerates exactly one node


# ----------------------------------------------------------------------
# pushdown cuts expansions
# ----------------------------------------------------------------------
class TestWorkReduction:
    def test_index_seed_beats_label_scan(self):
        g = team_graph(people=100, teams=5)
        query = parse(
            "MATCH (p:Person)-[:MEMBER_OF]->(t:Team) "
            "WHERE p.name = 'name42' RETURN t.name AS t"
        )
        on, off = MatchStats(), MatchStats()
        plan = QueryPlanner().plan(query, g)
        clause = query.clauses[0]
        rows_on = list(match_patterns(
            g, clause.patterns, {}, plan=plan.clause_plan(0, 0),
            stats=on,
        ))
        rows_off = list(match_patterns(
            g, clause.patterns, {}, stats=off
        ))
        assert len(rows_on) == 1
        assert len(rows_off) == 100  # WHERE not applied on the off path
        assert off.seeds >= 2 * on.seeds
        assert off.expansions >= 2 * on.expansions


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
class TestExplain:
    def test_renders_seed_pushdown_and_estimates(self):
        g = team_graph()
        text = (
            "MATCH (p:Person)-[:MEMBER_OF]->(t:Team) "
            "WHERE p.name = 'name3' AND size(t.name) > 1 RETURN p"
        )
        rendered = explain(parse(text), g)
        assert "QUERY PLAN" in rendered
        assert "signature=cq1:" in rendered
        assert "property index Person.name = 'name3'" in rendered
        assert "residual filter:" in rendered
        assert "estimated rows" in rendered

    def test_no_match_clauses(self):
        g = team_graph()
        rendered = explain(parse("RETURN 1 AS one"), g)
        assert "nothing to plan" in rendered

    def test_cli_explain_subcommand(self, capsys):
        from repro.experiments.cli import main

        code = main([
            "explain", "--dataset", "wwc2019",
            "MATCH (p:Person)-[:MEMBER_OF]->(s:Squad) RETURN count(*) AS c",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "QUERY PLAN" in out
