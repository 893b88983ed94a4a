"""Count pushdown: ``MATCH <one pattern> [WHERE …] RETURN count(*) AS x``.

The planner marks such a clause count-only when its pattern is one node
or one typed directed hop and every filter is a column test; the
executor then answers ``[{x: n}]`` from :func:`count_matches` without
building a row.  Every count here is checked against the reference
matcher, which counts its own matches and never enters
``count_matches``; every shape outside the counted set must take the
row walk.
"""

import pytest

from repro import obs
from repro.cypher import Executor, execute, explain, parse
from repro.cypher import executor as executor_module
from repro.cypher.matcher import _column_test, _prepare_pattern
from repro.cypher.planner import QueryPlanner
from repro.graph import PropertyGraph
from tests.reference_matcher import reference_engine


def office_graph() -> PropertyGraph:
    graph = PropertyGraph("office")
    graph.add_node("u1", "User", {"id": 1, "owned": True, "tags": [1, 2]})
    graph.add_node("u2", "User", {"id": 2, "owned": False, "name": "bo"})
    graph.add_node("u3", ("User", "Admin"), {"id": 3, "owned": 1})
    graph.add_node("u4", "User", {"id": 4, "owned": 1.0, "tags": []})
    graph.add_node("g1", "Group", {"id": 1, "name": "ops"})
    graph.add_node("g2", "Group", {"id": 2})
    graph.add_node("c1", "Computer", {"id": 1})
    graph.add_edge("m1", "MEMBER_OF", "u1", "g1", {"since": 2020})
    graph.add_edge("m2", "MEMBER_OF", "u2", "g1")
    graph.add_edge("m3", "MEMBER_OF", "u3", "g2", {"since": "2021"})
    graph.add_edge("m4", "MEMBER_OF", "u3", "g1", {"since": 2020.0})
    graph.add_edge("m5", "MEMBER_OF", "g2", "g1")          # nested group
    graph.add_edge("s1", "HAS_SESSION", "c1", "u1", {"since": 1})
    graph.add_edge("s2", "HAS_SESSION", "c1", "u1")        # parallel edge
    graph.add_edge("loop", "MEMBER_OF", "g1", "g1")        # self-loop
    return graph


@pytest.fixture()
def collector():
    installed = obs.install()
    yield installed
    obs.uninstall()


def counted(collector) -> dict:
    counter = collector.metrics.counter("cypher.counted")
    return {labels["how"]: value for labels, value in counter.samples()}


def reference_rows(graph, text, parameters=None):
    with reference_engine():
        return Executor(graph, parameters).run(parse(text)).rows


#: (statement, how it is counted)
COUNTED = (
    ("MATCH (n) RETURN count(*) AS c", "total"),
    ("MATCH (n:User) RETURN count(*) AS c", "total"),
    ("MATCH (n:Nope) RETURN count(*) AS c", "total"),
    ("MATCH ()-[r:MEMBER_OF]->() RETURN count(*) AS c", "total"),
    ("MATCH ()<-[:HAS_SESSION]-() RETURN count(*) AS c", "total"),
    ("MATCH ()-[:NOPE]->() RETURN count(*) AS c", "total"),
    ("MATCH (n:User:Admin) RETURN count(*) AS c", "scan"),
    ("MATCH (a:User)-[:MEMBER_OF]->(b:Group) RETURN count(*) AS c", "scan"),
    ("MATCH (g:Group)<-[:MEMBER_OF]-(x) RETURN count(*) AS c", "scan"),
    ("MATCH ()-[r:MEMBER_OF]->(g:Group {id: 1}) RETURN count(*) AS c",
     "scan"),
    ("MATCH (a:User)-[:MEMBER_OF]->(g) WHERE a.id = 3 "
     "RETURN count(*) AS c", "scan"),
    ("MATCH (n:User) WHERE n.owned IS NOT NULL AND n.name IS NULL "
     "RETURN count(*) AS c", "scan"),
    ("MATCH (n:User) WHERE n.owned = 1 RETURN count(*) AS c", "scan"),
    ("MATCH (n:User) WHERE n.owned = true RETURN count(*) AS c", "scan"),
    ("MATCH (n:User) WHERE n.owned IN [true, 1.0] RETURN count(*) AS c",
     "scan"),
    ("MATCH (n:User) WHERE n.owned IN [null, 'x'] RETURN count(*) AS c",
     "scan"),
    ("MATCH (n) WHERE n.tags = [1, 2.0] RETURN count(*) AS c", "scan"),
    ("MATCH (n) WHERE n.tags IN [[], [2, 1]] RETURN count(*) AS c", "scan"),
    ("MATCH ()-[r:MEMBER_OF]->() WHERE r.since = 2020 "
     "RETURN count(*) AS c", "scan"),
    ("MATCH (u)<-[r:HAS_SESSION]-(:Computer) WHERE r.since IS NULL "
     "RETURN count(*) AS c", "scan"),
    ("MATCH ()-[r:MEMBER_OF {since: '2021'}]->() RETURN count(*) AS c",
     "scan"),
)


@pytest.mark.parametrize("text,how", COUNTED, ids=[t for t, _ in COUNTED])
def test_counted_shape_equals_the_reference(collector, text, how):
    graph = office_graph()
    plan = QueryPlanner().plan(parse(text), graph).clause_plan(0, 0)
    assert plan.count == how
    result = Executor(graph).run(parse(text))
    assert counted(collector) == {how: 1}
    assert result.columns == ["c"]
    assert result.rows == reference_rows(graph, text)


#: shapes outside the counted set, each walking rows
ROW_WALK = (
    "OPTIONAL MATCH (n:User) RETURN count(*) AS c",
    "MATCH p = (a)-[:MEMBER_OF]->(b) RETURN count(*) AS c",
    "MATCH (n:User) RETURN DISTINCT count(*) AS c",
    "MATCH (n:User) RETURN count(*) AS c ORDER BY c",
    "MATCH (n:User) RETURN count(*) AS c SKIP 0",
    "MATCH (n:User) RETURN count(*) AS c LIMIT 1",
    "MATCH (n:User) RETURN count(n) AS c",
    "MATCH (n:User) RETURN count(*) AS c, count(*) AS d",
    "MATCH (a)-[:MEMBER_OF]->(b) WHERE NOT a = b RETURN count(*) AS c",
    "MATCH (n:User) WHERE n.name =~ 'b.*' RETURN count(*) AS c",
    "MATCH (n:User) WHERE n.id = $v RETURN count(*) AS c",
    "MATCH (n:User {id: $v}) RETURN count(*) AS c",
    "MATCH (n:User) WHERE n.owned = true OR n.id = 2 RETURN count(*) AS c",
    "MATCH (n:User) WHERE NOT n.owned IN [true] RETURN count(*) AS c",
    "MATCH (n:User) WHERE n.id > 1 RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF]->(b) WHERE a.id = b.id RETURN count(*) AS c",
    "MATCH (a:User), (b:Group) RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF*1..2]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF]-(b) RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF|HAS_SESSION]->(b) RETURN count(*) AS c",
    "MATCH (a)-[r]->(b) RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF]->(a) RETURN count(*) AS c",
    "MATCH (a)-[:MEMBER_OF]->(b)-[:MEMBER_OF]->(c) RETURN count(*) AS c",
    "MATCH (n:User) WITH n RETURN count(*) AS c",
    "MATCH (n:User) RETURN n.owned AS o, count(*) AS c",
    "MATCH (n:User) WHERE (n)-[:MEMBER_OF]->() RETURN count(*) AS c",
    "MATCH (n:User) MATCH (n)-[:MEMBER_OF]->(g) RETURN count(*) AS c",
    "MATCH (n:Computer) SET n.seen = true RETURN count(*) AS c",
)


@pytest.mark.parametrize("text", ROW_WALK)
def test_out_of_scope_shape_walks_rows(collector, text):
    graph = office_graph()
    parameters = {"v": 2}
    query = parse(text)
    plans = QueryPlanner().plan(query, graph).clause_plans.values()
    assert all(plan.count is None for plan in plans)
    expected = reference_rows(office_graph(), text, parameters)
    result = Executor(graph, parameters).run(query)
    assert counted(collector) == {}
    assert collector.metrics.counter("matcher.seeds").total() > 0
    assert result.rows == expected


def test_reference_engine_never_enters_count_matches(monkeypatch):
    """The oracle counts its own matches, so the counting engine is never
    checked against itself."""
    graph = office_graph()
    text = "MATCH (a:User)-[:MEMBER_OF]->(b:Group) RETURN count(*) AS c"

    def forbidden(*args, **kwargs):
        raise AssertionError("count_matches entered")

    monkeypatch.setattr(executor_module, "count_matches", forbidden)
    with pytest.raises(AssertionError, match="count_matches entered"):
        Executor(graph).run(parse(text))        # the patch is live
    with reference_engine():
        assert Executor(graph).run(parse(text)).rows == [{"c": 4}]


def test_explain_prints_the_count_line():
    graph = office_graph()
    total = explain(
        parse("MATCH ()-[r:MEMBER_OF]->() RETURN count(*) AS c"), graph
    )
    assert "|  count: total" in total
    scan = explain(parse(
        "MATCH (a:User)-[:MEMBER_OF]->(g:Group) WHERE a.id = 3 "
        "RETURN count(*) AS c"
    ), graph)
    assert "|  count: scan" in scan
    walked = explain(
        parse("MATCH (n:User) WHERE n.id > 1 RETURN count(*) AS c"), graph
    )
    assert "count:" not in walked


def test_index_seeded_count_stays_an_index_lookup(collector):
    graph = office_graph()
    text = (
        "MATCH (a:User)-[:MEMBER_OF]->(g:Group) WHERE a.id = 3 "
        "RETURN count(*) AS c"
    )
    assert "seed: property index User.id = 3" in explain(parse(text), graph)
    assert execute(graph, text).rows == [{"c": 2}]
    metrics = collector.metrics
    assert metrics.counter("matcher.seeds").total() == 1
    assert metrics.counter("matcher.visits").total() == 2
    assert counted(collector) == {"scan": 1}


def test_total_seeds_nothing_and_records_the_plan(collector):
    graph = office_graph()
    result = execute(
        graph, "MATCH ()-[r:MEMBER_OF]->() RETURN count(*) AS edges"
    )
    assert result.rows == [{"edges": 6}]
    metrics = collector.metrics
    assert metrics.counter("matcher.seeds").total() == 0
    assert metrics.counter("planner.plans").total() == 1
    actual = metrics.histogram("planner.actual_rows").snapshot()
    assert (actual.count, actual.sum) == (1, 6)
    assert metrics.histogram("planner.estimated_rows").snapshot().count == 1


def test_zero_matches_give_one_zero_row():
    graph = office_graph()
    for text in (
        "MATCH (n:Nope) RETURN count(*) AS x",
        "MATCH ()-[:NOPE]->() RETURN count(*) AS x",
        "MATCH (n:User) WHERE n.missing IS NOT NULL RETURN count(*) AS x",
        "MATCH (a:Group)-[:HAS_SESSION]->(b) RETURN count(*) AS x",
    ):
        assert execute(graph, text).rows == [{"x": 0}]


def test_counts_skip_dead_ids_in_overlays():
    """Removed and added nodes and edges on an incremental snapshot."""
    graph = office_graph()
    graph.columnar()
    graph.remove_node("u3")                   # and m3, m4
    graph.remove_edge("s2")
    graph.add_node("u5", "User", {"id": 5, "owned": True})
    graph.add_edge("m6", "MEMBER_OF", "u5", "g2", {"since": 2020})
    graph.update_node("u1", {"owned": None})
    assert graph.columnar().origin == "incremental"
    for text, _how in COUNTED:
        assert execute(graph, text).rows == reference_rows(graph, text), text


def test_union_branches_count_independently(collector):
    graph = office_graph()
    text = (
        "MATCH (n:User) RETURN count(*) AS c "
        "UNION ALL MATCH (n:Group) WHERE n.name IS NULL RETURN count(*) AS c"
    )
    assert execute(graph, text).rows == [{"c": 4}, {"c": 1}]
    assert counted(collector) == {"total": 1, "scan": 1}


class TestColumnTests:
    def test_in_compiles_over_literal_lists_only(self):
        where = parse(
            "MATCH (n) WHERE n.a IN [1, 'x', [true]] RETURN n"
        ).clauses[0].where
        assert _column_test(where, "n", None) == (
            False, "a", "in", (1, "x", [True]),
        )
        for text in (
            "MATCH (n) WHERE n.a IN n.b RETURN n",
            "MATCH (n) WHERE n.a IN [1, $v] RETURN n",
            "MATCH (n) WHERE 1 IN [n.a] RETURN n",
        ):
            where = parse(text).clauses[0].where
            assert _column_test(where, "n", None) is None

    def test_relationship_property_tests_compile_for_the_edge(self):
        where = parse(
            "MATCH (a)-[r]->(b) WHERE 2020 = r.since RETURN a"
        ).clauses[0].where
        assert _column_test(where, "b", "r") == (True, "since", "eq", 2020)
        assert _column_test(where, "b", None) is None

    def test_row_walk_uses_relationship_column_tests(self):
        graph = office_graph()
        text = (
            "MATCH (a:User)-[r:MEMBER_OF]->(b) WHERE r.since IN [2020] "
            "AND b.name = 'ops' RETURN a.id AS id"
        )
        query = parse(text)
        step = QueryPlanner().plan(query, graph).clause_plan(0, 0).steps[0]
        meta = _prepare_pattern(graph.columnar(), step.pattern, step.checks)
        codes, fast, rest = meta[2]
        assert [(on_edge, kind) for on_edge, _col, kind, _p in fast] == [
            (True, "in"), (False, "eq"),
        ]
        assert rest == ()
        rows = Executor(graph).run(query).rows
        assert sorted(row["id"] for row in rows) == [1, 3]
        assert rows == reference_rows(graph, text)
