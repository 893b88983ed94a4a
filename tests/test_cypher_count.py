"""Count pushdown: ``MATCH <one pattern> [WHERE …] RETURN count(*) AS x``.

The planner marks such a clause count-only when its pattern is one node
or one typed directed hop and every filter is a column test; the
executor then answers ``[{x: n}]`` from :func:`count_matches` without
building a row.  Every count here is checked against the reference
matcher, which counts its own matches and never enters
``count_matches``; every shape outside the counted set must take the
row walk.  A scanned count is kept as a count view of its shape and
carried to the next snapshot by a mutation batch's deltas.
"""

import sys
import threading
import time

import pytest

from repro import obs
from repro.cypher import Executor, execute, explain, matcher, parse
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


# ----------------------------------------------------------------------
# count views
# ----------------------------------------------------------------------
def count(graph, text) -> int:
    """The engine's count, without the statement memo."""
    return Executor(graph).run(parse(text)).scalar()


def seeds(collector) -> float:
    return collector.metrics.counter("matcher.seeds").total()


@pytest.mark.parametrize("text,sources,targets", [
    ("MATCH ()-[r:HAS_SESSION]->() WHERE r.since IS NOT NULL "
     "RETURN count(*) AS c", 1, 1),                   # c1; u1
    ("MATCH ()<-[r:MEMBER_OF]-() WHERE r.since IS NULL "
     "RETURN count(*) AS c", 5, 2),                   # u1-3, g1, g2; g1, g2
    ("MATCH ()-[r:NOPE]->() WHERE r.since IS NULL RETURN count(*) AS c",
     0, 0),
])
def test_scan_seeded_hop_seeds_only_nodes_with_its_edges(
    collector, text, sources, targets
):
    """An all-nodes seed of a counted hop enumerates only the nodes with
    an edge of its type in the walked direction (the planner may turn
    the hop around)."""
    graph = office_graph()
    plan = QueryPlanner().plan(parse(text), graph).clause_plan(0, 0)
    (step,) = plan.steps
    assert step.seed.kind == "scan"
    assert count(graph, text) == reference_rows(graph, text)[0]["c"]
    out = step.pattern.elements[1].direction == "out"
    assert seeds(collector) == (sources if out else targets)
    assert counted(collector) == {"scan": 1}


def test_a_view_answers_one_shape_under_any_names(collector):
    """Variable names and the alias are not part of the shape; a view
    answer walks nothing but still records the count it returned."""
    graph = office_graph()
    assert count(graph, "MATCH (u:User) WHERE u.owned = 1 "
                        "RETURN count(*) AS body") == 2
    walked = seeds(collector)
    assert count(graph, "MATCH (x:User) WHERE x.owned = 1 "
                        "RETURN count(*) AS satisfy") == 2
    assert counted(collector) == {"scan": 1, "view": 1}
    assert seeds(collector) == walked
    actual = collector.metrics.histogram("planner.actual_rows").snapshot()
    assert (actual.count, actual.sum) == (2, 4)


def test_view_keys_tell_literal_types_apart(collector):
    """``1``, ``1.0`` and ``true`` hash alike in Python; in Cypher
    ``1 = true`` is false, so each literal gets its own view, lists
    included."""
    graph = office_graph()
    texts = [
        "MATCH (n:User) WHERE n.owned = 1 RETURN count(*) AS c",
        "MATCH (n:User) WHERE n.owned = true RETURN count(*) AS c",
        "MATCH (n:User) WHERE n.owned = 1.0 RETURN count(*) AS c",
        "MATCH (n) WHERE n.tags = [1, 2] RETURN count(*) AS c",
        "MATCH (n) WHERE n.tags = [true, 2] RETURN count(*) AS c",
    ]
    for _ in range(2):
        for text in texts:
            assert count(graph, text) == reference_rows(graph, text)[0]["c"]
    assert counted(collector) == {"scan": 5, "view": 5}


def test_a_batch_carries_views_to_the_next_snapshot(collector):
    graph = office_graph()
    texts = [text for text, how in COUNTED if how == "scan"]
    for text in texts:
        count(graph, text)
    walked = seeds(collector)
    graph.remove_node("u3")                   # and m3, m4
    graph.update_node("u1", {"owned": 1})
    graph.update_node("g1", {"id": 7})        # moves hops into g1
    graph.update_edge("m2", {"since": 2020})
    graph.add_node("u5", "User", {"id": 5, "owned": True})
    graph.add_edge("m6", "MEMBER_OF", "u5", "g2", {"since": "2021"})
    snapshot = graph.columnar()
    assert snapshot.origin == "incremental"
    assert snapshot.link is not None
    for text in texts:
        assert count(graph, text) == reference_rows(graph, text)[0]["c"]
    assert snapshot.link is None
    assert counted(collector) == {"scan": len(texts), "view": len(texts)}
    assert seeds(collector) == walked


def test_a_shape_naming_an_uninterned_label_keeps_no_view(collector):
    graph = office_graph()
    text = "MATCH (n:Fresh) WHERE n.id = 1 RETURN count(*) AS c"
    assert count(graph, text) == 0
    assert graph.columnar().count_views == {}
    graph.add_node("f1", "Fresh", {"id": 1})
    assert count(graph, text) == 1
    assert counted(collector) == {"scan": 2}


def test_the_oldest_view_is_dropped_first(monkeypatch):
    monkeypatch.setattr(matcher, "COUNT_VIEW_SIZE", 2)
    graph = office_graph()
    for key in ("id", "owned", "name"):
        count(graph, f"MATCH (n:User) WHERE n.{key} IS NULL "
                     f"RETURN count(*) AS c")
    views = graph.columnar().count_views
    assert [shape.tests[0][0][1] for _count, shape in views.values()] == [
        "owned", "name",
    ]


def test_snapshots_without_a_counted_parent_start_with_no_views(collector):
    """A recompile, an invalidated snapshot, a mid-batch snapshot and a
    snapshot derived before anyone counted on its parent all scan."""
    text = "MATCH (n:User) WHERE n.owned IS NOT NULL RETURN count(*) AS c"
    graph = office_graph()
    count(graph, text)
    graph.invalidate_columnar()
    count(graph, text)
    with graph.batch():
        graph.add_node("u9", "User", {"owned": True})
        assert count(graph, text) == 5       # a throwaway snapshot
    count(graph, text)                         # carried from before the batch
    graph.add_node("u10", "User", {"owned": True})
    graph.columnar()                           # derived, nothing counted
    graph.add_node("u11", "User", {"owned": True})
    assert count(graph, text) == reference_rows(graph, text)[0]["c"] == 7
    assert counted(collector) == {"scan": 4, "view": 1}


def test_readers_on_threads_count_while_a_writer_commits():
    """Readers share snapshots and write view tables without the graph
    lock while batches land; no reader raises, and every count after the
    last batch equals the reference."""
    texts = [text for text, how in COUNTED if how == "scan"]
    graph = office_graph()
    stop = threading.Event()
    errors: list[Exception] = []
    finals: list[list[int]] = []

    def reader() -> None:
        try:
            while not stop.is_set():
                for text in texts:
                    count(graph, text)
            finals.append([count(graph, text) for text in texts])
        except Exception as error:
            errors.append(error)

    def writer() -> None:
        serial = 0
        deadline = time.monotonic() + 1.5
        try:
            while time.monotonic() < deadline:
                serial += 1
                with graph.batch():
                    graph.add_node(f"w{serial}", "User", {
                        "id": serial, "owned": serial % 2 == 0,
                    })
                    graph.add_edge(
                        f"wm{serial}", "MEMBER_OF", f"w{serial}", "g1",
                        {"since": 2020 if serial % 3 else None},
                    )
                    if serial > 2:
                        graph.remove_node(f"w{serial - 2}")
                    graph.update_node("u2", {"owned": serial % 3})
        except Exception as error:
            errors.append(error)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    expected = [reference_rows(graph, text)[0]["c"] for text in texts]
    assert finals == [expected] * 3
