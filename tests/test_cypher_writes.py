"""Tests for the Cypher write clauses (CREATE/MERGE/SET/REMOVE/DELETE)."""

import pytest

from repro.cypher import (
    CypherSemanticError,
    CypherSyntaxError,
    execute,
    parse,
    render_query,
)
from repro.graph import PropertyGraph


@pytest.fixture()
def graph():
    g = PropertyGraph()
    g.add_node("a", "User", {"id": 1, "name": "alice"})
    g.add_node("b", "User", {"id": 2, "name": "bob"})
    g.add_edge("e1", "FOLLOWS", "a", "b")
    return g


class TestCreate:
    def test_create_node(self, graph):
        result = execute(graph, "CREATE (n:User {id: 3, name: 'carol'})")
        assert result.stats == {"nodes_created": 1}
        assert graph.node_count("User") == 3

    def test_create_path(self, graph):
        result = execute(
            graph,
            "CREATE (x:Tag {name: 'db'})<-[:TAGGED]-(t:Tweet {id: 9})",
        )
        assert result.stats == {
            "nodes_created": 2, "relationships_created": 1,
        }
        assert graph.edge_count("TAGGED") == 1
        edge = next(graph.edges("TAGGED"))
        assert graph.node(edge.src).has_label("Tweet")

    def test_create_edge_between_matched_nodes(self, graph):
        execute(
            graph,
            "MATCH (a:User {id: 1}), (b:User {id: 2}) "
            "CREATE (a)-[:BLOCKS {since: 2024}]->(b)",
        )
        edge = next(graph.edges("BLOCKS"))
        assert (edge.src, edge.dst) == ("a", "b")
        assert edge.properties == {"since": 2024}

    def test_create_per_matched_row(self, graph):
        execute(graph, "MATCH (u:User) CREATE (u)-[:OWNS]->(:Wallet)")
        assert graph.node_count("Wallet") == 2
        assert graph.edge_count("OWNS") == 2

    def test_create_returns_bound_elements(self, graph):
        result = execute(
            graph, "CREATE (n:X {k: 5}) RETURN n.k AS k"
        )
        assert result.rows == [{"k": 5}]

    def test_union_sums_the_branches_write_counters(self, graph):
        result = execute(
            graph,
            "CREATE (a:A {x: 1}) RETURN a.x AS x "
            "UNION ALL CREATE (b:B {x: 2}) RETURN b.x AS x",
        )
        assert result.rows == [{"x": 1}, {"x": 2}]
        assert result.stats == {"nodes_created": 2}

    def test_undirected_create_rejected(self, graph):
        with pytest.raises(CypherSemanticError):
            execute(graph, "CREATE (:A)-[:R]-(:B)")

    def test_untyped_create_rejected(self, graph):
        with pytest.raises(CypherSemanticError):
            execute(graph, "CREATE (:A)-[]->(:B)")

    def test_write_query_without_return_yields_no_rows(self, graph):
        result = execute(graph, "CREATE (:A)")
        assert result.rows == []
        assert result.columns == []


class TestMerge:
    def test_merge_matches_existing(self, graph):
        result = execute(
            graph, "MERGE (u:User {id: 1}) RETURN u.name AS n"
        )
        assert result.rows == [{"n": "alice"}]
        assert graph.node_count("User") == 2

    def test_merge_creates_when_absent(self, graph):
        execute(graph, "MERGE (u:User {id: 99})")
        assert graph.node_count("User") == 3

    def test_merge_property_map_reads_parameters(self, graph):
        result = execute(
            graph, "MERGE (u:User {id: $id}) RETURN u.name AS n",
            parameters={"id": 2},
        )
        assert result.rows == [{"n": "bob"}]
        assert graph.node_count("User") == 2

    def test_merge_path(self, graph):
        # the FOLLOWS edge exists: nothing created
        execute(
            graph,
            "MATCH (a:User {id: 1}), (b:User {id: 2}) "
            "MERGE (a)-[:FOLLOWS]->(b)",
        )
        assert graph.edge_count("FOLLOWS") == 1
        # the reverse edge does not: created
        execute(
            graph,
            "MATCH (a:User {id: 1}), (b:User {id: 2}) "
            "MERGE (b)-[:FOLLOWS]->(a)",
        )
        assert graph.edge_count("FOLLOWS") == 2


class TestSet:
    def test_set_property(self, graph):
        execute(graph, "MATCH (u:User {id: 1}) SET u.age = 30")
        assert graph.node("a").properties["age"] == 30

    def test_set_null_removes(self, graph):
        execute(graph, "MATCH (u:User {id: 1}) SET u.name = NULL")
        assert "name" not in graph.node("a").properties

    def test_set_merge_map(self, graph):
        execute(
            graph,
            "MATCH (u:User {id: 1}) SET u += {city: 'Lyon', id: 10}",
        )
        properties = graph.node("a").properties
        assert properties["city"] == "Lyon"
        assert properties["id"] == 10
        assert properties["name"] == "alice"  # preserved

    def test_set_replace_map(self, graph):
        execute(graph, "MATCH (u:User {id: 1}) SET u = {only: 1}")
        assert graph.node("a").properties == {"only": 1}

    def test_set_edge_property(self, graph):
        execute(graph, "MATCH ()-[f:FOLLOWS]->() SET f.weight = 2")
        assert graph.edge("e1").properties == {"weight": 2}

    def test_set_sees_fresh_value_in_return(self, graph):
        result = execute(
            graph, "MATCH (u:User {id: 1}) SET u.x = 7 RETURN u.x AS x"
        )
        assert result.rows == [{"x": 7}]

    def test_set_on_null_is_noop(self, graph):
        result = execute(
            graph,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:NOPE]->(v) "
            "SET v.x = 1 RETURN count(*) AS c",
        )
        assert result.scalar() == 2  # no crash


class TestRemoveDelete:
    def test_remove_property(self, graph):
        execute(graph, "MATCH (u:User) REMOVE u.name")
        assert all(
            "name" not in node.properties for node in graph.nodes("User")
        )

    def test_remove_edge_property(self, graph):
        graph.update_edge("e1", {"w": 1})
        execute(graph, "MATCH ()-[f:FOLLOWS]->() REMOVE f.w")
        assert graph.edge("e1").properties == {}

    def test_delete_edge(self, graph):
        result = execute(graph, "MATCH ()-[f:FOLLOWS]->() DELETE f")
        assert result.stats == {"relationships_deleted": 1}
        assert graph.edge_count() == 0

    def test_delete_connected_node_requires_detach(self, graph):
        with pytest.raises(CypherSemanticError):
            execute(graph, "MATCH (u:User {id: 1}) DELETE u")

    def test_detach_delete(self, graph):
        result = execute(
            graph, "MATCH (u:User {id: 1}) DETACH DELETE u"
        )
        assert result.stats["nodes_deleted"] == 1
        assert result.stats["relationships_deleted"] == 1
        assert not graph.has_node("a")

    def test_delete_same_element_twice_counted_once(self, graph):
        execute(
            graph,
            "MATCH (a:User)-[f:FOLLOWS]->(b:User) DELETE f, f",
        )
        assert graph.edge_count() == 0


class TestWriteParsingAndRendering:
    @pytest.mark.parametrize("query", [
        "CREATE (n:User {id: 3})",
        "MATCH (a), (b) CREATE (a)-[:R {w: 1}]->(b)",
        "MERGE (u:User {id: 1})",
        "MATCH (n) SET n.x = 1, n.y = 'a'",
        "MATCH (n) SET n += {a: 1}",
        "MATCH (n) REMOVE n.x, n.y",
        "MATCH (n)-[r:R]->() DELETE r",
        "MATCH (n) DETACH DELETE n",
        "CREATE (n:X) RETURN n",
    ])
    def test_write_round_trip(self, query):
        ast1 = parse(query)
        ast2 = parse(render_query(ast1))
        assert ast1 == ast2

    def test_read_query_still_requires_return(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n)")

    def test_bulk_quarantine_query_shape(self, graph):
        """The repair engine's UNWIND + SET shape works end-to-end."""
        graph.add_node("c", "User", {"id": 1, "name": "dup"})
        execute(
            graph,
            "MATCH (n:User) WHERE n.id IS NOT NULL "
            "WITH n.id AS value, collect(n) AS group "
            "WHERE size(group) > 1 "
            "UNWIND group AS m SET m.flagged = true",
        )
        flagged = [
            node.id for node in graph.nodes("User")
            if node.properties.get("flagged")
        ]
        assert sorted(flagged) == ["a", "c"]
