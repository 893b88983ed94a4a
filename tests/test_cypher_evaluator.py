"""Unit tests for expression evaluation (including ternary logic)."""

import pytest

from repro.cypher import CypherTypeError, execute, parse
from repro.cypher.evaluator import EvalContext, evaluate
from repro.cypher.parser import Parser
from repro.graph import PropertyGraph


@pytest.fixture()
def graph():
    g = PropertyGraph()
    g.add_node("a", "X", {"n": 5, "s": "hello", "flag": True})
    return g


def expr(text):
    """Parse a bare expression."""
    parser = Parser(f"RETURN {text}")
    query = parser.parse()
    return query.clauses[-1].items[0].expression


def run(text, graph, **bindings):
    ctx = EvalContext(graph=graph, bindings=bindings)
    return evaluate(expr(text), ctx)


class TestArithmetic:
    def test_numbers(self, graph):
        assert run("1 + 2 * 3", graph) == 7
        assert run("2 ^ 3", graph) == 8.0
        assert run("7 % 3", graph) == 1
        assert run("-(3)", graph) == -3

    def test_integer_division_exact(self, graph):
        assert run("6 / 3", graph) == 2
        assert run("7 / 2", graph) == 3.5

    def test_division_by_zero_raises(self, graph):
        with pytest.raises(CypherTypeError):
            run("1 / 0", graph)

    def test_string_concat(self, graph):
        assert run("'a' + 'b'", graph) == "ab"
        assert run("'a' + 1", graph) == "a1"

    def test_list_concat(self, graph):
        assert run("[1] + [2]", graph) == [1, 2]
        assert run("[1] + 2", graph) == [1, 2]

    def test_null_propagates(self, graph):
        assert run("NULL + 1", graph) is None
        assert run("1 - NULL", graph) is None


class TestTernaryLogic:
    def test_and(self, graph):
        assert run("true AND true", graph) is True
        assert run("true AND false", graph) is False
        assert run("false AND NULL", graph) is False
        assert run("true AND NULL", graph) is None

    def test_or(self, graph):
        assert run("false OR true", graph) is True
        assert run("false OR NULL", graph) is None
        assert run("true OR NULL", graph) is True

    def test_xor(self, graph):
        assert run("true XOR false", graph) is True
        assert run("true XOR true", graph) is False
        assert run("true XOR NULL", graph) is None

    def test_not(self, graph):
        assert run("NOT false", graph) is True
        assert run("NOT NULL", graph) is None

    def test_boolean_type_errors(self, graph):
        with pytest.raises(CypherTypeError):
            run("1 AND true", graph)


class TestComparisons:
    def test_equality(self, graph):
        assert run("1 = 1.0", graph) is True
        assert run("'a' = 'a'", graph) is True
        assert run("1 = 'a'", graph) is False
        assert run("true = 1", graph) is False

    def test_null_comparison_is_null(self, graph):
        assert run("NULL = NULL", graph) is None
        assert run("1 < NULL", graph) is None

    def test_incomparable_types_yield_null(self, graph):
        assert run("1 < 'a'", graph) is None

    def test_ordering(self, graph):
        assert run("'abc' < 'abd'", graph) is True
        assert run("2 >= 2", graph) is True

    def test_list_equality(self, graph):
        assert run("[1, 2] = [1, 2]", graph) is True
        assert run("[1, NULL] = [1, 2]", graph) is None
        assert run("[1, NULL] = [2, 2]", graph) is False


class TestPredicates:
    def test_in(self, graph):
        assert run("2 IN [1, 2]", graph) is True
        assert run("3 IN [1, 2]", graph) is False
        assert run("3 IN [1, NULL]", graph) is None
        assert run("NULL IN []", graph) is False

    def test_string_predicates(self, graph):
        assert run("'hello' STARTS WITH 'he'", graph) is True
        assert run("'hello' ENDS WITH 'lo'", graph) is True
        assert run("'hello' CONTAINS 'ell'", graph) is True
        assert run("'hello' CONTAINS NULL", graph) is None

    def test_regex_full_match(self, graph):
        assert run("'abc' =~ 'a.+'", graph) is True
        assert run("'abc' =~ 'b'", graph) is False  # full-string semantics

    def test_is_null(self, graph):
        assert run("NULL IS NULL", graph) is True
        assert run("1 IS NOT NULL", graph) is True


class TestAccessors:
    def test_property_access_on_node(self, graph):
        node = graph.node("a")
        assert run("x.n", graph, x=node) == 5
        assert run("x.missing", graph, x=node) is None

    def test_property_access_on_null(self, graph):
        assert run("x.n", graph, x=None) is None

    def test_label_predicate(self, graph):
        node = graph.node("a")
        assert run("x:X", graph, x=node) is True
        assert run("x:Y", graph, x=node) is False

    def test_list_index_and_slice(self, graph):
        assert run("[1,2,3][0]", graph) == 1
        assert run("[1,2,3][-1]", graph) == 3
        assert run("[1,2,3][9]", graph) is None
        assert run("[1,2,3][1..]", graph) == [2, 3]
        assert run("[1,2,3][..2]", graph) == [1, 2]

    def test_map_index(self, graph):
        assert run("{a: 1}['a']", graph) == 1

    def test_case_searched(self, graph):
        assert run(
            "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END", graph
        ) == "b"
        assert run("CASE WHEN false THEN 1 END", graph) is None

    def test_case_simple(self, graph):
        assert run(
            "CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", graph
        ) == "two"

    def test_list_comprehension(self, graph):
        assert run("[x IN [1,2,3] WHERE x > 1 | x * 10]", graph) == [20, 30]
        assert run("[x IN [1,2,3] | x]", graph) == [1, 2, 3]
        assert run("[x IN [1,2,3] WHERE x > 5]", graph) == []


class TestParameters:
    def test_parameter_binding(self, graph):
        ctx = EvalContext(graph=graph, parameters={"p": 9})
        assert evaluate(expr("$p"), ctx) == 9

    def test_parameters_in_query(self, graph):
        result = execute(
            graph, "MATCH (n:X) WHERE n.n = $v RETURN count(*) AS c",
            parameters={"v": 5},
        )
        assert result.scalar() == 1


class TestPatternPredicates:
    def test_pattern_exists_in_where(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) WHERE (u)-[:POSTS]->(:Tweet) "
            "RETURN count(*) AS c",
        )
        assert result.scalar() == 2

    def test_negated_pattern(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) WHERE NOT (u)-[:FOLLOWS]->(:User) "
            "RETURN u.name AS n",
        )
        assert result.values() == ["bob"]

    def test_pattern_property_map_reads_parameters(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) WHERE (u)-[:POSTS]->(:Tweet {id: $id}) "
            "RETURN u.name AS n",
            parameters={"id": 12},
        )
        assert result.values() == ["alice"]
