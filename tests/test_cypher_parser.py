"""Unit tests for the Cypher parser."""

import pytest

from repro.cypher import CypherSyntaxError, parse, parse_cached
from repro.cypher.ast_nodes import (
    BinaryOp,
    FunctionCall,
    InList,
    IsNull,
    LabelPredicate,
    Literal,
    MatchClause,
    NodePattern,
    PatternExpression,
    PropertyAccess,
    RegexMatch,
    RelPattern,
    ReturnClause,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)


def single(query_text) -> SingleQuery:
    query = parse(query_text)
    assert isinstance(query, SingleQuery)
    return query


def where_of(query_text):
    return single(query_text).clauses[0].where


class TestClauses:
    def test_minimal_query(self):
        query = single("MATCH (n) RETURN n")
        assert isinstance(query.clauses[0], MatchClause)
        assert isinstance(query.clauses[1], ReturnClause)

    def test_query_must_end_with_return(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n)")

    def test_empty_query_rejected(self):
        with pytest.raises(CypherSyntaxError):
            parse("   ")

    def test_trailing_semicolon_tolerated(self):
        assert single("MATCH (n) RETURN n;")

    def test_optional_match(self):
        query = single("MATCH (a) OPTIONAL MATCH (a)-[:R]->(b) RETURN b")
        assert query.clauses[1].optional is True

    def test_with_clause(self):
        query = single(
            "MATCH (n) WITH n.x AS x WHERE x > 1 RETURN x"
        )
        with_clause = query.clauses[1]
        assert isinstance(with_clause, WithClause)
        assert with_clause.items[0].alias == "x"
        assert with_clause.where is not None

    def test_unwind(self):
        query = single("UNWIND [1,2] AS x RETURN x")
        assert isinstance(query.clauses[0], UnwindClause)
        assert query.clauses[0].alias == "x"

    def test_union(self):
        query = parse("MATCH (a:X) RETURN a UNION MATCH (a:Y) RETURN a")
        assert isinstance(query, UnionQuery)
        assert len(query.queries) == 2
        assert query.all is False

    def test_union_all(self):
        query = parse(
            "MATCH (a:X) RETURN a UNION ALL MATCH (a:Y) RETURN a"
        )
        assert query.all is True

    def test_order_skip_limit(self):
        ret = single(
            "MATCH (n) RETURN n.x AS x ORDER BY x DESC SKIP 1 LIMIT 2"
        ).clauses[-1]
        assert ret.order_by[0].descending is True
        assert ret.skip == Literal(1)
        assert ret.limit == Literal(2)

    def test_return_star(self):
        ret = single("MATCH (n) RETURN *").clauses[-1]
        assert ret.star is True

    def test_distinct(self):
        ret = single("MATCH (n) RETURN DISTINCT n.x").clauses[-1]
        assert ret.distinct is True

    def test_alias_may_be_soft_keyword(self):
        ret = single("MATCH (n) RETURN count(*) AS count").clauses[-1]
        assert ret.items[0].alias == "count"

    def test_column_text_is_source_slice(self):
        ret = single("MATCH (n) RETURN n.x + 1").clauses[-1]
        assert ret.items[0].column_name == "n.x + 1"


class TestPatterns:
    def test_node_pattern_full(self):
        match = single("MATCH (n:Person {age: 3}) RETURN n").clauses[0]
        node = match.patterns[0].elements[0]
        assert node == NodePattern(
            variable="n", labels=("Person",),
            properties=(("age", Literal(3)),),
        )

    def test_anonymous_node(self):
        match = single("MATCH (:A)-[:R]->() RETURN count(*)").clauses[0]
        nodes = match.patterns[0].nodes()
        assert nodes[0].variable is None
        assert nodes[1] == NodePattern(variable=None, labels=())

    def test_multi_label_node(self):
        match = single("MATCH (n:A:B) RETURN n").clauses[0]
        assert match.patterns[0].elements[0].labels == ("A", "B")

    def test_relationship_directions(self):
        for text, direction in (
            ("(a)-[:R]->(b)", "out"),
            ("(a)<-[:R]-(b)", "in"),
            ("(a)-[:R]-(b)", "any"),
            ("(a)-->(b)", "out"),
            ("(a)<--(b)", "in"),
            ("(a)--(b)", "any"),
        ):
            match = single(f"MATCH {text} RETURN a").clauses[0]
            rel = match.patterns[0].relationships()[0]
            assert rel.direction == direction, text

    def test_relationship_types_alternation(self):
        match = single("MATCH (a)-[r:X|Y]->(b) RETURN r").clauses[0]
        assert match.patterns[0].relationships()[0].types == ("X", "Y")

    def test_relationship_properties(self):
        match = single(
            "MATCH (a)-[r:R {w: 2}]->(b) RETURN r"
        ).clauses[0]
        rel = match.patterns[0].relationships()[0]
        assert rel.properties == (("w", Literal(2)),)

    def test_variable_length(self):
        match = single("MATCH (a)-[:R*1..3]->(b) RETURN a").clauses[0]
        rel = match.patterns[0].relationships()[0]
        assert (rel.min_hops, rel.max_hops) == (1, 3)
        assert rel.is_variable_length

    def test_fixed_hops(self):
        match = single("MATCH (a)-[:R*2]->(b) RETURN a").clauses[0]
        rel = match.patterns[0].relationships()[0]
        assert (rel.min_hops, rel.max_hops) == (2, 2)

    def test_named_path(self):
        match = single("MATCH p = (a)-[:R]->(b) RETURN p").clauses[0]
        assert match.patterns[0].variable == "p"

    def test_multiple_patterns(self):
        match = single("MATCH (a), (b)-[:R]->(c) RETURN a").clauses[0]
        assert len(match.patterns) == 2

    def test_keyword_label_keeps_case(self):
        match = single("MATCH (m:Match) RETURN m").clauses[0]
        assert match.patterns[0].elements[0].labels == ("Match",)

    def test_longer_chain(self):
        match = single(
            "MATCH (a)-[:R]->(b)<-[:S]-(c) RETURN a"
        ).clauses[0]
        rels = match.patterns[0].relationships()
        assert [r.direction for r in rels] == ["out", "in"]


class TestExpressions:
    def test_precedence_and_or(self):
        expr = where_of("MATCH (n) WHERE true OR false AND false RETURN n")
        assert isinstance(expr, BinaryOp) and expr.op == "OR"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "AND"

    def test_not(self):
        expr = where_of("MATCH (n) WHERE NOT n.x = 1 RETURN n")
        assert isinstance(expr, UnaryOp) and expr.op == "NOT"

    def test_arithmetic_precedence(self):
        expr = where_of("MATCH (n) WHERE n.x = 1 + 2 * 3 RETURN n")
        plus = expr.right
        assert plus.op == "+"
        assert plus.right.op == "*"

    def test_comparison_chain_left_assoc(self):
        expr = where_of("MATCH (n) WHERE 1 < 2 = true RETURN n")
        assert expr.op == "="

    def test_is_null(self):
        expr = where_of("MATCH (n) WHERE n.x IS NULL RETURN n")
        assert expr == IsNull(
            PropertyAccess(Variable("n"), "x"), negated=False
        )

    def test_is_not_null(self):
        expr = where_of("MATCH (n) WHERE n.x IS NOT NULL RETURN n")
        assert expr.negated is True

    def test_in_list(self):
        expr = where_of("MATCH (n) WHERE n.x IN [1, 2] RETURN n")
        assert isinstance(expr, InList)

    def test_string_predicates(self):
        for op in ("STARTS WITH", "ENDS WITH", "CONTAINS"):
            expr = where_of(f"MATCH (n) WHERE n.x {op} 'a' RETURN n")
            assert isinstance(expr, StringPredicate)
            assert expr.kind == op

    def test_regex_match(self):
        expr = where_of("MATCH (n) WHERE n.x =~ 'a+' RETURN n")
        assert isinstance(expr, RegexMatch)

    def test_label_predicate(self):
        expr = where_of("MATCH (n) WHERE n:Person RETURN n")
        assert expr == LabelPredicate(Variable("n"), ("Person",))

    def test_pattern_expression_in_where(self):
        expr = where_of(
            "MATCH (u) WHERE NOT (u)-[:FOLLOWS]->(u) RETURN u"
        )
        assert isinstance(expr, UnaryOp)
        assert isinstance(expr.operand, PatternExpression)

    def test_parenthesised_expression_not_pattern(self):
        expr = where_of("MATCH (n) WHERE (1 + 2) = 3 RETURN n")
        assert isinstance(expr, BinaryOp)

    def test_count_star(self):
        ret = single("MATCH (n) RETURN count(*)").clauses[-1]
        call = ret.items[0].expression
        assert isinstance(call, FunctionCall)
        assert call.star is True

    def test_count_distinct(self):
        ret = single("MATCH (n) RETURN count(DISTINCT n.x)").clauses[-1]
        assert ret.items[0].expression.distinct is True

    def test_case_expression(self):
        ret = single(
            "MATCH (n) RETURN CASE WHEN n.x > 1 THEN 'big' "
            "ELSE 'small' END"
        ).clauses[-1]
        case = ret.items[0].expression
        assert case.default == Literal("small")

    def test_case_requires_when(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n) RETURN CASE ELSE 1 END")

    def test_list_literal_and_indexing(self):
        ret = single("MATCH (n) RETURN [1,2,3][0]").clauses[-1]
        assert ret.items[0].expression is not None

    def test_list_comprehension(self):
        ret = single(
            "MATCH (n) RETURN [x IN [1,2,3] WHERE x > 1 | x * 2]"
        ).clauses[-1]
        comp = ret.items[0].expression
        assert comp.variable == "x"
        assert comp.predicate is not None
        assert comp.projection is not None

    def test_map_literal(self):
        ret = single("MATCH (n) RETURN {a: 1, b: 'x'}").clauses[-1]
        assert len(ret.items[0].expression.entries) == 2

    def test_parameter(self):
        expr = where_of("MATCH (n) WHERE n.x = $limit RETURN n")
        assert expr.right.name == "limit"

    def test_exists_property(self):
        expr = where_of("MATCH (n) WHERE exists(n.x) RETURN n")
        assert expr is not None

    def test_exists_pattern(self):
        expr = where_of(
            "MATCH (n) WHERE exists((n)-[:R]->()) RETURN n"
        )
        assert isinstance(expr, PatternExpression)

    def test_garbage_after_query(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n) RETURN n garbage")

    def test_unbalanced_paren(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n RETURN n")

    def test_missing_as_alias_is_error(self):
        with pytest.raises(CypherSyntaxError):
            parse("MATCH (n) RETURN count(*) support")

    def test_subtraction_vs_pattern_dash(self):
        expr = where_of("MATCH (n) WHERE n.x - 1 > 0 RETURN n")
        assert expr.op == ">"
        assert expr.left.op == "-"


class TestParseCached:
    def test_equal_text_shares_one_tree(self):
        parse_cached.cache_clear()
        text = "MATCH (n:Person) WHERE n.age > 3 RETURN count(*) AS c"
        first = parse_cached(text)
        again = parse_cached(" ".join(text.split(" ")))   # equal, new str
        assert again is first
        assert first == parse(text)
        assert parse_cached.cache_info().hits == 1

    def test_syntax_error_raises_every_call_and_is_not_cached(self):
        parse_cached.cache_clear()
        for _ in range(3):
            with pytest.raises(CypherSyntaxError):
                parse_cached("MATCH (n RETURN n")
        assert parse_cached.cache_info().currsize == 0
