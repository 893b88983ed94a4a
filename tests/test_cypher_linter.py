"""Unit tests for the data-model linter (Table 6 machinery)."""

import pytest

from repro.cypher import ErrorCategory, lint, looks_like_regex


class TestCorrectQueries:
    @pytest.mark.parametrize("query", [
        "MATCH (u:User)-[:POSTS]->(t:Tweet) RETURN count(*) AS c",
        "MATCH (t:Tweet) WHERE t.id IS NOT NULL RETURN t.id AS i",
        "MATCH (u:User) WHERE NOT (u)-[:FOLLOWS]->(u) RETURN u",
        "MATCH (a:Tweet)-[:RETWEETS]->(b:Tweet) "
        "WHERE a.created_at >= b.created_at RETURN count(*) AS c",
    ])
    def test_clean_queries_pass(self, social_schema, query):
        assert lint(query, social_schema).is_correct


class TestSyntaxCategory:
    def test_parse_failure(self, social_schema):
        report = lint("MATCH (u:User RETURN u", social_schema)
        assert report.parse_failed
        assert report.has(ErrorCategory.SYNTAX)

    def test_regex_with_equals(self, social_schema):
        report = lint(
            "MATCH (u:User) WHERE u.name = '^[a-z]+$' RETURN u",
            social_schema,
        )
        assert report.has(ErrorCategory.SYNTAX)

    def test_plain_string_equality_ok(self, social_schema):
        report = lint(
            "MATCH (u:User) WHERE u.name = 'alice' RETURN u",
            social_schema,
        )
        assert report.is_correct


class TestDirectionCategory:
    def test_flipped_direction_flagged(self, social_schema):
        report = lint(
            "MATCH (t:Tweet)-[:POSTS]->(u:User) RETURN count(*) AS c",
            social_schema,
        )
        assert report.has(ErrorCategory.DIRECTION)

    def test_incoming_arrow_also_checked(self, social_schema):
        report = lint(
            "MATCH (u:User)<-[:POSTS]-(t:Tweet) RETURN count(*) AS c",
            social_schema,
        )
        assert report.has(ErrorCategory.DIRECTION)

    def test_unlabeled_endpoint_not_judged(self, social_schema):
        report = lint(
            "MATCH (x)-[:POSTS]->(y) RETURN count(*) AS c", social_schema
        )
        assert report.is_correct

    def test_nonexistent_pair_is_hallucination_not_direction(
        self, social_schema
    ):
        report = lint(
            "MATCH (u:User)-[:RETWEETS]->(t:Tweet) RETURN count(*) AS c",
            social_schema,
        )
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)
        assert not report.has(ErrorCategory.DIRECTION)


class TestHallucinationCategory:
    def test_unknown_node_property(self, social_schema):
        report = lint(
            "MATCH (t:Tweet) WHERE t.score > 1 RETURN t", social_schema
        )
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)
        assert any(i.subject == "score" for i in report.issues)

    def test_unknown_property_in_pattern_map(self, social_schema):
        report = lint(
            "MATCH (t:Tweet {score: 1}) RETURN t", social_schema
        )
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)

    @pytest.mark.parametrize("query", [
        "MATCH (t:Tweet) RETURN [1, 2, 3][t.score..] AS s",
        "MATCH (t:Tweet) RETURN [1, 2, 3][..t.score] AS s",
    ])
    def test_unknown_property_in_slice_bound(self, social_schema, query):
        report = lint(query, social_schema)
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)
        assert any(i.subject == "score" for i in report.issues)

    def test_unknown_property_in_pattern_value(self, social_schema):
        report = lint(
            "MATCH (u:User), (t:Tweet {id: u.score}) RETURN t", social_schema
        )
        assert any(i.subject == "score" for i in report.issues)

    def test_unknown_edge_property(self, social_schema):
        report = lint(
            "MATCH ()-[r:FOLLOWS]->() WHERE r.weight > 1 RETURN r",
            social_schema,
        )
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)

    def test_unknown_label(self, social_schema):
        report = lint("MATCH (x:Ghost) RETURN x", social_schema)
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)

    def test_unknown_relationship_type(self, social_schema):
        report = lint(
            "MATCH ()-[:LIKES]->() RETURN count(*) AS c", social_schema
        )
        assert report.has(ErrorCategory.HALLUCINATED_PROPERTY)

    def test_property_on_unlabeled_variable_not_judged(self, social_schema):
        report = lint(
            "MATCH (x) WHERE x.anything = 1 RETURN x", social_schema
        )
        assert report.is_correct

    def test_property_valid_on_one_of_two_labels(self, social_schema):
        # 'since' exists on FOLLOWS
        report = lint(
            "MATCH ()-[r:FOLLOWS]->() WHERE r.since > '2019' RETURN r",
            social_schema,
        )
        assert report.is_correct


class TestRegexHeuristic:
    @pytest.mark.parametrize("text,expected", [
        ("^abc$", True),
        ("[a-z]+", True),
        ("a{2,}", True),
        (r"\d+", True),
        ("alice", False),
        ("hello world", False),
    ])
    def test_looks_like_regex(self, text, expected):
        assert looks_like_regex(text) is expected
