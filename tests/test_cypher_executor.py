"""Integration tests for query execution (clause pipeline) and the
per-version statement memo behind ``execute``."""

import os
import sys
import threading
import time

import pytest

from repro import obs
from repro.cypher import (
    CypherError,
    CypherSemanticError,
    Executor,
    execute,
    parse,
)
from repro.graph import PropertyGraph
from repro.graph.store import STATEMENT_MEMO_SIZE
from tests.reference_matcher import reference_engine


class TestReturnShapes:
    def test_column_names_and_aliases(self, social_graph):
        result = execute(
            social_graph, "MATCH (u:User) RETURN u.name AS name, u.id"
        )
        assert result.columns == ["name", "u.id"]

    def test_values_helper(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n ORDER BY n",
        )
        assert result.values() == ["alice", "bob"]
        assert result.values("n") == ["alice", "bob"]

    def test_scalar_empty_result(self, social_graph):
        result = execute(
            social_graph, "MATCH (u:User {name: 'nobody'}) RETURN u.id"
        )
        assert result.scalar() is None
        assert len(result) == 0

    def test_return_star(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User {name: 'alice'})-[:FOLLOWS]->(v) RETURN *",
        )
        assert result.columns == ["u", "v"]

    def test_iteration(self, social_graph):
        result = execute(social_graph, "MATCH (u:User) RETURN u.id AS i")
        assert sorted(row["i"] for row in result) == [1, 2]


class TestAggregation:
    def test_global_count(self, social_graph):
        assert execute(
            social_graph, "MATCH (t:Tweet) RETURN count(*) AS c"
        ).scalar() == 3

    def test_count_over_empty_input_is_zero(self, social_graph):
        assert execute(
            social_graph, "MATCH (x:Nothing) RETURN count(*) AS c"
        ).scalar() == 0

    def test_grouped_count(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User)-[:POSTS]->(t:Tweet) "
            "RETURN u.name AS name, count(t) AS posts ORDER BY name",
        )
        assert result.rows == [
            {"name": "alice", "posts": 2},
            {"name": "bob", "posts": 1},
        ]

    def test_grouped_empty_input_has_no_rows(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (x:Nothing) RETURN x.name AS n, count(*) AS c",
        )
        assert result.rows == []

    def test_collect_distinct(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN collect(DISTINCT t.id) AS ids",
        )
        assert sorted(result.scalar()) == [10, 12]

    def test_aggregate_inside_expression(self, social_graph):
        # the paper's WITH ... COLLECT(...) AS xs WHERE size(xs) > 1 shape
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t.id AS id, collect(t.text) AS texts "
            "WHERE size(texts) > 1 RETURN id, size(texts) AS n",
        )
        assert result.rows == [{"id": 10, "n": 2}]

    def test_min_max_avg_sum(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN min(t.id) AS lo, max(t.id) AS hi, "
            "sum(t.id) AS s, avg(t.id) AS a",
        )
        assert result.rows == [{"lo": 10, "hi": 12, "s": 32, "a": 32 / 3}]

    def test_aggregate_in_where_rejected(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (t:Tweet) WHERE count(*) > 1 RETURN t",
            )


class TestWithPipeline:
    def test_with_filters_before_return(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t WHERE t.id = 10 "
            "RETURN count(*) AS c",
        )
        assert result.scalar() == 2

    def test_with_narrows_scope(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (t:Tweet) WITH t.id AS i RETURN t.text",
            )

    def test_chained_aggregation(self, social_graph):
        # count of duplicate-id groups
        result = execute(
            social_graph,
            "MATCH (t:Tweet) WITH t.id AS id, count(*) AS c "
            "WHERE c > 1 RETURN count(*) AS dup_groups",
        )
        assert result.scalar() == 1

    def test_match_after_with(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User {name: 'alice'}) WITH u "
            "MATCH (u)-[:POSTS]->(t) RETURN count(t) AS c",
        )
        assert result.scalar() == 2


class TestOptionalMatch:
    def test_optional_pads_with_null(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:FOLLOWS]->(v:User) "
            "RETURN u.name AS a, v.name AS b ORDER BY a",
        )
        assert result.rows == [
            {"a": "alice", "b": "bob"},
            {"a": "bob", "b": None},
        ]

    def test_optional_where_inside_match(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:POSTS]->(t:Tweet) "
            "WHERE t.id = 12 RETURN u.name AS n, t.id AS t ORDER BY n",
        )
        assert result.rows == [
            {"n": "alice", "t": 12},
            {"n": "bob", "t": None},
        ]


class TestUnwind:
    def test_unwind_expands(self, social_graph):
        result = execute(
            social_graph, "UNWIND [1, 2, 3] AS x RETURN x * 2 AS y"
        )
        assert result.values() == [2, 4, 6]

    def test_unwind_null_produces_nothing(self, social_graph):
        result = execute(social_graph, "UNWIND NULL AS x RETURN x")
        assert result.rows == []

    def test_unwind_scalar_single_row(self, social_graph):
        result = execute(social_graph, "UNWIND 5 AS x RETURN x")
        assert result.values() == [5]


class TestOrderingAndPaging:
    def test_order_desc(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN t.text AS x ORDER BY t.created_at DESC",
        )
        assert result.values() == ["third", "second", "first"]

    def test_order_nulls_last(self):
        g = PropertyGraph()
        g.add_node("a", "X", {"v": 2})
        g.add_node("b", "X", {})
        g.add_node("c", "X", {"v": 1})
        result = execute(g, "MATCH (n:X) RETURN n.v AS v ORDER BY v")
        assert result.values() == [1, 2, None]

    def test_skip_limit(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN t.text AS x ORDER BY x SKIP 1 LIMIT 1",
        )
        assert result.values() == ["second"]

    def test_order_by_preprojection_variable(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS team ORDER BY u.id DESC",
        )
        assert result.values() == ["bob", "alice"]


class TestDistinctAndUnion:
    def test_distinct(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (t:Tweet) RETURN DISTINCT t.id AS i ORDER BY i",
        )
        assert result.values() == [10, 12]

    def test_union_dedups(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n "
            "UNION MATCH (u:User) RETURN u.name AS n",
        )
        assert sorted(result.values()) == ["alice", "bob"]

    def test_union_all_keeps_duplicates(self, social_graph):
        result = execute(
            social_graph,
            "MATCH (u:User) RETURN u.name AS n "
            "UNION ALL MATCH (u:User) RETURN u.name AS n",
        )
        assert len(result) == 4

    def test_union_column_mismatch(self, social_graph):
        with pytest.raises(CypherSemanticError):
            execute(
                social_graph,
                "MATCH (u:User) RETURN u.name AS a "
                "UNION MATCH (u:User) RETURN u.name AS b",
            )


class TestPaperQueries:
    """The actual query shapes from the paper run end-to-end."""

    def test_support_count_query(self, sports_graph):
        result = execute(
            sports_graph,
            "MATCH (m:Match)-[:IN_TOURNAMENT]->(t:Tournament) "
            "WITH t.id AS tournament_id, m.id AS match_id, "
            "COUNT(*) AS count WHERE count = 1 "
            "RETURN COUNT(*) AS support",
        )
        assert result.scalar() == 2

    def test_regex_validation_query(self):
        g = PropertyGraph()
        g.add_node("d1", "Domain", {"domain": "example.com"})
        g.add_node("d2", "Domain", {"domain": "not a domain"})
        result = execute(
            g,
            "MATCH (n) WHERE n.domain IS NOT NULL AND "
            "n.domain =~ '([a-z0-9-]+\\\\.)+[a-z]{2,}' "
            "RETURN COUNT(*) AS valid_domains",
        )
        assert result.scalar() == 1

    def test_same_minute_goals_query(self, sports_graph):
        result = execute(
            sports_graph,
            "MATCH (p:Person)-[g:SCORED_GOAL]->(m:Match) "
            "WITH p, m, g.minute AS minute, count(*) AS c WHERE c > 1 "
            "RETURN p.name AS player, m.id AS match, minute",
        )
        assert result.rows == [{"player": "Ada", "match": 1, "minute": 12}]


# ----------------------------------------------------------------------
# statement memo
# ----------------------------------------------------------------------
USERS = "MATCH (u:User) RETURN count(*) AS c"


@pytest.fixture()
def collector():
    collector = obs.install()
    yield collector
    obs.uninstall()


def outcomes(collector) -> dict:
    counter = collector.metrics.counter("cypher.result_cache")
    return {labels["outcome"]: value for labels, value in counter.samples()}


def seeds(collector) -> float:
    return collector.metrics.counter("matcher.seeds").total()


def counted(collector) -> dict:
    counter = collector.metrics.counter("cypher.counted")
    return {labels["how"]: value for labels, value in counter.samples()}


class TestStatementMemo:
    def test_repeat_on_same_version_is_a_hit_without_matching(
        self, social_graph, collector
    ):
        first = execute(social_graph, USERS)
        seeded = seeds(collector)
        second = execute(social_graph, USERS)
        assert first.rows == second.rows == [{"c": 2}]
        # the miss counted the label's live total; the hit matched nothing
        assert counted(collector) == {"total": 1}
        assert seeds(collector) == seeded
        assert outcomes(collector) == {"miss": 1, "hit": 1}
        cached = [
            span.attributes["cached"] for span in collector.iter_spans()
            if span.name == "cypher.execute"
        ]
        assert cached == [False, True]
        # every statement answered still counts, hits included
        assert collector.metrics.counter("cypher.queries").total() == 2

    def test_mutation_in_between_misses(self, social_graph, collector):
        assert execute(social_graph, USERS).scalar() == 2
        social_graph.add_node("u3", "User", {"id": 3})
        assert execute(social_graph, USERS).scalar() == 3
        assert outcomes(collector) == {"miss": 2}

    def test_mid_batch_read_after_a_write_sees_it_and_bypasses(
        self, social_graph, collector
    ):
        assert execute(social_graph, USERS).scalar() == 2
        with social_graph.batch():
            assert execute(social_graph, USERS).scalar() == 2   # no write yet
            social_graph.add_node("u3", "User", {"id": 3})
            assert execute(social_graph, USERS).scalar() == 3
            assert execute(social_graph, USERS).scalar() == 3
        assert execute(social_graph, USERS).scalar() == 3
        assert outcomes(collector) == {"miss": 2, "hit": 1, "bypass": 2}

    @pytest.mark.parametrize("text", [
        "CREATE (t:Tag {name: 'x'}) RETURN count(*) AS c",
        "MATCH (u:User) RETURN u.id AS c "
        "UNION ALL CREATE (t:Tag) RETURN 0 AS c",
    ])
    def test_write_statement_is_never_served_from_the_memo(
        self, social_graph, collector, text
    ):
        for _ in range(2):
            assert execute(social_graph, text).stats == {"nodes_created": 1}
        assert social_graph.node_count("Tag") == 2
        assert outcomes(collector) == {"bypass": 2}

    def test_a_run_the_epoch_moved_under_is_not_stored(
        self, social_graph, monkeypatch
    ):
        before = social_graph.statement_memo()
        run = Executor.run

        def run_then_commit(self, query):
            result = run(self, query)
            social_graph.add_node("u3", "User")   # a writer got in
            return result

        monkeypatch.setattr(Executor, "run", run_then_commit)
        assert execute(social_graph, USERS).scalar() == 2
        # the count belongs to neither version's memo
        assert len(before) == len(social_graph.statement_memo()) == 0

    def test_hits_are_copies(self, social_graph):
        text = (
            "MATCH (u:User) RETURN u.name AS name, collect(u.id) AS ids, "
            "{n: u.name} AS m, u AS node ORDER BY name"
        )
        expected = execute(social_graph, text).rows
        expected[0]["ids"].append(99)                # the miss's own result
        for _ in range(2):
            hit = execute(social_graph, text)
            assert [row["ids"] for row in hit.rows] == [[1], [2]]
            assert hit.rows[0]["m"] == {"n": "alice"}
            assert hit.rows[0]["node"] is social_graph.node("u1")
            hit.rows[0]["ids"].append(7)
            hit.rows[0]["m"]["n"] = "mallory"
            hit.rows[1]["name"] = "eve"
            hit.rows.append({})
        assert execute(social_graph, text).rows[1]["name"] == "bob"

    def test_unhashable_parameters_bypass(self, social_graph, collector):
        text = "MATCH (u:User) WHERE u.id IN $ids RETURN count(*) AS c"
        for _ in range(2):
            assert execute(social_graph, text, {"ids": [1, 2]}).scalar() == 2
        assert outcomes(collector) == {"bypass": 2}

    def test_parameter_values_are_keyed_with_their_types(self, social_graph):
        text = "MATCH (u:User) WHERE u.active = $v RETURN count(*) AS c"
        assert execute(social_graph, text, {"v": True}).scalar() == 1
        assert execute(social_graph, text, {"v": 1}).scalar() == 0
        listed = "MATCH (u:User) WHERE u.id IN $v RETURN count(*) AS c"
        assert execute(social_graph, listed, {"v": (1,)}).scalar() == 1
        assert execute(social_graph, listed, {"v": (True,)}).scalar() == 0

    def test_statements_with_equal_asts_do_not_share(self, social_graph):
        one = "MATCH (u:User) WHERE u.active = 1 RETURN count(*) AS c"
        true = "MATCH (u:User) WHERE u.active = true RETURN count(*) AS c"
        assert parse(one) == parse(true)
        assert execute(social_graph, one).scalar() == 0
        assert execute(social_graph, true).scalar() == 1

    def test_alpha_variants_do_not_share(self, social_graph, collector):
        for name in ("a", "b"):
            text = f"MATCH ({name}:User) RETURN {name}"
            assert execute(social_graph, text).columns == [name]
        assert outcomes(collector) == {"miss": 2}

    def test_raising_run_is_not_stored(self, social_graph):
        text = "MATCH (u:User) RETURN u.name - 1 AS x"
        for _ in range(2):
            with pytest.raises(CypherError):
                execute(social_graph, text)
        assert len(social_graph.statement_memo()) == 0

    def test_invalidate_columnar_drops_the_memo(self, social_graph, collector):
        execute(social_graph, USERS)
        social_graph.invalidate_columnar()
        execute(social_graph, USERS)
        assert outcomes(collector) == {"miss": 2}

    def test_bound_holds_and_evicts_least_recently_used(self, social_graph):
        texts = [
            f"RETURN {i} AS x" for i in range(STATEMENT_MEMO_SIZE + 1)
        ]
        for text in texts[:-1]:
            execute(social_graph, text)
        execute(social_graph, texts[0])               # now most recent
        execute(social_graph, texts[-1])              # evicts texts[1]
        memo = social_graph.statement_memo()
        assert len(memo) == STATEMENT_MEMO_SIZE
        assert memo.get((texts[0], ())) is not None
        assert memo.get((texts[1], ())) is None


class TestStatementMemoThreads:
    """A watch service's poller reads while the submitting thread writes
    in batches; the readers share one memo per version."""

    EDGES = "MATCH ()-[r:R]->() RETURN count(*) AS c"
    COUNTS = (
        EDGES,
        "MATCH (a:N)-[:R]->(b:N) WHERE a.i < b.i RETURN count(*) AS c",
        "MATCH (a:N) WHERE NOT (a)-[:R]->() RETURN count(*) AS c",
    )

    def test_answers_stay_within_the_versions_of_their_call(self):
        graph = PropertyGraph("stress")
        for index in range(12):
            graph.add_node(f"n{index}", "N", {"i": index})
        base_epoch = graph.epoch
        readers = (os.cpu_count() or 1) + 2
        start = threading.Barrier(readers + 1)
        done = threading.Event()
        errors: list[BaseException] = []
        stale: list[tuple[int, int, int]] = []

        def writer():
            try:
                start.wait(timeout=60)
                for batch in range(100):
                    with graph.batch():
                        for step in range(3):
                            graph.add_edge(
                                f"e{batch}.{step}", "R",
                                f"n{(batch + step) % 12}",
                                f"n{(batch * 5 + step) % 12}",
                            )
                            time.sleep(0)   # let readers in mid-batch
                    time.sleep(0.0005)      # and between batches
            except BaseException as error:  # reported after the join
                errors.append(error)
            finally:
                done.set()

        def reader():
            try:
                start.wait(timeout=60)
                while not done.is_set():
                    # edges are only added, three per batch and one epoch
                    # per batch, so an answer from any version this call
                    # could have seen lies between the edges committed
                    # when it started and the edges present when it ended
                    committed = 3 * (graph.epoch - base_epoch)
                    answer = execute(graph, self.EDGES).scalar()
                    present = graph.edge_count("R")
                    if not committed <= answer <= present:
                        stale.append((committed, answer, present))
                    for text in self.COUNTS[1:]:
                        execute(graph, text)
            except BaseException as error:  # reported after the join
                errors.append(error)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(readers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert stale == []
        assert graph.edge_count("R") == 300
        for text in self.COUNTS:
            with reference_engine():
                fresh = Executor(graph).run(parse(text))
            assert execute(graph, text).rows == fresh.rows
