"""Micro-benchmarks for the Cypher substrate itself.

These quantify the engine the whole evaluation stands on: parsing,
index-backed matching, multi-hop joins and grouped aggregation on the
WWC2019 graph.  They run statements through ``Executor`` so that the
statement memo behind ``execute`` never answers them; one canary times
``execute`` itself and pins that a repeated statement is a memo hit.
"""

import pytest

from repro import obs
from repro.cypher import Executor, execute, parse
from repro.datasets import load


@pytest.fixture(scope="module")
def graph():
    return load("wwc2019").graph


def _engine(benchmark, graph, text):
    """Time one statement, parsed once, on the engine."""
    return benchmark(Executor(graph).run, parse(text))


def test_parse_throughput(benchmark):
    query = (
        "MATCH (p:Person)-[g:SCORED_GOAL]->(m:Match) "
        "WHERE g.minute > 10 AND m.stage IN ['Group', 'Final'] "
        "WITH m.id AS match_id, count(*) AS goals WHERE goals > 1 "
        "RETURN match_id, goals ORDER BY goals DESC LIMIT 5"
    )
    benchmark(parse, query)


def test_label_scan_count(benchmark, graph):
    result = _engine(
        benchmark, graph, "MATCH (p:Person) RETURN count(*) AS c"
    )
    assert result.scalar() == 2367


def test_one_hop_match(benchmark, graph):
    result = _engine(
        benchmark, graph,
        "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) RETURN count(*) AS c",
    )
    assert result.scalar() == 148


def test_two_hop_join(benchmark, graph):
    result = _engine(
        benchmark, graph,
        "MATCH (p:Person)-[:IN_SQUAD]->(s:Squad)-[:FOR]->(t:Tournament) "
        "RETURN count(*) AS c",
    )
    assert result.scalar() > 0


def test_grouped_aggregation(benchmark, graph):
    result = _engine(
        benchmark, graph,
        "MATCH (p:Person)-[:PLAYED_IN]->(m:Match) "
        "WITH m.id AS match_id, count(*) AS players "
        "RETURN max(players) AS biggest",
    )
    assert result.scalar() > 0


def test_uniqueness_check_query(benchmark, graph):
    result = _engine(
        benchmark, graph,
        "MATCH (p:Person) WHERE p.id IS NOT NULL "
        "WITH p.id AS value, count(*) AS occurrences "
        "WHERE occurrences = 1 RETURN count(*) AS support",
    )
    assert result.scalar() == 2367


def test_pattern_predicate_filter(benchmark, graph):
    result = _engine(
        benchmark, graph,
        "MATCH (s:Squad) WHERE NOT (s)-[:FOR]->(:Tournament) "
        "RETURN count(*) AS orphans",
    )
    assert result.scalar() == 1  # the injected orphan squad


# ----------------------------------------------------------------------
# planned CSR walk: timings and pinned work counters
# ----------------------------------------------------------------------
AB_QUERY = (
    "MATCH (p:Person)-[:SCORED_GOAL]->(m:Match) "
    "WHERE p.id = 7 RETURN count(*) AS c"
)

JOIN3_QUERY = (
    "MATCH (p:Person)-[:IN_SQUAD]->(s:Squad), "
    "(s)-[:FOR]->(t:Tournament), "
    "(p)-[:SCORED_GOAL]->(m:Match) "
    "WHERE p.id = 482 RETURN count(*) AS c"
)


def _run(graph, text):
    from repro.cypher import Executor

    return Executor(graph).run(parse(text))


def _work(graph, text, *, cold=True):
    """(rows, seeds, expansions, visits, CSR slices) for one execution,
    read from the matcher's obs counters; ``cold`` runs it on a fresh
    snapshot, whose count views are empty, so a count walks."""
    if cold:
        graph.invalidate_columnar()
    collector = obs.install()
    try:
        result = _run(graph, text)
        counts = tuple(
            collector.metrics.counter(name).total()
            for name in (
                "matcher.seeds",
                "matcher.expansions",
                "matcher.visits",
                "matcher.csr.frontier_expansions",
            )
        )
    finally:
        obs.uninstall()
    return (result,) + counts


def test_planner_ab_selective_filter_planned(benchmark, graph):
    result = benchmark(_run, graph, AB_QUERY)
    assert result.scalar() is not None


def test_planner_ab_reorder_join(benchmark, graph):
    # written worst-first: the planner must run the indexed Squad
    # lookup before the Person scan
    query = (
        "MATCH (p:Person), (s:Squad {id: 3}) "
        "WHERE p.id = s.id RETURN count(*) AS c"
    )
    result = benchmark(_run, graph, query)
    assert result.scalar() is not None


#: rag-wwc2019's costliest rule-scoring statement (36-70 ms cold on a
#: 2-vCPU VM)
COSTLIEST_QUERY = (
    "MATCH (n:Person) WHERE n.id IS NOT NULL "
    "WITH n.id AS value, count(*) AS occurrences "
    "WHERE occurrences = 1 RETURN count(*) AS satisfy"
)


def test_statement_memo_answers_a_repeat(benchmark, graph):
    """Canary: repeated on an unchanged graph, the statement is one memo
    hit that matches nothing.  Fails if a change stops the memo
    engaging, which no correctness test would notice."""
    execute(graph, COSTLIEST_QUERY)
    collector = obs.install()
    try:
        result = execute(graph, COSTLIEST_QUERY)
        seeds = collector.metrics.counter("matcher.seeds").total()
        outcomes = collector.metrics.counter("cypher.result_cache").samples()
    finally:
        obs.uninstall()
    assert result.scalar() == 2367
    assert seeds == 0
    assert outcomes == [({"outcome": "hit"}, 1)]
    assert benchmark(execute, graph, COSTLIEST_QUERY).scalar() == 2367


def test_planner_ab_three_clause_join_planned(benchmark, graph):
    result = benchmark(_run, graph, JOIN3_QUERY)
    assert result.scalar() is not None


def test_selective_filter_work_pinned(graph):
    """An index seed on ``p.id`` plus a typed SCORED_GOAL slice: one
    seed, one slice fetch, and nothing in it to expand.  Run again on the
    same snapshot, the count view it left answers with no work."""
    result, seeds, expansions, visits, slices = _work(graph, AB_QUERY)
    assert result.scalar() == 0
    assert (seeds, expansions, visits, slices) == (1, 0, 0, 1)
    result, *work = _work(graph, AB_QUERY, cold=False)
    assert result.scalar() == 0
    assert work == [0, 0, 0, 0]


def test_three_clause_join_work_pinned(graph):
    """The 3-pattern join seeds once per pattern and touches only the
    five typed adjacency entries that lead to its three rows."""
    result, seeds, expansions, visits, slices = _work(graph, JOIN3_QUERY)
    assert result.scalar() == 3
    assert (seeds, expansions, visits, slices) == (3, 5, 5, 3)
