"""CSR matcher vs the naive reference matcher (hypothesis).

The matcher interns labels into codes, walks CSR adjacency slices and
evaluates pushed-down prefilters against property columns — none of
which may change the *result*: for every randomized graph and every
query in the corpus, ``Executor(graph)`` must produce exactly the same
row multiset as the brute-force reference in
``tests/reference_matcher.py``, and raise the same error on queries
that raise.

Graphs here extend the planner-equivalence strategy with unicode string
properties, explicit ``None`` property values, self-loops and parallel
edges; queries reuse the full planner corpus plus columnar stress
queries (column-pushable equality on unicode values, IS NULL on a
stored-None column, and comparisons that raise a type error).
"""

from collections import Counter
from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import CypherError, Executor, parse
from repro.graph import PropertyGraph
from tests.reference_matcher import reference_engine
from tests.test_planner_equivalence import (
    _LABEL_SETS,
    QUERY_CORPUS,
    row_multiset,
)

_UNICODE = ("", "å", "日本", "ß∂ƒ", "naïve", "🎈")


# ----------------------------------------------------------------------
# graph strategy: planner-equivalence shape + unicode and None values
# ----------------------------------------------------------------------
@st.composite
def rich_graphs(draw):
    node_count = draw(st.integers(min_value=1, max_value=8))
    nodes = []
    for index in range(node_count):
        labels = draw(st.sampled_from(_LABEL_SETS))
        properties = {}
        if draw(st.booleans()):
            properties["p"] = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            properties["q"] = draw(st.booleans())
        if draw(st.booleans()):
            properties["u"] = draw(st.sampled_from(_UNICODE))
        if draw(st.booleans()):
            properties["nil"] = None          # stored null, not absent
        nodes.append((f"n{index}", labels, properties))
    edge_count = draw(st.integers(min_value=0, max_value=2 * node_count))
    edges = []
    for number in range(edge_count):
        src = draw(st.integers(min_value=0, max_value=node_count - 1))
        dst = draw(st.integers(min_value=0, max_value=node_count - 1))
        label = draw(st.sampled_from(["R", "S"]))
        properties = {}
        if draw(st.booleans()):
            properties["w"] = draw(st.integers(min_value=0, max_value=2))
        edges.append((f"e{number}", label, f"n{src}", f"n{dst}", properties))
    return nodes, edges


def build_rich(spec) -> PropertyGraph:
    nodes, edges = spec
    graph = PropertyGraph("hyp-csr")
    for node_id, labels, properties in nodes:
        graph.add_node(node_id, labels, properties)
    for edge_id, label, src, dst, properties in edges:
        graph.add_edge(edge_id, label, src, dst, properties)
    return graph


# ----------------------------------------------------------------------
# query corpus: the planner corpus + columnar stress queries
# ----------------------------------------------------------------------
COLUMNAR_EXTRAS = (
    # column-pushable equality on a unicode value
    "MATCH (a {u: '日本'}) RETURN a.p AS p",
    "MATCH (a:A) WHERE a.u = 'å' RETURN a.u AS u",
    # IS NULL must treat a stored None exactly like an absent key
    "MATCH (a) WHERE a.nil IS NULL RETURN a.p AS p",
    "MATCH (a:B) WHERE a.u IS NOT NULL RETURN a.u AS u",
    # edge property filter along the CSR frontier
    "MATCH (a)-[r:R {w: 1}]->(b) RETURN a.p AS x, b.p AS y",
    "MATCH (a)-[r:S]->(b) WHERE r.w >= 1 RETURN r.w AS w",
    # multi-type relationship (no single-type CSR segment applies)
    "MATCH (a:A)-[r:R|S]->(b) RETURN b.p AS y",
    # undirected multi-type with a join-back
    "MATCH (a)-[:R|S]-(a) RETURN a.p AS p",
    # unicode values surviving aggregation + ordering
    "MATCH (a) WHERE a.u IS NOT NULL "
    "RETURN a.u AS u, count(*) AS c ORDER BY u",
)

ALL_QUERIES = QUERY_CORPUS + COLUMNAR_EXTRAS

# queries that mix incompatible operand types; the last three raise
# CypherTypeError whenever a matched row reaches the arithmetic with a
# string and a number, so both matchers must agree on whether (and with
# what) each graph raises
ERROR_QUERIES = (
    "MATCH (a) WHERE a.p < a.u RETURN a.p AS p",
    "MATCH (a)-[:R]->(b) WHERE a.u <= b.p RETURN a.p AS p",
    "MATCH (a) WHERE a.u + 1 = 2 RETURN a.u AS u",
    "MATCH (a:A) WHERE a.u - 1 = 2 RETURN a.u AS u",
    "MATCH (a)-[:S]->(b) WHERE b.u - a.p = 0 RETURN a.p AS p",
    "MATCH (a)-[:R*1..2]->(b) WHERE b.u - a.p = 0 RETURN a.p AS p",
)


def _outcome(graph, query_text, parameters=None, *, reference):
    """Run one query; normalise result rows or the raised error."""
    query = parse(query_text)
    try:
        with reference_engine() if reference else nullcontext():
            result = Executor(graph, parameters).run(query)
    except CypherError as error:
        return ("error", type(error).__name__, str(error))
    return ("ok", tuple(result.columns), row_multiset(result))


def _agree(graph, query_text, parameters=None):
    assert _outcome(
        graph, query_text, parameters, reference=False
    ) == _outcome(graph, query_text, parameters, reference=True)


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
@given(spec=rich_graphs(), query_index=st.integers(0, len(ALL_QUERIES) - 1))
@settings(max_examples=250, deadline=None)
def test_columnar_equals_legacy(spec, query_index):
    _agree(build_rich(spec), ALL_QUERIES[query_index])


@given(spec=rich_graphs(), query_index=st.integers(0, len(ERROR_QUERIES) - 1))
@settings(max_examples=120, deadline=None)
def test_columnar_error_semantics_match(spec, query_index):
    _agree(build_rich(spec), ERROR_QUERIES[query_index])


@given(spec=rich_graphs(), query_index=st.integers(0, len(ALL_QUERIES) - 1))
@settings(max_examples=80, deadline=None)
def test_columnar_equals_legacy_after_mutation(spec, query_index):
    """Incremental snapshot updates keep the columnar path equivalent."""
    graph = build_rich(spec)
    graph.columnar()                      # compile, so mutations go incremental
    nodes, edges = spec
    first_id = nodes[0][0]
    graph.update_node(first_id, {"p": 99, "u": "après"})
    graph.add_node("extra", "A", {"p": 1})
    graph.add_edge("extra_e", "R", first_id, "extra", {"w": 2})
    if edges:
        graph.remove_edge(edges[0][0])
    snapshot = graph.columnar()
    assert snapshot.origin in ("incremental", "full")
    _agree(graph, ALL_QUERIES[query_index])


@given(spec=rich_graphs(), value=st.sampled_from(_UNICODE))
@settings(max_examples=60, deadline=None)
def test_columnar_parameterized_unicode(spec, value):
    _agree(
        build_rich(spec), "MATCH (a) WHERE a.u = $v RETURN a.u AS u",
        {"v": value},
    )


@given(spec=rich_graphs())
@settings(max_examples=40, deadline=None)
def test_columnar_self_loop_var_length(spec):
    """A var-length walk joining back to its own start node."""
    _agree(build_rich(spec), "MATCH (a)-[:R*1..3]->(a) RETURN a.p AS p")
