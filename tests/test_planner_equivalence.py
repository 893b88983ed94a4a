"""Planned executor vs the naive reference matcher (hypothesis).

The cost-based planner reorders patterns, reverses traversals, seeds
from property indexes and pushes predicates into the matcher — none of
which may change the *result*: for every graph and every query in the
corpus, the planned executor must produce exactly the same row multiset
as the brute-force, written-order reference in
``tests/reference_matcher.py``.

Graphs are randomized and small (self-loops, parallel edges and
multi-label nodes included); queries cover index seeds, join-backs,
variable-length paths (zero hops, undirected, multi-type, named, joined
back to a bound endpoint), named paths, OPTIONAL MATCH, undirected
relationships, multi-pattern joins, pattern predicates and parameters.
The corpus sticks to WHERE predicates that cannot raise on these
graphs, since the planner keeps unplanned error *timing* only for rows
it does not prune.

The statement memo round trip runs ``execute()`` through random
sequences of reads, mutations, batches, write statements and cache
drops: every answer, memo hit or not, must equal the reference's.
"""

import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import Executor, execute, parse
from repro.cypher.executor import _canonical
from repro.graph import PropertyGraph
from tests.reference_matcher import reference_engine

# ----------------------------------------------------------------------
# graph strategy
# ----------------------------------------------------------------------
_LABEL_SETS = (("A",), ("B",), ("A", "B"))


@st.composite
def graphs(draw):
    node_count = draw(st.integers(min_value=1, max_value=8))
    nodes = []
    for index in range(node_count):
        labels = draw(st.sampled_from(_LABEL_SETS))
        properties = {}
        if draw(st.booleans()):
            properties["p"] = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            properties["q"] = draw(st.booleans())
        nodes.append((f"n{index}", labels, properties))
    edge_count = draw(st.integers(min_value=0, max_value=2 * node_count))
    edges = []
    for number in range(edge_count):
        src = draw(st.integers(min_value=0, max_value=node_count - 1))
        dst = draw(st.integers(min_value=0, max_value=node_count - 1))
        label = draw(st.sampled_from(["R", "S"]))
        edges.append((f"e{number}", label, f"n{src}", f"n{dst}"))
    return nodes, edges


def build(spec) -> PropertyGraph:
    nodes, edges = spec
    graph = PropertyGraph("hyp")
    for node_id, labels, properties in nodes:
        graph.add_node(node_id, labels, properties)
    for edge_id, label, src, dst in edges:
        graph.add_edge(edge_id, label, src, dst)
    return graph


# ----------------------------------------------------------------------
# query corpus
# ----------------------------------------------------------------------
QUERY_CORPUS = (
    # index seed from an equality conjunct
    "MATCH (a:A) WHERE a.p = 1 RETURN a.p AS p",
    # inline property map seed
    "MATCH (a:A {p: 2}) RETURN a.q AS q",
    # plain traversal, both endpoints projected
    "MATCH (a)-[r:R]->(b) RETURN a.p AS x, b.p AS y",
    # traversal with a pushable comparison across both ends
    "MATCH (a:A)-[:R]->(b:B) WHERE a.p > b.p RETURN a.p AS x, b.p AS y",
    # reversal candidate: selective target end
    "MATCH (a)-[:R]->(b:B {p: 0}) RETURN a.p AS x",
    # variable-length with lower/upper bounds
    "MATCH (a)-[:R*1..3]->(b) WHERE a.p = 1 RETURN b.p AS y",
    # unbounded variable-length (parser caps hops)
    "MATCH (a:A)-[:R*]->(b) RETURN b.p AS y",
    # named variable-length relationship (never reversed)
    "MATCH (a)-[rs:R*1..2]->(b) RETURN size(rs) AS hops, b.p AS y",
    # self-loop join-back
    "MATCH (a)-[:R]->(a) RETURN a.p AS p",
    # join-back over two hops
    "MATCH (a)-[:R]->(b)-[:S]->(a) RETURN a.p AS x, b.p AS y",
    # cartesian join of two patterns with a cross-pattern conjunct
    "MATCH (a:A), (b:B) WHERE a.p = b.p RETURN a.p AS p",
    # named path (never reversed)
    "MATCH q = (a)-[:R]->(b) RETURN a.p AS x, b.p AS y",
    # OPTIONAL MATCH padding
    "OPTIONAL MATCH (a:A {p: 3})-[:S]->(b) RETURN a.p AS x, b.p AS y",
    # bound-variable seed in a second MATCH
    "MATCH (t:B) MATCH (t)<-[:R]-(s) RETURN s.p AS x, t.p AS y",
    # undirected relationship
    "MATCH (a)-[r]-(b) WHERE a.p <= b.p RETURN a.p AS x, b.p AS y",
    # IN-list and NOT, all pushable
    "MATCH (a:A) WHERE a.p IN [1, 2, 3] AND NOT a.p = 2 RETURN a.p AS p",
    # IS NULL / boolean property mix
    "MATCH (a) WHERE a.q = true AND a.p IS NULL RETURN a.q AS q",
    # aggregation on top of a planned match
    "MATCH (a:A)-[:R]->(b) RETURN count(*) AS c",
    # DISTINCT + ORDER BY downstream of the planner
    "MATCH (a)-[:R]->(b) RETURN DISTINCT b.p AS y ORDER BY y",
    # UNION with independently planned branches
    "MATCH (a:A {p: 1}) RETURN a.p AS v "
    "UNION MATCH (b:B {p: 2}) RETURN b.p AS v",
    # variable-length with zero hops allowed (a zero-hop row needs a
    # node labelled both A and B)
    "MATCH (a:A)-[r:R*0..2]->(b:B) RETURN a.p AS x, size(r) AS hops, "
    "b.p AS y",
    # undirected variable-length
    "MATCH (a)-[:R*1..3]-(b:B) RETURN a.p AS x, b.p AS y",
    # multi-type variable-length
    "MATCH (a)-[:R|S*1..2]->(b) WHERE b.q = true RETURN a.p AS x",
    # named path over a variable-length hop
    "MATCH q = (a:B)-[:S*1..2]->(b) RETURN q AS q",
    # variable-length join-back to an endpoint bound by an earlier MATCH
    "MATCH (a:A)-[:S]->(b) MATCH (a)-[:R*1..3]->(b) "
    "RETURN a.p AS x, b.p AS y",
    # pattern predicate
    "MATCH (a:A) WHERE NOT (a)-[:S]->(:B) RETURN a.p AS p",
)


def row_multiset(result) -> Counter:
    return Counter(
        tuple(_canonical(row[column]) for column in result.columns)
        for row in result.rows
    )


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
@given(spec=graphs(), query_index=st.integers(0, len(QUERY_CORPUS) - 1))
@settings(max_examples=200, deadline=None)
def test_planned_equals_unplanned(spec, query_index):
    graph = build(spec)
    query = parse(QUERY_CORPUS[query_index])
    planned = Executor(graph).run(query)
    with reference_engine():
        unplanned = Executor(graph).run(query)
    assert planned.columns == unplanned.columns
    assert row_multiset(planned) == row_multiset(unplanned)


PARAMETERIZED_QUERIES = (
    "MATCH (a:A) WHERE a.p = $v RETURN a.p AS p",
    "MATCH (a:A {p: $v}) RETURN a.p AS p",
)


@given(
    spec=graphs(),
    value=st.integers(min_value=0, max_value=3),
    query_text=st.sampled_from(PARAMETERIZED_QUERIES),
)
@settings(max_examples=60, deadline=None)
def test_parameterized_query_equivalent(spec, value, query_text):
    graph = build(spec)
    query = parse(query_text)
    parameters = {"v": value}
    planned = Executor(graph, parameters).run(query)
    with reference_engine():
        unplanned = Executor(graph, parameters).run(query)
    assert row_multiset(planned) == row_multiset(unplanned)


# ----------------------------------------------------------------------
# the statement memo round trip
# ----------------------------------------------------------------------
#: the read statements one example draws from: the corpus plus the
#: parameterized queries, with ``$v`` bound to values that are equal as
#: Python keys but not as Cypher values
MEMO_READS = QUERY_CORPUS + PARAMETERIZED_QUERIES
MEMO_VALUES = (1, True, 1.0, 2)

WRITE_STATEMENTS = (
    "MATCH (a:A) WHERE a.p = 1 SET a.p = 2",
    "CREATE (:A {p: 1})-[:R]->(:B {p: 3})",
    "MATCH (a)-[r:S]->() DELETE r",
    "MATCH (a:B) REMOVE a.q",
    "MATCH (a:A) RETURN a.p AS v UNION ALL CREATE (b:B {p: 0}) "
    "RETURN b.p AS v",
)

MUTATIONS = ("add_node", "add_edge", "set_p", "remove_edge", "remove_node")

_reads = st.tuples(st.integers(0, 2), st.sampled_from(MEMO_VALUES))
_mutations = st.tuples(
    st.sampled_from(MUTATIONS), st.integers(0, 15), st.integers(0, 3)
)
_steps = st.one_of(
    st.tuples(st.just("read"), _reads),
    st.tuples(st.just("mutate"), _mutations),
    st.tuples(st.just("batch"), st.tuples(_reads, _mutations)),
    st.tuples(st.just("write"), st.sampled_from(WRITE_STATEMENTS)),
    st.tuples(st.just("invalidate"), st.none()),
)


def mutate(graph, fresh_ids, step) -> None:
    kind, pick, value = step
    nodes = [node.id for node in graph.nodes()]
    edges = [edge.id for edge in graph.edges()]
    if kind == "add_node" or not nodes:
        graph.add_node(next(fresh_ids), _LABEL_SETS[value % 3], {"p": value})
    elif kind == "add_edge":
        graph.add_edge(
            next(fresh_ids), "RS"[value % 2],
            nodes[pick % len(nodes)], nodes[value % len(nodes)],
        )
    elif kind == "set_p":
        graph.update_node(nodes[pick % len(nodes)], {"p": value})
    elif kind == "remove_edge" and edges:
        graph.remove_edge(edges[pick % len(edges)])
    elif kind == "remove_node":
        graph.remove_node(nodes[pick % len(nodes)])


@given(
    spec=graphs(),
    pool=st.lists(
        st.integers(0, len(MEMO_READS) - 1), min_size=3, max_size=3
    ),
    steps=st.lists(_steps, min_size=1, max_size=12),
)
@settings(max_examples=150, deadline=None)
def test_memo_round_trip_equals_reference(spec, pool, steps):
    """Each example reads from a pool of three statements, so repeats
    (memo hits) are common between the steps that move the epoch."""
    graph = build(spec)
    fresh_ids = (f"x{number}" for number in itertools.count())

    def read(choice):
        index, value = choice
        text = MEMO_READS[pool[index]]
        answered = execute(graph, text, {"v": value})
        with reference_engine():
            expected = Executor(graph, {"v": value}).run(parse(text))
        assert answered.columns == expected.columns
        assert row_multiset(answered) == row_multiset(expected)

    for kind, arg in steps:
        if kind == "read":
            read(arg)
        elif kind == "mutate":
            mutate(graph, fresh_ids, arg)
        elif kind == "batch":
            choice, mutation = arg
            with graph.batch():
                read(choice)
                mutate(graph, fresh_ids, mutation)
                read(choice)
        elif kind == "write":
            execute(graph, arg)
        else:
            graph.invalidate_columnar()
        read((0, MEMO_VALUES[0]))
