"""CSR matcher vs the naive reference matcher (hypothesis).

The matcher interns labels into codes, walks CSR adjacency slices and
evaluates pushed-down prefilters against property columns — none of
which may change the *result*: for every randomized graph and every
query in the corpus, ``Executor(graph)`` must produce exactly the same
row multiset as the brute-force reference in
``tests/reference_matcher.py``, and raise the same error on queries
that raise.

Graphs here extend the planner-equivalence strategy with unicode string
properties, list properties, explicit ``None`` property values,
self-loops and parallel edges; queries reuse the full planner corpus
plus columnar stress queries (column-pushable equality on unicode and
list values, IS NULL on a stored-None column, relationship-property
column tests, counts answered without rows, and comparisons that raise
a type error).  Counts carried across random mutation batches by the
matcher's count views must equal the reference after every batch, and
deriving a snapshot must leave every container of its parent as it was.
"""

import copy
import itertools
from collections import Counter
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cypher import CypherError, Executor, matcher, parse
from repro.graph import PropertyGraph
from repro.graph.columnar import ColumnarGraph, _Adjacency
from tests.reference_matcher import reference_engine
from tests.test_graph_columnar import assert_snapshot_matches_store
from tests.test_planner_equivalence import (
    _LABEL_SETS,
    QUERY_CORPUS,
    row_multiset,
)

_UNICODE = ("", "å", "日本", "ß∂ƒ", "naïve", "🎈")
_LISTS = ([1, 2], [1.0, 2.0], [True, 2], [], ["å"], [2, 1])


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
        if draw(st.booleans()):
            properties["l"] = list(draw(st.sampled_from(_LISTS)))
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
    # relationship-property and IN column tests on the row walk
    "MATCH (a:A)-[r:R]->(b) WHERE r.w IN [0, 1.0] AND b.u IS NOT NULL "
    "RETURN a.p AS x, r.w AS w",
    # counts without rows: relationship-property tests, both directions
    "MATCH ()-[r:R]->() WHERE r.w IS NOT NULL RETURN count(*) AS c",
    "MATCH ()-[r:S]->() WHERE r.w IS NULL RETURN count(*) AS c",
    "MATCH (a:A)<-[r:S]-(b) WHERE r.w = 1 AND b.u = 'å' "
    "RETURN count(*) AS c",
    "MATCH ()-[r:R {w: 2}]->(b:B) RETURN count(*) AS c",
    "MATCH (a)-[r:S]->() WHERE r.w IN [0, 2.0, null] RETURN count(*) AS c",
    # ... unicode strings, stored nulls and list values
    "MATCH (n) WHERE n.u IN ['日本', '🎈', ''] RETURN count(*) AS c",
    "MATCH (n:B) WHERE n.nil IS NULL AND n.u = 'naïve' "
    "RETURN count(*) AS c",
    "MATCH (n) WHERE n.nil IS NOT NULL RETURN count(*) AS c",
    "MATCH (n) WHERE n.l = [1, 2] RETURN count(*) AS c",
    "MATCH (n:A) WHERE n.l IN [[1, 2], [], ['å']] RETURN count(*) AS c",
    "MATCH (n) WHERE n.l = [1, null] RETURN count(*) AS c",
    "MATCH (a {l: [true, 2]})-[:R]->(b) RETURN count(*) AS c",
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


def mutated(spec) -> PropertyGraph:
    """The graph of ``spec`` after added, changed and removed nodes and
    edges, layered onto its compiled snapshot (dead ids included)."""
    graph = build_rich(spec)
    graph.columnar()                      # compile, so mutations go incremental
    nodes, edges = spec
    first_id = nodes[0][0]
    graph.update_node(first_id, {"p": 99, "u": "après"})
    graph.add_node("extra", "A", {"p": 1})
    graph.add_edge("extra_e", "R", first_id, "extra", {"w": 2})
    if edges:
        graph.remove_edge(edges[0][0])
    if len(nodes) > 1:
        graph.remove_node(nodes[-1][0])    # and its edges
    snapshot = graph.columnar()
    assert snapshot.origin in ("incremental", "full")
    return graph


@given(spec=rich_graphs(), query_index=st.integers(0, len(ALL_QUERIES) - 1))
@settings(max_examples=80, deadline=None)
def test_columnar_equals_legacy_after_mutation(spec, query_index):
    """Incremental snapshot updates keep the columnar path equivalent."""
    _agree(mutated(spec), ALL_QUERIES[query_index])


#: every count statement of the corpus, most of them counted without rows
COUNT_QUERIES = tuple(
    text for text in ALL_QUERIES if text.endswith("RETURN count(*) AS c")
)


@given(spec=rich_graphs())
@settings(max_examples=40, deadline=None)
def test_counts_after_mutation_equal_reference(spec):
    """Live totals and seed walks skip the overlay's dead ids and see its
    added nodes and edges, for every count statement on one graph."""
    graph = mutated(spec)
    for text in COUNT_QUERIES:
        _agree(graph, text)


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


# ----------------------------------------------------------------------
# random mutation batches: counts carried by views, snapshot isolation
# ----------------------------------------------------------------------
_NAN = float("nan")
#: node property values a batch writes: stored nulls, NaN, numbers that
#: Python hashes alike but Cypher tells apart, unicode, lists
_NODE_VALUES = (None, _NAN, 0, 1, 1.0, True, "å", "日本", "", [1, 2],
                [True, 2], [], [_NAN])
_EDGE_VALUES = (None, _NAN, 0, 1, 2, 1.0, 2.0, [1])
_NODE_KEYS = ("p", "q", "u", "nil", "l")

#: the count corpus, plus hops whose node tests only move with the
#: edges around a node whose properties changed
CARRY_QUERIES = COUNT_QUERIES + (
    "MATCH (a)-[:R]->(b) WHERE b.p = 1 RETURN count(*) AS c",
    "MATCH (a)-[:R]->(b) WHERE a.p IS NULL RETURN count(*) AS c",
    "MATCH (a:A)-[r:S]->(b) WHERE a.u IS NOT NULL RETURN count(*) AS c",
    "MATCH (a)<-[:S]-(b) WHERE a.u IS NOT NULL AND b.q IS NULL "
    "RETURN count(*) AS c",
    "MATCH (a)<-[r:R]-(b:B) WHERE a.q = true AND r.w IS NULL "
    "RETURN count(*) AS c",
)


def _random_write(data, graph, serial) -> None:
    """One random mutation of ``graph``, drawn against its contents."""
    nodes = [node.id for node in graph.nodes()]
    edges = [edge.id for edge in graph.edges()]
    kinds = ["add_node"]
    if nodes:
        kinds += ["set_node", "unset_node", "remove_node", "add_edge"]
    if edges:
        kinds += ["remove_edge", "set_edge"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "add_node":
        keys = data.draw(st.lists(st.sampled_from(_NODE_KEYS), unique=True))
        graph.add_node(
            f"m{next(serial)}", data.draw(st.sampled_from(_LABEL_SETS)),
            {key: data.draw(st.sampled_from(_NODE_VALUES)) for key in keys},
        )
    elif kind == "set_node":
        graph.update_node(data.draw(st.sampled_from(nodes)), {
            data.draw(st.sampled_from(_NODE_KEYS)):
                data.draw(st.sampled_from(_NODE_VALUES)),
        })
    elif kind == "unset_node":
        graph.remove_node_property(
            data.draw(st.sampled_from(nodes)),
            data.draw(st.sampled_from(_NODE_KEYS)),
        )
    elif kind == "remove_node":
        graph.remove_node(data.draw(st.sampled_from(nodes)))
    elif kind == "add_edge":
        properties = {}
        if data.draw(st.booleans()):
            properties["w"] = data.draw(st.sampled_from(_EDGE_VALUES))
        graph.add_edge(
            f"f{next(serial)}", data.draw(st.sampled_from(["R", "S"])),
            data.draw(st.sampled_from(nodes)),
            data.draw(st.sampled_from(nodes)), properties,
        )
    elif kind == "remove_edge":
        graph.remove_edge(data.draw(st.sampled_from(edges)))
    else:
        graph.update_edge(data.draw(st.sampled_from(edges)), {
            "w": data.draw(st.sampled_from(_EDGE_VALUES)),
        })


def _random_batch(data, graph, serial, *, overflow=False, probe=None):
    with graph.batch():
        for _ in range(data.draw(st.integers(1, 5))):
            _random_write(data, graph, serial)
        if probe is not None:
            _agree(graph, probe)              # on a mid-batch snapshot
        if overflow:
            # more compacted deltas than the overlay budget (64 here):
            # the next snapshot is a full recompile, with no views
            for index in range(70):
                graph.add_node(f"bulk{next(serial)}", "A", {"p": index % 3})


@pytest.mark.parametrize("view_size", [matcher.COUNT_VIEW_SIZE, 2])
@given(spec=rich_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_carried_counts_equal_reference(view_size, spec, data):
    """Every count statement equals the reference after every random
    batch, whether its view was carried, evicted, skipped for a few
    epochs or dropped by a recompile or a mid-batch snapshot."""
    collector = obs.install()
    try:
        with mock.patch.object(matcher, "COUNT_VIEW_SIZE", view_size):
            graph = build_rich(spec)
            for text in CARRY_QUERIES:
                _agree(graph, text)
            serial = itertools.count()
            batches = data.draw(st.integers(1, 4))
            overflow = data.draw(st.integers(0, batches))
            for number in range(1, batches + 1):
                _random_batch(
                    data, graph, serial, overflow=1 < number == overflow,
                    probe=data.draw(st.none() | st.sampled_from(
                        CARRY_QUERIES
                    )),
                )
                if number > 1 and data.draw(st.booleans()):
                    graph.columnar()          # derived, nothing counted
                    _random_batch(data, graph, serial)
                order = data.draw(st.permutations(CARRY_QUERIES))
                for text in order:
                    # every statement on the first batch; some skipped
                    # on later ones, so their views ride several batches
                    if number > 1 and data.draw(st.booleans()):
                        continue
                    _agree(graph, text)
                assert len(graph.columnar().count_views) <= view_size
        if view_size == matcher.COUNT_VIEW_SIZE:
            # the first batch is incremental, and every statement counted
            # once per snapshot: only a carried view can answer
            counted = collector.metrics.counter("cypher.counted")
            assert counted.value(how="view") > 0
    finally:
        obs.uninstall()


def _containers(snapshot) -> dict:
    """A deep copy of every container of ``snapshot`` but the fields its
    readers write (the link, sketches and count views)."""
    state = {}
    for name in ColumnarGraph.__slots__:
        if name in ("link", "sketches", "count_views"):
            continue
        value = getattr(snapshot, name)
        if isinstance(value, _Adjacency):
            value = {slot: getattr(value, slot) for slot in value.__slots__}
        state[name] = copy.deepcopy(value)
    return state


@given(spec=rich_graphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_deriving_a_snapshot_leaves_its_parent_unchanged(spec, data):
    """The parent is itself incremental (so it has overlay rows, dead ids
    and moved index entries to share), reads exactly as before after a
    child is derived, and the child matches the store and a fresh
    compile, value indexes included."""
    graph = build_rich(spec)
    graph.columnar()
    serial = itertools.count()
    _random_batch(data, graph, serial)
    parent = graph.columnar()
    before = _containers(parent)
    _random_batch(data, graph, serial)
    child = graph.columnar()
    assert child is not parent
    assert child.origin == "incremental"
    assert _containers(parent) == before
    assert parent.link is None
    assert child.link[0] is parent
    assert_snapshot_matches_store(child, graph)
