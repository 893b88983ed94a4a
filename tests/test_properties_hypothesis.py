"""Property-based tests (hypothesis) for core invariants."""

import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import StaticAnalyzer, Verdict, canonical_signature
from repro.cypher import CypherSyntaxError, execute, parse, render_query, tokenize
from repro.cypher.tokens import KEYWORDS
from repro.cypher.executor import _canonical, _sort_key
from repro.encoding import (
    SlidingWindowChunker,
    Statement,
    count_tokens,
    split_tokens,
    token_spans,
)
from repro.graph import PropertyGraph
from repro.metrics import RuleMetrics
from repro.rag import HashedEmbedder
from repro.rules import (
    ConsistencyRule,
    RuleKind,
    from_natural_language,
    to_natural_language,
)
from tests import reference_tokenizer

# ----------------------------------------------------------------------
# identifier strategies
# ----------------------------------------------------------------------
identifiers = st.text(
    alphabet=string.ascii_letters, min_size=1, max_size=12
).filter(lambda s: s.upper() not in KEYWORDS)


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------
@given(st.text(max_size=300))
def test_token_spans_align_with_split(text):
    spans = token_spans(text)
    tokens = split_tokens(text)
    assert spans == reference_tokenizer.token_spans(text)
    assert tokens == reference_tokenizer.split_tokens(text)
    assert [text[a:b] for a, b in spans] == tokens


@given(st.text(max_size=300))
def test_count_tokens_non_negative_and_consistent(text):
    assert count_tokens(text) == reference_tokenizer.count_tokens(text) >= 0


# ----------------------------------------------------------------------
# lexer totality
# ----------------------------------------------------------------------
@given(st.text(max_size=120))
def test_lexer_total_or_syntax_error(text):
    try:
        tokens = tokenize(text)
    except CypherSyntaxError:
        return
    assert tokens[-1].type.name == "EOF"


# ----------------------------------------------------------------------
# parse/render fixpoint on generated queries
# ----------------------------------------------------------------------
@st.composite
def simple_queries(draw):
    var = draw(identifiers)
    label = draw(identifiers)
    prop = draw(identifiers)
    rel = draw(identifiers)
    direction = draw(st.sampled_from(["->", "-"]))
    value = draw(st.integers(min_value=-100, max_value=100))
    parts = [f"MATCH ({var}:{label})"]
    if draw(st.booleans()):
        parts[0] += f"-[:{rel}]{direction}({draw(identifiers)})"
    if draw(st.booleans()):
        parts.append(f"WHERE {var}.{prop} > {value}")
    if draw(st.booleans()):
        parts.append(f"RETURN count(*) AS {draw(identifiers)}")
    else:
        parts.append(f"RETURN {var}.{prop} AS out")
    return " ".join(parts)


@given(simple_queries())
@settings(max_examples=60)
def test_parse_render_fixpoint(query_text):
    ast1 = parse(query_text)
    ast2 = parse(render_query(ast1))
    assert ast1 == ast2


# ----------------------------------------------------------------------
# sliding windows
# ----------------------------------------------------------------------
@st.composite
def statement_lists(draw):
    count = draw(st.integers(min_value=1, max_value=40))
    statements = []
    for index in range(count):
        words = draw(st.integers(min_value=1, max_value=20))
        text = " ".join(f"w{index}x{j}" for j in range(words))
        statements.append(
            Statement(kind="node", text=text, subject_id=f"s{index}")
        )
    return statements


@given(
    statement_lists(),
    st.integers(min_value=8, max_value=120),
    st.integers(min_value=0, max_value=7),
)
@settings(max_examples=50)
def test_window_invariants(statements, window_size, overlap):
    chunker = SlidingWindowChunker(window_size=window_size, overlap=overlap)
    windows = chunker.chunk_statements(statements)

    # every token index covered exactly by the union of windows
    covered = set()
    for window in windows.windows:
        assert window.token_count <= window_size
        covered.update(range(window.start_token, window.end_token))
    assert covered == set(range(windows.total_tokens))

    # consecutive windows advance by exactly step
    step = window_size - overlap
    for first, second in zip(windows.windows, windows.windows[1:]):
        assert second.start_token - first.start_token == step


@given(statement_lists())
@settings(max_examples=30)
def test_windows_with_big_overlap_never_break_statements(statements):
    longest = max(count_tokens(s.text) for s in statements)
    chunker = SlidingWindowChunker(
        window_size=max(4 * longest, 16), overlap=longest
    )
    windows = chunker.chunk_statements(statements)
    assert windows.broken_statement_count == 0


# ----------------------------------------------------------------------
# NL round trip
# ----------------------------------------------------------------------
@given(identifiers, identifiers, identifiers)
@settings(max_examples=50)
def test_nl_round_trip_random_names(label, prop, edge):
    for rule in (
        ConsistencyRule(RuleKind.PROPERTY_EXISTS, "", label=label,
                        properties=(prop,)),
        ConsistencyRule(RuleKind.UNIQUENESS, "", label=label,
                        properties=(prop,)),
        ConsistencyRule(RuleKind.ENDPOINT, "", edge_label=edge,
                        src_label=label, dst_label=label),
        ConsistencyRule(RuleKind.NO_SELF_LOOP, "", label=label,
                        edge_label=edge),
    ):
        sentence = to_natural_language(rule)
        parsed = from_natural_language(sentence)
        assert parsed is not None
        assert parsed.kind == rule.kind
        assert parsed.label == rule.label
        assert parsed.properties == rule.properties
        assert parsed.edge_label == rule.edge_label


# ----------------------------------------------------------------------
# metrics bounds
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
def test_metric_bounds(support, relevant, body):
    metrics = RuleMetrics(support=support, relevant=relevant, body=body)
    assert 0.0 <= metrics.coverage <= 100.0
    assert 0.0 <= metrics.confidence <= 100.0


# ----------------------------------------------------------------------
# embeddings
# ----------------------------------------------------------------------
@given(st.text(max_size=200))
@settings(max_examples=50)
def test_embedding_unit_norm_or_zero(text):
    vector = HashedEmbedder(dimension=64).embed(text)
    norm = float(np.linalg.norm(vector))
    assert norm == 0.0 or abs(norm - 1.0) < 1e-9


@given(st.text(max_size=100))
def test_embedding_deterministic(text):
    a = HashedEmbedder(dimension=32).embed(text)
    b = HashedEmbedder(dimension=32).embed(text)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# sort keys form a usable total preorder over mixed values
# ----------------------------------------------------------------------
mixed_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=5),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    lambda children: st.lists(children, max_size=3),
    max_leaves=5,
)


@given(st.lists(mixed_values, max_size=12))
@settings(max_examples=60)
def test_sort_key_sorts_mixed_values(values):
    ordered = sorted(values, key=_sort_key)
    assert len(ordered) == len(values)
    # None always sorts to the end
    if None in values:
        tail = ordered[ordered.index(None):]
        assert all(item is None for item in tail)


@given(st.lists(mixed_values, max_size=10))
@settings(max_examples=60)
def test_canonical_is_hashable(values):
    keys = {_canonical(value) for value in values}
    assert len(keys) <= len(values)


# ----------------------------------------------------------------------
# store invariants under random build sequences
# ----------------------------------------------------------------------
@st.composite
def graph_builds(draw):
    node_count = draw(st.integers(min_value=1, max_value=12))
    edges = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=node_count - 1),
            st.integers(min_value=0, max_value=node_count - 1),
        ),
        max_size=20,
    ))
    return node_count, edges


# ----------------------------------------------------------------------
# analyzer soundness: UNSAT verdict ⇒ zero rows on the executor
# ----------------------------------------------------------------------
@st.composite
def property_graphs(draw):
    """Small graphs with integer/string properties on two labels."""
    graph = PropertyGraph()
    node_count = draw(st.integers(min_value=1, max_value=8))
    for index in range(node_count):
        label = draw(st.sampled_from(["A", "B"]))
        graph.add_node(f"n{index}", label, {
            "x": draw(st.integers(min_value=-10, max_value=10)),
            "name": draw(st.sampled_from(["p", "q", "r"])),
        })
    for number in range(draw(st.integers(min_value=0, max_value=10))):
        src = draw(st.integers(min_value=0, max_value=node_count - 1))
        dst = draw(st.integers(min_value=0, max_value=node_count - 1))
        graph.add_edge(f"e{number}", "R", f"n{src}", f"n{dst}")
    return graph


@st.composite
def conjunctive_predicates(draw):
    """Random conjunctions over a.x / a.name — some satisfiable, some not."""
    comparisons = st.sampled_from(["<", "<=", ">", ">=", "=", "<>"])
    conjuncts = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["int", "str", "null", "in"]))
        if kind == "int":
            op = draw(comparisons)
            value = draw(st.integers(min_value=-12, max_value=12))
            conjuncts.append(f"a.x {op} {value}")
        elif kind == "str":
            op = draw(st.sampled_from(["=", "<>", "STARTS WITH"]))
            value = draw(st.sampled_from(["p", "q", "r", "zz"]))
            conjuncts.append(f"a.name {op} '{value}'")
        elif kind == "null":
            form = draw(st.sampled_from(["IS NULL", "IS NOT NULL"]))
            subject = draw(st.sampled_from(["a.x", "a.name"]))
            conjuncts.append(f"{subject} {form}")
        else:
            values = draw(st.lists(
                st.integers(min_value=-12, max_value=12),
                min_size=1, max_size=3,
            ))
            rendered = ", ".join(str(v) for v in values)
            conjuncts.append(f"a.x IN [{rendered}]")
    return " AND ".join(conjuncts)


@given(property_graphs(), conjunctive_predicates())
@settings(max_examples=120)
def test_unsat_verdict_implies_zero_rows(graph, predicate):
    """The triage contract: UNSAT means the executor finds nothing."""
    query = f"MATCH (a) WHERE {predicate} RETURN a.x AS out"
    report = StaticAnalyzer().analyze(query)
    if report.verdict is not Verdict.UNSAT:
        return
    assert execute(graph, query).rows == []


@given(property_graphs(), conjunctive_predicates())
@settings(max_examples=60)
def test_unsat_verdict_implies_zero_count(graph, predicate):
    """Aggregate form: the satisfy-style count is exactly zero."""
    query = f"MATCH (a) WHERE {predicate} RETURN count(a) AS c"
    report = StaticAnalyzer().analyze(query)
    if report.verdict is not Verdict.UNSAT:
        return
    assert execute(graph, query).scalar() == 0


@given(st.lists(identifiers, min_size=3, max_size=3, unique=True))
@settings(max_examples=60)
def test_canonical_signature_alpha_invariant(names):
    """Any choice of variable names yields the same semantic signature."""
    a, r, b = names
    renamed = parse(
        f"MATCH ({a}:L)-[{r}:T]->({b}:M) "
        f"WHERE {a}.x > 3 AND {b}.y = 'v' RETURN count(*) AS c"
    )
    baseline = parse(
        "MATCH (p:L)-[s:T]->(q:M) "
        "WHERE p.x > 3 AND q.y = 'v' RETURN count(*) AS c"
    )
    assert canonical_signature(renamed) == canonical_signature(baseline)


@given(simple_queries())
@settings(max_examples=60)
def test_canonical_signature_stable_across_render(query_text):
    """Parse → render → parse must not change the signature."""
    ast1 = parse(query_text)
    ast2 = parse(render_query(ast1))
    assert canonical_signature(ast1) == canonical_signature(ast2)


@given(graph_builds())
@settings(max_examples=50)
def test_store_degree_sums_to_twice_edges(build):
    node_count, edges = build
    graph = PropertyGraph()
    for index in range(node_count):
        graph.add_node(f"n{index}", "N")
    for number, (src, dst) in enumerate(edges):
        graph.add_edge(f"e{number}", "R", f"n{src}", f"n{dst}")
    total_degree = sum(graph.degree(n.id) for n in graph.nodes())
    # each edge contributes 2 to the degree sum, except self-loops,
    # which are one incident edge and contribute 1
    self_loops = sum(1 for edge in graph.edges() if edge.src == edge.dst)
    assert total_degree == 2 * graph.edge_count() - self_loops
    # removing all edges brings degrees to zero
    for edge in list(graph.edges()):
        graph.remove_edge(edge.id)
    assert all(graph.degree(n.id) == 0 for n in graph.nodes())
