"""Property-based equivalence: incremental maintenance under random
graphs and random mutation batches is value-identical to a from-scratch
recompute — the maintainer's core guarantee (per-rule exact metrics) —
including when the store's bounded change log drops history that a
reader still needed."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correction.corrector import CorrectionOutcome
from repro.graph import PropertyGraph, store
from repro.graph.errors import GraphError
from repro.metrics.definitions import RuleMetrics
from repro.mining.result import MiningRun, RuleResult
from repro.rules.model import ConsistencyRule, RuleKind
from repro.rules.translator import MetricQueries
from repro.stream import IncrementalMaintainer
from tests.test_graph_columnar import assert_snapshot_matches_store

LABELS = ("User", "Tweet", "Item")
EDGE_TYPES = ("FOLLOWS", "POSTS", "LIKES")
PROP_KEYS = ("name", "text", "score")


# ----------------------------------------------------------------------
# a fixed rule pool spanning the footprint shapes
# ----------------------------------------------------------------------
def bundle(satisfy: str, relevant: str, body: str) -> MetricQueries:
    return MetricQueries(
        check=satisfy, relevant=relevant, body=body, satisfy=satisfy,
    )


RULE_POOL = [
    ("user name", bundle(
        "MATCH (u:User) WHERE u.name IS NOT NULL RETURN count(u)",
        "MATCH (u:User) RETURN count(u)",
        "MATCH (u:User) RETURN count(u)",
    )),
    ("tweet text", bundle(
        "MATCH (t:Tweet) WHERE t.text IS NOT NULL RETURN count(t)",
        "MATCH (t:Tweet) RETURN count(t)",
        "MATCH (t:Tweet) RETURN count(t)",
    )),
    ("item score", bundle(
        "MATCH (i:Item) WHERE i.score IS NOT NULL RETURN count(i)",
        "MATCH (i:Item) RETURN count(i)",
        "MATCH (i:Item) RETURN count(i)",
    )),
    ("follows shape", bundle(
        "MATCH (:User)-[f:FOLLOWS]->(:User) RETURN count(f)",
        "MATCH ()-[f:FOLLOWS]->() RETURN count(f)",
        "MATCH ()-[f:FOLLOWS]->() RETURN count(f)",
    )),
    ("posts shape", bundle(
        "MATCH (:User)-[p:POSTS]->(:Tweet) RETURN count(p)",
        "MATCH ()-[p:POSTS]->() RETURN count(p)",
        "MATCH ()-[p:POSTS]->() RETURN count(p)",
    )),
    ("any node", bundle(
        "MATCH (n) RETURN count(n)",
        "MATCH (n) RETURN count(n)",
        "MATCH (n) RETURN count(n)",
    )),
    ("any edge", bundle(
        "MATCH ()-[r]->() RETURN count(r)",
        "MATCH ()-[r]->() RETURN count(r)",
        "MATCH ()-[r]->() RETURN count(r)",
    )),
    ("unparsable", bundle(
        "THIS IS NOT CYPHER", "NOR IS THIS", "STILL NOT CYPHER",
    )),
    ("untranslatable", None),
]


def make_run() -> MiningRun:
    results = []
    for text, queries in RULE_POOL:
        rule = ConsistencyRule(kind=RuleKind.PATTERN, text=text)
        results.append(RuleResult(
            rule=rule,
            outcome=CorrectionOutcome(
                rule=rule, generated_query="", final_query="",
                classification=None, corrected=False,
                left_uncorrected=False, metric_queries=queries,
            ),
            metrics=RuleMetrics(support=0, relevant=0, body=0),
        ))
    return MiningRun(
        dataset="prop", model="llama3", method="sliding_window",
        prompt_mode="zero_shot", results=results,
    )


# ----------------------------------------------------------------------
# graph and mutation strategies
# ----------------------------------------------------------------------
node_specs = st.lists(
    st.tuples(
        st.sampled_from(LABELS),
        st.dictionaries(
            st.sampled_from(PROP_KEYS),
            st.integers(min_value=0, max_value=9),
            max_size=2,
        ),
    ),
    min_size=1, max_size=8,
)

edge_specs = st.lists(
    st.tuples(
        st.sampled_from(EDGE_TYPES),
        st.integers(min_value=0, max_value=7),   # src index (mod nodes)
        st.integers(min_value=0, max_value=7),   # dst index (mod nodes)
    ),
    max_size=10,
)

# ops are interpreted against the live graph, so indexes are taken
# modulo the current population — every generated op is applicable
mutation_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add_node"), st.sampled_from(LABELS),
            st.dictionaries(
                st.sampled_from(PROP_KEYS),
                st.integers(min_value=0, max_value=9), max_size=2,
            ),
        ),
        st.tuples(st.just("remove_node"), st.integers(0, 30)),
        st.tuples(
            st.just("add_edge"), st.sampled_from(EDGE_TYPES),
            st.integers(0, 30), st.integers(0, 30),
        ),
        st.tuples(st.just("remove_edge"), st.integers(0, 30)),
        st.tuples(
            st.just("set_prop"), st.integers(0, 30),
            st.sampled_from(PROP_KEYS), st.integers(0, 9),
        ),
        st.tuples(
            st.just("del_prop"), st.integers(0, 30),
            st.sampled_from(PROP_KEYS),
        ),
    ),
    min_size=1, max_size=8,
)


def build_graph(nodes, edges) -> PropertyGraph:
    graph = PropertyGraph("prop")
    for index, (label, props) in enumerate(nodes):
        graph.add_node(f"n{index}", label, dict(props))
    node_ids = [node.id for node in graph.nodes()]
    for index, (edge_type, src, dst) in enumerate(edges):
        graph.add_edge(
            f"e{index}", edge_type,
            node_ids[src % len(node_ids)], node_ids[dst % len(node_ids)],
        )
    return graph


def apply_ops(graph: PropertyGraph, ops, tag: str = "") -> int:
    """Apply ``ops``, naming new elements with ``tag``; returns how many
    deltas they made (a removed node makes one per incident edge, then
    its own)."""
    counter = [0]
    deltas = 0

    def pick(population, index):
        items = list(population)
        return items[index % len(items)] if items else None

    for op in ops:
        if op[0] == "add_node":
            counter[0] += 1
            graph.add_node(f"m{tag}{counter[0]}", op[1], dict(op[2]))
            deltas += 1
        elif op[0] == "remove_node":
            victim = pick(graph.nodes(), op[1])
            if victim is not None:
                deltas += graph.degree(victim.id) + 1
                graph.remove_node(victim.id)
        elif op[0] == "add_edge":
            src = pick(graph.nodes(), op[2])
            dst = pick(graph.nodes(), op[3])
            if src is not None and dst is not None:
                counter[0] += 1
                graph.add_edge(f"me{tag}{counter[0]}", op[1], src.id, dst.id)
                deltas += 1
        elif op[0] == "remove_edge":
            victim = pick(graph.edges(), op[1])
            if victim is not None:
                graph.remove_edge(victim.id)
                deltas += 1
        elif op[0] == "set_prop":
            target = pick(graph.nodes(), op[1])
            if target is not None:
                graph.update_node(target.id, {op[2]: op[3]})
                deltas += 1
        else:  # del_prop
            target = pick(graph.nodes(), op[1])
            if target is not None and op[2] in target.properties:
                graph.remove_node_property(target.id, op[2])
                deltas += 1
    return deltas


def assert_equivalent(maintainer: IncrementalMaintainer) -> None:
    maintained = [result.metrics for result in maintainer.run.results]
    fresh = maintainer.recompute()
    for index, (kept, truth) in enumerate(zip(maintained, fresh)):
        assert kept == truth, (
            f"rule {index} ({maintainer.run.results[index].rule.text!r}): "
            f"maintained {kept} != recomputed {truth}"
        )


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(nodes=node_specs, edges=edge_specs, ops=mutation_ops)
def test_incremental_maintenance_equals_full_recompute(nodes, edges, ops):
    graph = build_graph(nodes, edges)
    run = make_run()
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics

    since = graph.epoch
    apply_ops(graph, ops)
    report = maintainer.apply(graph.changes_since(since))
    assert not report.full_fallback
    assert_equivalent(maintainer)


@settings(max_examples=25, deadline=None)
@given(nodes=node_specs, edges=edge_specs, ops=mutation_ops)
def test_equivalence_holds_for_batched_mutations(nodes, edges, ops):
    graph = build_graph(nodes, edges)
    run = make_run()
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics

    since = graph.epoch
    with graph.batch():
        apply_ops(graph, ops)
    report = maintainer.apply(graph.changes_since(since))
    assert not report.full_fallback
    assert_equivalent(maintainer)


@settings(max_examples=25, deadline=None)
@given(nodes=node_specs, edges=edge_specs, ops=mutation_ops)
def test_equivalence_survives_ring_buffer_overflow(nodes, edges, ops):
    graph = build_graph(nodes, edges)
    run = make_run()
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics

    since = graph.epoch
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "CHANGE_LOG_SIZE", 2)
        made = apply_ops(graph, ops)
        report = maintainer.apply(graph.changes_since(since))
    assert report.full_fallback == (made > 2)
    assert_equivalent(maintainer)


@settings(max_examples=25, deadline=None)
@given(nodes=node_specs, edges=edge_specs, ops=mutation_ops)
def test_successive_batches_stay_equivalent(nodes, edges, ops):
    graph = build_graph(nodes, edges)
    run = make_run()
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics

    half = max(1, len(ops) // 2)
    for chunk in (ops[:half], ops[half:]):
        since = graph.epoch
        try:
            apply_ops(graph, chunk)
        except GraphError:  # an op invalidated by the previous chunk
            pass
        report = maintainer.apply(graph.changes_since(since))
        assert not report.full_fallback
        assert_equivalent(maintainer)


@settings(max_examples=25, deadline=None)
@given(
    nodes=node_specs, edges=edge_specs,
    batches=st.lists(mutation_ops, min_size=1, max_size=6),
    every=st.integers(min_value=1, max_value=3),
    bound=st.integers(min_value=1, max_value=12),
)
def test_two_readers_share_one_bounded_log(nodes, edges, batches, every, bound):
    """The CSR reads the graph's one change log after every batch, the
    maintainer every ``every`` batches; a read answers None exactly when
    more deltas than the bound arrived since that reader's epoch."""
    graph = build_graph(nodes, edges)
    run = make_run()
    maintainer = IncrementalMaintainer(run, graph)
    for index, metrics in enumerate(maintainer.recompute()):
        run.results[index].metrics = metrics

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "CHANGE_LOG_SIZE", bound)
        maintained, behind = graph.epoch, 0
        for number, ops in enumerate(batches, start=1):
            compiled = graph.columnar().epoch
            with graph.batch():
                made = apply_ops(graph, ops, tag=f"b{number}-")
            behind += made
            lost = graph.changes_since(compiled) is None
            assert lost == (made > bound)
            snapshot = graph.columnar()
            assert_snapshot_matches_store(snapshot, graph)
            if lost:
                assert snapshot.origin == "full"
            if number % every == 0 or number == len(batches):
                deltas = graph.changes_since(maintained)
                assert (deltas is None) == (behind > bound)
                report = maintainer.apply(deltas)
                assert report.full_fallback == (deltas is None)
                assert_equivalent(maintainer)
                maintained, behind = graph.epoch, 0
