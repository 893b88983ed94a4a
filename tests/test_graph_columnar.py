"""Unit tests for the columnar CSR graph core.

Covers compilation parity against the object store, epoch caching,
incremental maintenance from the change log (including the full
recompile when the delta budget is blown or the log lost history),
catalog derivation (checked against a plain rescan kept here), the O(1)
``order()``/``size()`` accessors, the matcher counters of the CSR walk
and EXPLAIN over a variable-length clause.
"""

from collections import Counter, defaultdict

import pytest

from repro import obs
from repro.cypher import Executor, execute, explain, parse
from repro.graph import PropertyGraph, compile_graph, store
from repro.graph.statistics import (
    MCV_WIDTH,
    EdgeLabelStats,
    GraphCatalog,
    PropertySketch,
)
from repro.graph.store import property_index_key


def sample_graph() -> PropertyGraph:
    graph = PropertyGraph("csr-sample")
    graph.add_node("a", "User", {"id": 1, "name": "alice"})
    graph.add_node("b", "User", {"id": 2, "name": "bob"})
    graph.add_node("c", ("User", "Admin"), {"id": 3})
    graph.add_node("t", "Tweet", {"id": 10, "text": "héllo", "nil": None})
    graph.add_edge("e1", "POSTS", "a", "t")
    graph.add_edge("e2", "FOLLOWS", "a", "b", {"since": 2020})
    graph.add_edge("e3", "FOLLOWS", "b", "a")
    graph.add_edge("e4", "FOLLOWS", "a", "c")
    graph.add_edge("loop", "FOLLOWS", "c", "c")   # self-loop
    return graph


@pytest.fixture()
def collector():
    installed = obs.install()
    yield installed
    obs.uninstall()


def counter(collector, name: str) -> float:
    return collector.metrics.counter(name).value()


def rescan_catalog(graph) -> GraphCatalog:
    """The planner catalog rebuilt by one pass over the store's objects,
    the independent side of the catalog comparisons below."""
    value_counts: dict = defaultdict(Counter)
    for node in graph.nodes():
        for key, value in node.properties.items():
            index_key = property_index_key(value)
            if index_key is None:
                continue
            for label in node.labels:
                value_counts[(label, key)][index_key] += 1
    sources: dict = defaultdict(set)
    targets: dict = defaultdict(set)
    for edge in graph.edges():
        sources[edge.label].add(edge.src)
        targets[edge.label].add(edge.dst)
    return GraphCatalog(
        node_count=graph.node_count(),
        edge_count=graph.edge_count(),
        label_counts={
            label: graph.node_count(label) for label in graph.node_labels()
        },
        property_sketches={
            pair: PropertySketch(
                present=sum(counts.values()),
                distinct=len(counts),
                top=tuple(counts.most_common(MCV_WIDTH)),
            )
            for pair, counts in value_counts.items()
        },
        edge_stats={
            label: EdgeLabelStats(
                count=graph.edge_count(label),
                distinct_src=len(sources[label]),
                distinct_dst=len(targets[label]),
            )
            for label in sources
        },
    )


def assert_snapshot_matches_store(snapshot, graph) -> None:
    """Adjacency, labels, properties and indexes agree with the store."""
    assert snapshot.node_count() == graph.order()
    assert snapshot.edge_count() == graph.size()
    for node in graph.nodes():
        nid = snapshot.node_int(node.id)
        assert snapshot.node_objs[nid] is node
        for direction, walker in ((True, graph.out_edges),
                                  (False, graph.in_edges)):
            expected = [edge.id for edge in walker(node.id)]
            got = [
                snapshot.edge_objs[eid].id
                for eid, _ in snapshot.adjacency(nid, None, direction)
            ]
            assert got == expected
            for etype in graph.edge_labels():
                code = snapshot.single_type_code(etype)
                typed = [
                    snapshot.edge_objs[eid].id
                    for eid, _ in snapshot.adjacency(nid, code, direction)
                ]
                assert typed == [e.id for e in walker(node.id, etype)]
    for label in graph.node_labels():
        got = {snapshot.node_objs[nid].id
               for nid in snapshot.label_candidates(label)}
        assert got == {node.id for node in graph.nodes(label)}
    assert _counters_by_name(snapshot) == _counters_by_name(
        compile_graph(graph)
    )


def _counters_by_name(snapshot) -> dict:
    """Value indexes, pair counts, label sizes and edge-type counters,
    keyed by label, key and type names and listing nodes by id, so an
    incremental snapshot compares with a fresh compile whose dense ids
    differ.  Each value index must also be sorted by (index key, dense
    id), as compiled."""
    labels, pkeys, etypes = snapshot.labels, snapshot.pkeys, snapshot.etypes
    node_ids = snapshot.node_ids
    indexes = {}
    for (lc, kc), (keys, nids) in snapshot.sorted_index.items():
        entries = list(zip(keys, nids))
        assert entries == sorted(entries)
        indexes[(labels[lc], pkeys[kc])] = sorted(
            (key, node_ids[nid]) for key, nid in entries
        )
    return {
        "sorted_index": indexes,
        "pair_counts": {
            (labels[lc], pkeys[kc]): dict(counts)
            for (lc, kc), counts in snapshot.pair_counts.items()
        },
        "label_sizes": {
            labels[lc]: size
            for lc, size in snapshot.label_sizes.items() if size
        },
        "etype_counts": {
            etypes[tc]: count
            for tc, count in snapshot.etype_counts.items() if count
        },
        "etype_src": {
            etypes[tc]: dict(counts)
            for tc, counts in snapshot.etype_src.items() if counts
        },
        "etype_dst": {
            etypes[tc]: dict(counts)
            for tc, counts in snapshot.etype_dst.items() if counts
        },
    }


class TestCompile:
    def test_compile_parity(self):
        graph = sample_graph()
        assert_snapshot_matches_store(graph.columnar(), graph)

    def test_property_columns(self):
        graph = sample_graph()
        snapshot = graph.columnar()
        nid = snapshot.node_int("t")
        assert snapshot.column("text")[nid] == "héllo"
        assert snapshot.column("nil")[nid] is None
        assert snapshot.column("missing") == ()
        eid = snapshot.edge_index["e2"]
        assert snapshot.column("since", edges=True)[eid] == 2020

    def test_index_candidates_match_a_node_scan(self):
        from repro.graph.store import property_index_key

        graph = sample_graph()
        snapshot = graph.columnar()
        got = {
            snapshot.node_objs[nid].id
            for nid in snapshot.index_candidates(
                "User", "id", property_index_key(2)
            )
        }
        assert got == {
            n.id for n in graph.nodes("User") if n.properties.get("id") == 2
        }
        assert got                             # the scan found something

    def test_epoch_caching(self):
        graph = sample_graph()
        first = graph.columnar()
        assert graph.columnar() is first          # same epoch, cached
        graph.update_node("a", {"name": "alicia"})
        second = graph.columnar()
        assert second is not first
        assert graph.columnar() is second

    def test_empty_graph_compiles(self):
        graph = PropertyGraph("empty")
        snapshot = graph.columnar()
        assert snapshot.node_count() == 0
        assert snapshot.edge_count() == 0


class TestIncremental:
    def test_small_delta_goes_incremental(self, collector):
        graph = sample_graph()
        graph.columnar()
        graph.add_node("d", "User", {"id": 4})
        graph.add_edge("e5", "FOLLOWS", "d", "a")
        graph.update_node("b", {"name": "bobby"})
        graph.remove_edge("e3")
        snapshot = graph.columnar()
        assert snapshot.origin == "incremental"
        assert counter(collector, "graph.csr.incremental_updates") == 1
        assert_snapshot_matches_store(snapshot, graph)

    def test_incremental_queries_match_fresh_compile(self):
        graph = sample_graph()
        graph.columnar()
        graph.remove_node("t")                    # cascades to e1
        graph.add_node("x", "Admin", {"id": 9})
        graph.add_edge("e6", "POSTS", "b", "x")
        incremental = graph.columnar()
        assert incremental.origin == "incremental"
        assert_snapshot_matches_store(incremental, graph)
        fresh = compile_graph(graph)
        assert incremental.node_count() == fresh.node_count()
        assert incremental.edge_count() == fresh.edge_count()

    def test_edge_to_an_added_node_with_later_props_stays_incremental(
        self, collector
    ):
        # compaction folds the property delta into the node add, which
        # must still come before the edge that points to the new node
        graph = sample_graph()
        graph.columnar()
        compiles_before = counter(collector, "graph.csr.compiles")
        with graph.batch():
            graph.add_node("m1", "User", {"id": 7})
            graph.add_edge("e9", "FOLLOWS", "a", "m1")
            graph.update_node("m1", {"name": "mallory"})
        snapshot = graph.columnar()
        assert snapshot.origin == "incremental"
        assert counter(collector, "graph.csr.incremental_updates") == 1
        assert counter(collector, "graph.csr.compiles") == compiles_before
        assert_snapshot_matches_store(snapshot, graph)
        queries = [
            "MATCH (u:User)-[:FOLLOWS]->(m:User) WHERE m.name = 'mallory' "
            "RETURN u.id AS src, m.id AS dst",
            "MATCH (m:User {id: 7}) RETURN m.name AS name",
            "MATCH (u)-[r]->(v) RETURN type(r) AS t, count(*) AS c "
            "ORDER BY t",
        ]
        incremental = [Executor(graph).run(parse(q)).rows for q in queries]
        graph.invalidate_columnar()
        fresh = [Executor(graph).run(parse(q)).rows for q in queries]
        assert graph.columnar().origin == "full"
        assert incremental == fresh
        assert incremental[0] == [{"src": 1, "dst": 7}]

    def test_budget_blown_falls_back_to_full(self, collector):
        graph = sample_graph()
        graph.columnar()
        compiles_before = counter(collector, "graph.csr.compiles")
        for index in range(70):                   # budget is max(64, size//4)
            graph.add_node(f"bulk{index}", "User", {"id": 100 + index})
        snapshot = graph.columnar()
        assert snapshot.origin == "full"
        assert counter(collector, "graph.csr.incremental_updates") == 0
        assert counter(collector, "graph.csr.compiles") == compiles_before + 1
        assert_snapshot_matches_store(snapshot, graph)

    def test_ring_loss_falls_back_to_full(self, monkeypatch):
        graph = sample_graph()
        compiled = graph.columnar().epoch
        # a tiny bound, so the log drops deltas the snapshot still needs
        monkeypatch.setattr(store, "CHANGE_LOG_SIZE", 2)
        for index in range(5):
            graph.update_node("a", {"name": f"v{index}"})
        assert graph.changes_since(compiled) is None
        snapshot = graph.columnar()
        assert snapshot.origin == "full"
        assert_snapshot_matches_store(snapshot, graph)

    def test_mid_batch_snapshot_is_uncached(self):
        graph = sample_graph()
        cached = graph.columnar()
        with graph.batch():
            graph.add_node("y", "User", {"id": 50})
            inside = graph.columnar()
            assert inside is not cached
            assert inside.node_count() == graph.order()
        after = graph.columnar()
        assert after is not inside
        assert after.node_count() == graph.order()


class TestCatalog:
    def test_catalog_matches_legacy_rescan(self):
        graph = sample_graph()
        columnar = graph.catalog()
        legacy = rescan_catalog(graph)
        assert columnar.node_count == legacy.node_count
        assert columnar.edge_count == legacy.edge_count
        assert columnar.label_counts == legacy.label_counts
        assert columnar.edge_stats == legacy.edge_stats
        assert set(columnar.property_sketches) == set(
            legacy.property_sketches
        )
        for key, sketch in legacy.property_sketches.items():
            other = columnar.property_sketches[key]
            assert other.present == sketch.present
            assert other.distinct == sketch.distinct
            assert dict(other.top) == dict(sketch.top)

    def test_catalog_maintained_incrementally(self, collector):
        graph = sample_graph()
        graph.catalog()
        graph.add_node("d", "User", {"id": 4})
        graph.add_edge("e5", "POSTS", "d", "t")
        updated = graph.catalog()
        assert counter(
            collector, "graph.catalog.incremental_updates"
        ) == 1
        legacy = rescan_catalog(graph)
        assert updated.label_counts == legacy.label_counts
        assert updated.edge_stats == legacy.edge_stats
        assert updated.node_count == legacy.node_count
        for key, sketch in legacy.property_sketches.items():
            other = updated.property_sketches[key]
            assert (other.present, other.distinct) == (
                sketch.present, sketch.distinct,
            )
            assert dict(other.top) == dict(sketch.top)


    def test_catalog_is_stamped_with_its_snapshots_epoch(self, monkeypatch):
        """A write committed between ``columnar()`` and the cache stamp
        must not leave the older catalog cached under the newer epoch."""
        graph = PropertyGraph("stamp")
        graph.add_node("a", "User", {"id": 1})
        graph.add_node("b", "User", {"id": 2})
        real = PropertyGraph.columnar

        def columnar_then_write(self):
            snapshot = real(self)
            monkeypatch.undo()                # one racing write only
            self.add_node("c", "Fresh")
            return snapshot

        monkeypatch.setattr(PropertyGraph, "columnar", columnar_then_write)
        stale = graph.catalog()
        assert "Fresh" not in stale.label_counts
        assert graph.epoch == 3
        assert graph.catalog().label_counts == {"User": 2, "Fresh": 1}

    def test_untouched_sketches_are_carried(self):
        """A batch that writes one (label, key) counter keeps the very
        same sketch object for every other pair."""
        graph = sample_graph()
        before = graph.catalog().property_sketches
        graph.update_node("t", {"text": "bye"})
        after = graph.catalog().property_sketches
        assert graph.columnar().origin == "incremental"
        assert after[("Tweet", "text")] != before[("Tweet", "text")]
        for pair, sketch in before.items():
            if pair != ("Tweet", "text"):
                assert after[pair] is sketch
        assert after == rescan_catalog(graph).property_sketches


class TestOrderSize:
    def test_order_and_size_track_mutations(self):
        graph = sample_graph()
        assert graph.order() == 4
        assert graph.size() == 5
        graph.add_node("d", "User", {})
        graph.add_edge("e5", "POSTS", "d", "t")
        assert (graph.order(), graph.size()) == (5, 6)
        graph.remove_node("d")                    # cascades to e5
        assert (graph.order(), graph.size()) == (4, 5)
        assert len(graph) == graph.order()

    def test_order_size_constant_time(self):
        """No iteration: results come straight off the dict sizes."""
        graph = PropertyGraph("big")
        for index in range(500):
            graph.add_node(f"n{index}", "N", {})
        assert graph.order() == 500
        assert graph.size() == 0


class TestCsrWalk:
    def test_var_length_match_expands_csr_frontiers(self, collector):
        graph = sample_graph()
        result = Executor(graph).run(parse(
            "MATCH (a:User {id: 1})-[:FOLLOWS*1..2]->(b) RETURN count(*) AS c"
        ))
        # a->b, a->c, a->b->a, and a->c->c over the self-loop
        assert result.scalar() == 4
        assert counter(collector, "matcher.csr.frontier_expansions") > 0

    def test_pattern_predicates_and_merge_record_no_matcher_stats(
        self, collector
    ):
        graph = sample_graph()
        merged = execute(graph, "MERGE (u:User {id: $id})", {"id": 2})
        assert merged.stats == {}                 # matched, nothing created
        found = execute(graph, "RETURN (:User)-[:POSTS]->(:Tweet) AS e")
        assert found.scalar() is True
        for name in ("matcher.seeds", "matcher.expansions",
                     "matcher.visits", "matcher.csr.frontier_expansions"):
            assert counter(collector, name) == 0


class TestExplain:
    def test_explain_renders_var_length_clause(self):
        graph = sample_graph()
        text = explain(
            parse("MATCH (a)-[:FOLLOWS*1..2]->(b) RETURN count(*) AS c"),
            graph,
        )
        assert "step 1: (a)-[:FOLLOWS*1..2]->(b)" in text
        assert "path:" not in text
