"""Dirty-window invalidation: delta batches map to stale incident
blocks, refreshed statements are value-identical to a full re-encode,
and changed-window detection yields the exact re-mining worklist."""

from __future__ import annotations

import pytest

from repro import obs
from repro.encoding import (
    IncidentEncoder,
    SlidingWindowChunker,
    changed_window_indexes,
    dirty_block_subjects,
    refresh_statements,
)
from repro.graph import GraphChangeLog, PropertyGraph


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_graph(users: int = 6) -> PropertyGraph:
    graph = PropertyGraph("dirty")
    for index in range(users):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet number {index}",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    for index in range(users - 1):
        graph.add_edge(
            f"f{index}", "FOLLOWS", f"u{index}", f"u{index + 1}",
        )
    return graph


def assert_statements_equal(left, right):
    assert [(s.kind, s.subject_id, s.text) for s in left] == [
        (s.kind, s.subject_id, s.text) for s in right
    ]


# ----------------------------------------------------------------------
# delta -> dirty block mapping
# ----------------------------------------------------------------------
class TestDirtySubjects:
    def test_node_props_dirty_their_own_block(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.update_node("u2", {"screen_name": "@renamed"})
        dirty, removed = dirty_block_subjects(log.deltas())
        assert dirty == {"u2"}
        assert removed == set()

    def test_edge_deltas_dirty_the_source_block_only(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.add_edge("x1", "FOLLOWS", "u3", "u0")
        graph.remove_edge("f0")                    # src u0
        graph.update_edge("p1", {"weight": 2})     # src u1
        dirty, removed = dirty_block_subjects(log.deltas())
        assert dirty == {"u3", "u0", "u1"}
        assert removed == set()

    def test_removed_nodes_are_partitioned_out(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.update_node("t5", {"text": "almost gone"})
        graph.remove_node("t5")
        dirty, removed = dirty_block_subjects(log.deltas())
        assert "t5" in removed
        assert "t5" not in dirty
        # the cascaded edge removal dirties the source block
        assert "u5" in dirty

    def test_remove_then_readd_ends_up_dirty_not_removed(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.remove_node("t0")
        graph.add_node("t0", "Tweet", {"id": 100, "text": "reborn"})
        dirty, removed = dirty_block_subjects(log.deltas())
        assert "t0" in dirty
        assert "t0" not in removed


# ----------------------------------------------------------------------
# refresh_statements == full re-encode
# ----------------------------------------------------------------------
class TestRefresh:
    def mutate_and_refresh(self, graph, mutate):
        encoder = IncidentEncoder()
        statements = encoder.encode(graph)
        log = GraphChangeLog().attach(graph)
        mutate(graph)
        refreshed = refresh_statements(graph, statements, log.deltas())
        assert_statements_equal(refreshed, encoder.encode(graph))
        return statements, refreshed

    def test_property_change_touches_one_block(self):
        self.mutate_and_refresh(
            build_graph(),
            lambda g: g.update_node("u3", {"screen_name": "@other"}),
        )

    def test_node_and_edge_additions(self):
        def mutate(graph):
            graph.add_node("u9", "User", {"id": 9})
            graph.add_edge("x9", "FOLLOWS", "u9", "u0")
            graph.add_edge("x0", "FOLLOWS", "u0", "u9")

        self.mutate_and_refresh(build_graph(), mutate)

    def test_removals_and_cascades(self):
        def mutate(graph):
            graph.remove_node("u2")        # cascades p2 + f1 + f2
            graph.remove_edge("p4")

        self.mutate_and_refresh(build_graph(), mutate)

    def test_readded_node_moves_to_the_tail(self):
        def mutate(graph):
            graph.remove_node("t1")
            graph.add_node("t1", "Tweet", {"id": 101, "text": "back"})
            graph.add_edge("p1b", "POSTS", "u1", "t1")

        self.mutate_and_refresh(build_graph(), mutate)

    def test_batched_mutations_refresh_identically(self):
        def mutate(graph):
            with graph.batch():
                graph.update_node("u0", {"bio": "first"})
                graph.remove_edge("f3")
                graph.add_node("u9", "User", {"id": 9})

        self.mutate_and_refresh(build_graph(), mutate)

    def test_clean_blocks_are_reused_not_reencoded(self):
        collector = obs.install()
        graph = build_graph()
        encoder = IncidentEncoder()
        statements = encoder.encode(graph)
        log = GraphChangeLog().attach(graph)
        graph.update_node("u3", {"screen_name": "@renamed"})
        refresh_statements(graph, statements, log.deltas())
        reused = collector.metrics.counter("encoding.blocks_reused")
        reencoded = collector.metrics.counter("encoding.blocks_reencoded")
        assert reencoded.total() == 1          # only u3's block
        assert reused.total() == len(list(graph.nodes())) - 1


# ----------------------------------------------------------------------
# the re-mining worklist
# ----------------------------------------------------------------------
class TestWindows:
    def setup_windows(self, graph):
        encoder = IncidentEncoder()
        statements = encoder.encode(graph)
        chunker = SlidingWindowChunker(window_size=60, overlap=12)
        window_set = chunker.chunk_statements(statements)
        assert window_set.window_count > 2     # the test needs spread
        return encoder, chunker, statements, window_set

    def test_unchanged_graph_changes_no_windows(self):
        graph = build_graph()
        encoder, chunker, statements, window_set = self.setup_windows(graph)
        again = chunker.chunk_statements(encoder.encode(graph))
        assert changed_window_indexes(window_set, again) == []

    def test_changed_window_indexes_pinpoints_the_worklist(self):
        graph = build_graph(10)
        encoder, chunker, statements, window_set = self.setup_windows(graph)
        log = GraphChangeLog().attach(graph)
        graph.update_node("u9", {"screen_name": "@renamed"})
        refreshed = refresh_statements(graph, statements, log.deltas())
        new_set = chunker.chunk_statements(refreshed)
        changed = changed_window_indexes(window_set, new_set)
        assert changed                          # the edit surfaced
        assert len(changed) < new_set.window_count
        unchanged = [
            w for w in new_set.windows if w.index not in changed
        ]
        old = {w.index: w for w in window_set.windows}
        for window in unchanged:
            assert old[window.index].text == window.text
