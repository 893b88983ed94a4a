"""The store's change log: delta recording, batching, the
CHANGE_LOG_SIZE bound and net-effect compaction."""

from __future__ import annotations

from collections import deque

import pytest

from repro.graph import (
    DeltaKind,
    GraphDelta,
    PropertyGraph,
    compact_deltas,
    store,
)


def build_graph() -> PropertyGraph:
    graph = PropertyGraph("log")
    graph.add_node("u1", "User", {"name": "alice"})
    graph.add_node("u2", "User", {"name": "bob"})
    graph.add_edge("f1", "FOLLOWS", "u1", "u2", {"since": "2020"})
    return graph


def started(graph: PropertyGraph) -> int:
    """Start ``graph``'s change log; returns the epoch it starts at."""
    assert graph.changes_since(graph.epoch) == []
    return graph.epoch


def recorded(graph: PropertyGraph, *mutations) -> list[GraphDelta]:
    """The deltas each mutation left in the log, read right after it, so
    compaction never merges two mutations' deltas."""
    deltas: list[GraphDelta] = []
    for mutate in mutations:
        epoch = graph.epoch
        mutate()
        deltas += graph.changes_since(epoch)
    return deltas


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TestEmission:
    def test_every_mutator_emits_a_typed_delta(self):
        graph = PropertyGraph("emit")
        started(graph)
        deltas = recorded(
            graph,
            lambda: graph.add_node("u1", "User", {"name": "alice"}),
            lambda: graph.add_node("u2", "User", {}),
            lambda: graph.add_edge("f1", "FOLLOWS", "u1", "u2",
                                   {"since": "2020"}),
            lambda: graph.update_node("u1", {"age": 30}),
            lambda: graph.update_edge("f1", {"weight": 2}),
            lambda: graph.remove_node_property("u1", "age"),
            lambda: graph.remove_edge("f1"),
            lambda: graph.remove_node("u2"),
        )
        assert [delta.kind for delta in deltas] == [
            DeltaKind.NODE_ADDED, DeltaKind.NODE_ADDED,
            DeltaKind.EDGE_ADDED, DeltaKind.NODE_PROPS,
            DeltaKind.EDGE_PROPS, DeltaKind.NODE_PROPS,
            DeltaKind.EDGE_REMOVED, DeltaKind.NODE_REMOVED,
        ]

    def test_delta_fields_describe_the_mutation(self):
        graph = PropertyGraph("emit")
        start = started(graph)
        graph.add_node("u1", "User", {"name": "alice", "age": 30})
        graph.add_node("u2", "User", {})
        graph.add_edge("f1", "FOLLOWS", "u1", "u2", {"since": "2020"})
        added, _, edge = graph.changes_since(start)
        assert added.subject_id == "u1"
        assert added.labels == ("User",)
        assert added.keys == ("age", "name")
        assert edge.edge_label == "FOLLOWS"
        assert edge.src == "u1" and edge.dst == "u2"
        assert edge.keys == ("since",)

    def test_remove_node_cascades_edge_removals_first(self):
        graph = build_graph()
        start = started(graph)
        graph.remove_node("u1")
        deltas = graph.changes_since(start)
        assert [delta.kind for delta in deltas] == [
            DeltaKind.EDGE_REMOVED, DeltaKind.NODE_REMOVED,
        ]
        assert deltas[0].subject_id == "f1"

    def test_epochs_are_monotonic_and_match_the_graph(self):
        graph = build_graph()
        started(graph)
        first, second = recorded(
            graph,
            lambda: graph.update_node("u1", {"age": 1}),
            lambda: graph.update_node("u1", {"age": 2}),
        )
        assert first.epoch < second.epoch
        assert second.epoch == graph.epoch

    def test_log_starts_at_its_first_read(self):
        # loading a graph records nothing: no read has started the log
        graph = build_graph()
        assert graph.changes_since(0) is None
        start = graph.epoch
        assert graph.changes_since(start) == []
        graph.update_node("u1", {"age": 1})
        assert [d.subject_id for d in graph.changes_since(start)] == ["u1"]
        assert graph.changes_since(start - 1) is None

    def test_first_compile_starts_the_log(self):
        graph = build_graph()
        graph.columnar()
        compiled_at = graph.epoch
        graph.update_node("u2", {"age": 2})
        assert [d.subject_id for d in graph.changes_since(compiled_at)] \
            == ["u2"]

    def test_since_filters_by_epoch(self):
        graph = build_graph()
        started(graph)
        graph.update_node("u1", {"age": 1})
        mark = graph.epoch
        graph.update_node("u2", {"age": 2})
        later = graph.changes_since(mark)
        assert [d.subject_id for d in later] == ["u2"]
        assert graph.changes_since(graph.epoch) == []

    def test_reads_do_not_consume_the_log(self):
        graph = build_graph()
        start = started(graph)
        graph.update_node("u1", {"age": 1})
        mark = graph.epoch
        assert len(graph.changes_since(start)) == 1
        graph.update_node("u2", {"age": 2})
        # a reader at each epoch still gets exactly its own deltas
        assert [d.subject_id for d in graph.changes_since(start)] \
            == ["u1", "u2"]
        assert [d.subject_id for d in graph.changes_since(mark)] == ["u2"]

    def test_invalidating_the_snapshot_keeps_the_log(self):
        graph = build_graph()
        graph.columnar()
        start = graph.epoch
        graph.update_node("u1", {"age": 1})
        graph.invalidate_columnar()
        assert [d.subject_id for d in graph.changes_since(start)] == ["u1"]


# ----------------------------------------------------------------------
# batch(): one epoch bump, deltas stamped with the committing epoch
# ----------------------------------------------------------------------
class TestBatch:
    def test_batch_coalesces_mutations_into_one_epoch(self):
        graph = build_graph()
        before = graph.epoch
        with graph.batch():
            graph.add_node("u3", "User", {})
            graph.add_edge("f2", "FOLLOWS", "u2", "u3")
            graph.update_node("u1", {"age": 9})
        assert graph.epoch == before + 1

    def test_batch_deltas_carry_the_committing_epoch(self):
        graph = build_graph()
        start = started(graph)
        with graph.batch():
            graph.add_node("u3", "User", {})
            graph.update_node("u1", {"age": 9})
        deltas = graph.changes_since(start)
        assert len(deltas) == 2
        assert {delta.epoch for delta in deltas} == {graph.epoch}

    def test_batch_deltas_enter_the_log_at_the_outermost_exit(self):
        graph = build_graph()
        start = started(graph)
        with graph.batch():
            graph.add_node("u3", "User", {})
            with graph.batch():
                graph.add_node("u4", "User", {})
            assert graph.changes_since(start) == []
        assert [d.subject_id for d in graph.changes_since(start)] \
            == ["u3", "u4"]

    def test_log_started_inside_a_batch_vouches_from_its_commit(self):
        graph = build_graph()
        before = graph.epoch
        with graph.batch():
            graph.add_node("u3", "User", {})     # written before the log
            assert graph.changes_since(before) is None
            graph.add_node("u4", "User", {})
        assert graph.changes_since(before) is None
        assert graph.changes_since(graph.epoch) == []

    def test_empty_batch_does_not_bump_the_epoch(self):
        graph = build_graph()
        before = graph.epoch
        with graph.batch():
            pass
        assert graph.epoch == before

    def test_nested_batches_commit_once_at_the_outermost_exit(self):
        graph = build_graph()
        start = started(graph)
        before = graph.epoch
        with graph.batch():
            graph.add_node("u3", "User", {})
            with graph.batch():
                graph.add_node("u4", "User", {})
            assert graph.epoch == before      # still uncommitted
        assert graph.epoch == before + 1
        assert {d.epoch for d in graph.changes_since(start)} == {graph.epoch}

    def test_batch_flushes_deltas_even_when_the_body_raises(self):
        graph = build_graph()
        start = started(graph)
        with pytest.raises(RuntimeError):
            with graph.batch():
                graph.add_node("u3", "User", {})
                raise RuntimeError("boom")
        # the store is not transactional: the mutation stayed applied
        # and its delta was flushed at the committed epoch
        assert graph.has_node("u3")
        deltas = graph.changes_since(start)
        assert [d.subject_id for d in deltas] == ["u3"]
        assert deltas[0].epoch == graph.epoch

    def test_mid_batch_reads_see_content_but_not_the_new_epoch(self):
        graph = build_graph()
        before = graph.fingerprint()
        with graph.batch():
            graph.add_node("u3", "User", {})
            assert graph.has_node("u3")
            assert graph.fingerprint() == before
        assert graph.fingerprint() != before

    def test_mid_batch_catalog_is_not_cached_stale(self):
        graph = build_graph()
        with graph.batch():
            graph.add_node("m1", "Moderator", {})
            assert "Moderator" in graph.catalog().label_counts
            graph.add_node("m2", "Admin", {})
            assert "Admin" in graph.catalog().label_counts
        assert "Admin" in graph.catalog().label_counts


# ----------------------------------------------------------------------
# the CHANGE_LOG_SIZE bound
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_capacity_evicts_oldest_and_raises_the_watermark(
        self, monkeypatch
    ):
        monkeypatch.setattr(store, "CHANGE_LOG_SIZE", 3)
        graph = PropertyGraph("ring")
        start = started(graph)
        for index in range(5):
            graph.add_node(f"u{index}", "User", {})
        assert graph.dropped_changes == 2
        # u1's delta was the newest dropped: the log vouches from there
        assert graph.changes_since(start + 1) is None
        assert [d.subject_id for d in graph.changes_since(start + 2)] \
            == ["u2", "u3", "u4"]

    def test_complete_since_reflects_lost_deltas(self, monkeypatch):
        monkeypatch.setattr(store, "CHANGE_LOG_SIZE", 2)
        graph = PropertyGraph("ring")
        start = started(graph)
        graph.add_node("u0", "User", {})
        first_epoch = graph.epoch
        assert graph.changes_since(start) is not None
        graph.add_node("u1", "User", {})
        graph.add_node("u2", "User", {})          # drops u0's delta
        assert graph.changes_since(start) is None
        assert graph.changes_since(first_epoch) is not None

    def test_a_dropped_batch_delta_loses_its_whole_epoch(self, monkeypatch):
        monkeypatch.setattr(store, "CHANGE_LOG_SIZE", 2)
        graph = PropertyGraph("ring")
        start = started(graph)
        with graph.batch():
            for index in range(3):
                graph.add_node(f"u{index}", "User", {})
        assert graph.dropped_changes == 1
        assert graph.changes_since(start) is None
        assert graph.changes_since(graph.epoch) == []

    def test_reads_scan_only_the_deltas_after_the_epoch(self):
        graph = build_graph()
        started(graph)
        for index in range(50):
            graph.update_node("u1", {"n": index})
        mark = graph.epoch
        graph.update_node("u2", {"n": 0})
        graph._log = log = VisitCountingDeque(graph._log)
        assert [d.subject_id for d in graph.changes_since(mark)] == ["u2"]
        # the one newer delta, and the one that stops the scan
        assert log.visited == 2


class VisitCountingDeque(deque):
    """A deque that counts the items any iteration over it hands out."""

    visited = 0

    def __iter__(self):
        for item in super().__iter__():
            self.visited += 1
            yield item

    def __reversed__(self):
        for item in super().__reversed__():
            self.visited += 1
            yield item


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def node_added(subject: str, epoch: int, keys=()) -> GraphDelta:
    return GraphDelta(
        kind=DeltaKind.NODE_ADDED, epoch=epoch, subject_id=subject,
        labels=("User",), keys=tuple(keys),
    )


def node_props(subject: str, epoch: int, keys) -> GraphDelta:
    return GraphDelta(
        kind=DeltaKind.NODE_PROPS, epoch=epoch, subject_id=subject,
        labels=("User",), keys=tuple(keys),
    )


def node_removed(subject: str, epoch: int) -> GraphDelta:
    return GraphDelta(
        kind=DeltaKind.NODE_REMOVED, epoch=epoch, subject_id=subject,
        labels=("User",),
    )


def edge_delta(kind: DeltaKind, subject: str, epoch: int) -> GraphDelta:
    return GraphDelta(
        kind=kind, epoch=epoch, subject_id=subject,
        edge_label="FOLLOWS", src="u1", dst="u2",
    )


class TestCompaction:
    def test_props_merge_into_the_preceding_add(self):
        compacted = compact_deltas([
            node_added("u1", 1, keys=("name",)),
            node_props("u1", 2, keys=("age",)),
            node_props("u1", 3, keys=("age", "bio")),
        ])
        assert len(compacted) == 1
        (delta,) = compacted
        assert delta.kind == DeltaKind.NODE_ADDED
        assert delta.keys == ("name", "age", "bio")
        # merged delta stays visible to since(2): it carries the max epoch
        assert delta.epoch == 3

    def test_born_then_removed_cancels_entirely(self):
        compacted = compact_deltas([
            node_added("u1", 1),
            node_props("u1", 2, keys=("age",)),
            node_removed("u1", 3),
        ])
        assert compacted == []

    def test_props_before_an_external_remove_are_dropped(self):
        compacted = compact_deltas([
            node_props("u1", 1, keys=("age",)),
            node_removed("u1", 2),
        ])
        assert [d.kind for d in compacted] == [DeltaKind.NODE_REMOVED]

    def test_interleaved_add_remove_of_the_same_edge_cancels(self):
        # the satellite case from the issue: A,R,A,R of one edge id
        deltas = [
            edge_delta(DeltaKind.EDGE_ADDED, "f9", 1),
            edge_delta(DeltaKind.EDGE_REMOVED, "f9", 2),
            edge_delta(DeltaKind.EDGE_ADDED, "f9", 3),
            edge_delta(DeltaKind.EDGE_REMOVED, "f9", 4),
        ]
        assert compact_deltas(deltas) == []

    def test_remove_then_readd_keeps_both(self):
        compacted = compact_deltas([
            edge_delta(DeltaKind.EDGE_REMOVED, "f9", 1),
            edge_delta(DeltaKind.EDGE_ADDED, "f9", 2),
        ])
        assert [d.kind for d in compacted] == [
            DeltaKind.EDGE_REMOVED, DeltaKind.EDGE_ADDED,
        ]

    def test_node_and_edge_id_spaces_are_disjoint(self):
        # same subject id, different spaces: neither cancels the other
        compacted = compact_deltas([
            node_added("x", 1),
            edge_delta(DeltaKind.EDGE_REMOVED, "x", 2),
        ])
        assert len(compacted) == 2

    def test_compaction_preserves_cross_subject_order(self):
        compacted = compact_deltas([
            node_added("u1", 1),
            node_added("u2", 2),
            node_props("u1", 3, keys=("age",)),
        ])
        # u1's merged delta keeps the position of the add it merged into
        assert [d.subject_id for d in compacted] == ["u1", "u2"]

    def test_merged_add_stays_ahead_of_an_edge_to_its_node(self):
        compacted = compact_deltas([
            node_added("m1", 1, keys=("id",)),
            GraphDelta(
                kind=DeltaKind.EDGE_ADDED, epoch=2, subject_id="e1",
                edge_label="FOLLOWS", src="u0", dst="m1",
            ),
            node_props("m1", 3, keys=("name",)),
        ])
        assert [(d.kind, d.subject_id) for d in compacted] == [
            (DeltaKind.NODE_ADDED, "m1"), (DeltaKind.EDGE_ADDED, "e1"),
        ]
        assert compacted[0].keys == ("id", "name")
        assert compacted[0].epoch == 3

    def test_live_log_compacts_interleaved_mutations(self):
        graph = build_graph()
        start = started(graph)
        graph.add_edge("f2", "FOLLOWS", "u2", "u1")
        graph.remove_edge("f2")
        graph.add_edge("f2", "FOLLOWS", "u2", "u1")
        graph.remove_edge("f2")
        graph.update_node("u1", {"age": 40})
        deltas = graph.changes_since(start)
        assert [(d.kind, d.subject_id) for d in deltas] == [
            (DeltaKind.NODE_PROPS, "u1"),
        ]
