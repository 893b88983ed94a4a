"""Graph change log: delta emission, batching, the ring buffer bound
and net-effect compaction."""

from __future__ import annotations

import pytest

from repro.graph import (
    DeltaKind,
    GraphChangeLog,
    GraphDelta,
    PropertyGraph,
    compact_deltas,
)


def build_graph() -> PropertyGraph:
    graph = PropertyGraph("log")
    graph.add_node("u1", "User", {"name": "alice"})
    graph.add_node("u2", "User", {"name": "bob"})
    graph.add_edge("f1", "FOLLOWS", "u1", "u2", {"since": "2020"})
    return graph


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------
class TestEmission:
    def test_every_mutator_emits_a_typed_delta(self):
        graph = PropertyGraph("emit")
        log = GraphChangeLog().attach(graph)
        graph.add_node("u1", "User", {"name": "alice"})
        graph.add_node("u2", "User", {})
        graph.add_edge("f1", "FOLLOWS", "u1", "u2", {"since": "2020"})
        graph.update_node("u1", {"age": 30})
        graph.update_edge("f1", {"weight": 2})
        graph.remove_node_property("u1", "age")
        graph.remove_edge("f1")
        graph.remove_node("u2")
        kinds = [delta.kind for delta in log]
        assert kinds == [
            DeltaKind.NODE_ADDED, DeltaKind.NODE_ADDED,
            DeltaKind.EDGE_ADDED, DeltaKind.NODE_PROPS,
            DeltaKind.EDGE_PROPS, DeltaKind.NODE_PROPS,
            DeltaKind.EDGE_REMOVED, DeltaKind.NODE_REMOVED,
        ]

    def test_delta_fields_describe_the_mutation(self):
        graph = PropertyGraph("emit")
        log = GraphChangeLog().attach(graph)
        graph.add_node("u1", "User", {"name": "alice", "age": 30})
        graph.add_node("u2", "User", {})
        graph.add_edge("f1", "FOLLOWS", "u1", "u2", {"since": "2020"})
        added, _, edge = log.deltas()
        assert added.subject_id == "u1"
        assert added.labels == ("User",)
        assert added.keys == ("age", "name")
        assert edge.edge_label == "FOLLOWS"
        assert edge.src == "u1" and edge.dst == "u2"
        assert edge.keys == ("since",)

    def test_remove_node_cascades_edge_removals_first(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.remove_node("u1")
        kinds = [delta.kind for delta in log]
        assert kinds == [DeltaKind.EDGE_REMOVED, DeltaKind.NODE_REMOVED]
        assert log.deltas()[0].subject_id == "f1"

    def test_epochs_are_monotonic_and_match_the_graph(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.update_node("u1", {"age": 1})
        graph.update_node("u1", {"age": 2})
        first, second = log.deltas()
        assert first.epoch < second.epoch
        assert second.epoch == graph.epoch

    def test_unsubscribe_stops_recording(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        log.detach(graph)
        graph.update_node("u1", {"age": 1})
        assert len(log) == 0

    def test_since_filters_by_epoch(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        graph.update_node("u1", {"age": 1})
        mark = graph.epoch
        graph.update_node("u2", {"age": 2})
        later = log.since(mark)
        assert [d.subject_id for d in later] == ["u2"]
        assert log.since(graph.epoch) == []


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
        log = GraphChangeLog().attach(graph)
        with graph.batch():
            graph.add_node("u3", "User", {})
            graph.update_node("u1", {"age": 9})
        assert {delta.epoch for delta in log} == {graph.epoch}

    def test_empty_batch_does_not_bump_the_epoch(self):
        graph = build_graph()
        before = graph.epoch
        with graph.batch():
            pass
        assert graph.epoch == before

    def test_nested_batches_commit_once_at_the_outermost_exit(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        before = graph.epoch
        with graph.batch():
            graph.add_node("u3", "User", {})
            with graph.batch():
                graph.add_node("u4", "User", {})
            assert graph.epoch == before      # still uncommitted
        assert graph.epoch == before + 1
        assert {delta.epoch for delta in log} == {graph.epoch}

    def test_batch_flushes_deltas_even_when_the_body_raises(self):
        graph = build_graph()
        log = GraphChangeLog().attach(graph)
        with pytest.raises(RuntimeError):
            with graph.batch():
                graph.add_node("u3", "User", {})
                raise RuntimeError("boom")
        # the store is not transactional: the mutation stayed applied
        # and its delta was flushed at the committed epoch
        assert graph.has_node("u3")
        assert [d.subject_id for d in log] == ["u3"]
        assert log.deltas()[0].epoch == graph.epoch

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
# ring buffer bound
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_capacity_evicts_oldest_and_raises_the_watermark(self):
        graph = PropertyGraph("ring")
        log = GraphChangeLog(capacity=3).attach(graph)
        for index in range(5):
            graph.add_node(f"u{index}", "User", {})
        assert len(log) == 3
        assert log.dropped == 2
        assert [d.subject_id for d in log] == ["u2", "u3", "u4"]

    def test_complete_since_reflects_lost_deltas(self):
        graph = PropertyGraph("ring")
        log = GraphChangeLog(capacity=2).attach(graph)
        graph.add_node("u0", "User", {})
        first_epoch = graph.epoch
        assert log.complete_since(0)
        graph.add_node("u1", "User", {})
        graph.add_node("u2", "User", {})          # drops u0's delta
        assert not log.complete_since(0)
        assert log.complete_since(first_epoch)

    def test_deliberate_clear_is_not_data_loss(self):
        graph = PropertyGraph("ring")
        log = GraphChangeLog(capacity=8).attach(graph)
        graph.add_node("u0", "User", {})
        graph.add_node("u1", "User", {})
        mark = graph.epoch
        removed = log.clear(through_epoch=mark)
        assert removed == 2
        assert log.complete_since(0)              # watermark did not move
        graph.add_node("u2", "User", {})
        assert [d.subject_id for d in log.since(mark)] == ["u2"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            GraphChangeLog(capacity=0)


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
        log = GraphChangeLog().attach(graph)
        graph.add_edge("f2", "FOLLOWS", "u2", "u1")
        graph.remove_edge("f2")
        graph.add_edge("f2", "FOLLOWS", "u2", "u1")
        graph.remove_edge("f2")
        graph.update_node("u1", {"age": 40})
        removed = log.compact()
        assert removed == 4
        assert [d.kind for d in log] == [DeltaKind.NODE_PROPS]
