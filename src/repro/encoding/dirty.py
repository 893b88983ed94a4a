"""Dirty-window invalidation: graph deltas → stale encoding regions.

The incident encoding is block-structured: one node statement followed by
that node's outgoing-edge statements.  A mutation therefore dirties a
small, computable set of blocks —

* node add / property change → the node's own block;
* edge add / remove / property change → the *source* node's block (edge
  statements live inside it; destination labels are immutable so the
  destination's block never changes on its account);
* node removal → the block disappears (incident edges cascade as their
  own edge deltas first).

Given a delta batch this module answers what the refreshed statement
list is without re-encoding clean blocks (:func:`refresh_statements` —
guaranteed value-identical to a full ``encoder.encode(graph)``).  After
re-chunking, :func:`changed_window_indexes` gives the exact set of
windows whose text changed, i.e. the only ones continuous mining must
prompt again.
"""

from __future__ import annotations

from repro import obs
from repro.encoding.incident import IncidentEncoder, Statement
from repro.encoding.windows import WindowSet
from repro.graph.changelog import DeltaKind, GraphDelta
from repro.graph.store import PropertyGraph


def dirty_block_subjects(
    deltas: list[GraphDelta],
) -> tuple[set[str], set[str]]:
    """Partition delta subjects into (dirty node ids, removed node ids).

    Processed chronologically so a node removed and later re-added ends
    up dirty, not removed, and vice versa.
    """
    dirty: set[str] = set()
    removed: set[str] = set()
    for delta in deltas:
        if delta.kind is DeltaKind.NODE_REMOVED:
            removed.add(delta.subject_id)
            dirty.discard(delta.subject_id)
        elif delta.kind is DeltaKind.NODE_ADDED:
            dirty.add(delta.subject_id)
            removed.discard(delta.subject_id)
        elif delta.kind is DeltaKind.NODE_PROPS:
            dirty.add(delta.subject_id)
        elif delta.src is not None:
            dirty.add(delta.src)
    return dirty - removed, removed


def _block_spans(statements: list[Statement]) -> dict[str, tuple[int, int]]:
    """Node subject id → [first, last] statement index of its block."""
    spans: dict[str, tuple[int, int]] = {}
    current: str | None = None
    for index, statement in enumerate(statements):
        if statement.kind == "node":
            current = statement.subject_id
            spans[current] = (index, index)
        elif current is not None:
            spans[current] = (spans[current][0], index)
    return spans


def changed_window_indexes(old: WindowSet, new: WindowSet) -> list[int]:
    """Indexes of windows in ``new`` that differ textually from ``old``.

    The exact re-mining worklist: a window with identical text yields an
    identical prompt, so its prior mining output still stands.
    """
    changed: list[int] = []
    old_windows = {window.index: window for window in old.windows}
    for window in new.windows:
        previous = old_windows.get(window.index)
        if previous is None or previous.text != window.text:
            changed.append(window.index)
    return changed


def refresh_statements(
    graph: PropertyGraph,
    statements: list[Statement],
    deltas: list[GraphDelta],
    encoder: IncidentEncoder | None = None,
) -> list[Statement]:
    """Refresh an encoded statement list after a delta batch.

    Clean incident blocks are reused verbatim; only blocks
    :func:`dirty_block_subjects` marks dirty are re-encoded.  The result
    is value-identical to ``encoder.encode(graph)`` (node iteration order
    comes from the graph, so re-added nodes correctly move to the tail).
    """
    encoder = encoder or IncidentEncoder()
    dirty, _removed = dirty_block_subjects(deltas)
    spans = _block_spans(statements)

    refreshed: list[Statement] = []
    reused = 0
    reencoded = 0
    for node in graph.nodes():
        span = spans.get(node.id)
        if span is not None and node.id not in dirty:
            refreshed.extend(statements[span[0]:span[1] + 1])
            reused += 1
            continue
        refreshed.append(encoder.encode_node(node))
        for edge in graph.out_edges(node.id):
            refreshed.append(encoder.encode_edge(graph, edge))
        reencoded += 1
    if reused:
        obs.inc("encoding.blocks_reused", reused)
    if reencoded:
        obs.inc("encoding.blocks_reencoded", reencoded)
    return refreshed
