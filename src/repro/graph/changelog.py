"""Typed mutation deltas and their net-effect compaction.

:class:`~repro.graph.store.PropertyGraph` records a :class:`GraphDelta`
for every mutation in its own bounded change log and answers
``changes_since(epoch)`` with the compacted deltas after that epoch (see
the store for when the log starts and when it loses history).

Compaction collapses superseded deltas while preserving the *net* effect
of the history (the only thing delta readers here depend on — the
incremental CSR and rule maintenance re-read final graph state):

* add followed by remove of a subject born inside the log cancels
  entirely (including any property deltas in between);
* property deltas merge into the preceding add, or into each other
  (union of touched keys);
* property deltas before a remove are dropped — the remove supersedes.

Survivors keep their chronological order.  A merged delta keeps the
position of the delta it merged into, so a node add that absorbs later
property deltas still precedes the edges that reference the node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class DeltaKind(Enum):
    """The six mutation shapes a property graph can undergo."""

    NODE_ADDED = "node_added"
    NODE_REMOVED = "node_removed"
    NODE_PROPS = "node_props"
    EDGE_ADDED = "edge_added"
    EDGE_REMOVED = "edge_removed"
    EDGE_PROPS = "edge_props"

    @property
    def is_node(self) -> bool:
        return self in (
            DeltaKind.NODE_ADDED, DeltaKind.NODE_REMOVED, DeltaKind.NODE_PROPS
        )


@dataclass(frozen=True)
class GraphDelta:
    """One typed mutation, stamped with the epoch that first includes it.

    ``labels`` carries the node's labels (node deltas) or the endpoint
    labels are irrelevant and it is empty (edge deltas); ``edge_label`` /
    ``src`` / ``dst`` are populated for edge deltas only.  ``keys`` lists
    the property keys the mutation touched (all keys for adds/removes).
    """

    kind: DeltaKind
    epoch: int
    subject_id: str
    labels: tuple[str, ...] = ()
    edge_label: str | None = None
    src: str | None = None
    dst: str | None = None
    keys: tuple[str, ...] = ()

    @property
    def subject_key(self) -> tuple[str, str]:
        """Identity for compaction: node and edge id spaces are disjoint."""
        return ("node" if self.kind.is_node else "edge", self.subject_id)


def _fold_subject(
    entries: list[tuple[int, GraphDelta]],
) -> list[tuple[int, GraphDelta]]:
    """Compact one subject's chronological ``(position, delta)`` list
    (see module doc); a merged delta keeps its target's position."""
    out: list[tuple[int, GraphDelta]] = []
    for position, delta in entries:
        if delta.kind in (DeltaKind.NODE_ADDED, DeltaKind.EDGE_ADDED):
            out.append((position, delta))
        elif delta.kind in (DeltaKind.NODE_PROPS, DeltaKind.EDGE_PROPS):
            if out:
                kept, prev = out[-1]
                merged_keys = tuple(dict.fromkeys(prev.keys + delta.keys))
                # the merged delta carries the newest epoch it covers;
                # add-kind survives the merge (subject is still "new")
                out[-1] = (kept, replace(
                    prev, keys=merged_keys, epoch=max(prev.epoch, delta.epoch)
                ))
            else:
                out.append((position, delta))
        else:  # NODE_REMOVED / EDGE_REMOVED
            if out and out[0][1].kind in (
                DeltaKind.NODE_ADDED, DeltaKind.EDGE_ADDED
            ):
                # born and deceased inside the log: net effect is nothing
                out = []
            else:
                out = [(position, delta)]
    return out


def compact_deltas(deltas: list[GraphDelta]) -> list[GraphDelta]:
    """Collapse superseded deltas, preserving chronological order."""
    by_subject: dict[tuple[str, str], list[tuple[int, GraphDelta]]] = {}
    for position, delta in enumerate(deltas):
        by_subject.setdefault(delta.subject_key, []).append((position, delta))
    retained = [
        entry
        for entries in by_subject.values()
        for entry in _fold_subject(entries)
    ]
    retained.sort(key=lambda entry: entry[0])
    return [delta for _, delta in retained]

