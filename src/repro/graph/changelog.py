"""Typed mutation deltas and the bounded graph change log.

:class:`~repro.graph.store.PropertyGraph` emits a :class:`GraphDelta` for
every mutation; :class:`GraphChangeLog` subscribes to that stream and keeps
a bounded, epoch-stamped history so downstream consumers (incremental rule
maintenance, dirty-window re-encoding) can ask "what changed since epoch
N?" instead of re-reading the whole graph.

The log is a ring buffer: when ``capacity`` is exceeded the oldest deltas
fall off and the log records the highest epoch it lost.  Consumers must
check :meth:`GraphChangeLog.complete_since` before trusting
:meth:`GraphChangeLog.since` — an incomplete answer means the only sound
move is a full recompute.

Compaction collapses superseded deltas while preserving the *net* effect
of the history (the only thing delta consumers here depend on — both rule
maintenance and window invalidation re-read final graph state):

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

import threading
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.store import PropertyGraph


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
                # later epoch keeps the merged delta visible to since();
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


class GraphChangeLog:
    """Bounded, thread-safe subscriber recording a graph's delta stream."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("changelog capacity must be >= 1")
        self.capacity = capacity
        self._deltas: deque[GraphDelta] = deque()
        self._lock = threading.Lock()
        self._dropped = 0
        #: highest epoch any dropped delta carried; since(epoch) is only
        #: complete for epoch >= this watermark
        self._lost_through_epoch = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, graph: "PropertyGraph") -> "GraphChangeLog":
        """Subscribe to ``graph``'s mutation stream; returns self."""
        graph.subscribe(self.record)
        return self

    def detach(self, graph: "PropertyGraph") -> None:
        graph.unsubscribe(self.record)

    def record(self, delta: GraphDelta) -> None:
        """Append one delta, evicting the oldest past capacity."""
        with self._lock:
            self._deltas.append(delta)
            while len(self._deltas) > self.capacity:
                lost = self._deltas.popleft()
                self._dropped += 1
                self._lost_through_epoch = max(
                    self._lost_through_epoch, lost.epoch
                )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Deltas lost to the ring-buffer bound since construction."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self) -> Iterator[GraphDelta]:
        with self._lock:
            return iter(list(self._deltas))

    def deltas(self) -> list[GraphDelta]:
        with self._lock:
            return list(self._deltas)

    def since(self, epoch: int) -> list[GraphDelta]:
        """All recorded deltas with ``delta.epoch > epoch``."""
        with self._lock:
            return [d for d in self._deltas if d.epoch > epoch]

    def complete_since(self, epoch: int) -> bool:
        """Whether :meth:`since` covers *every* mutation after ``epoch``.

        False once the ring buffer has dropped a delta newer than
        ``epoch`` — the caller must fall back to a full recompute.
        """
        return self._lost_through_epoch <= epoch

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Collapse superseded deltas in place; returns how many went away."""
        with self._lock:
            before = len(self._deltas)
            self._deltas = deque(compact_deltas(list(self._deltas)))
            return before - len(self._deltas)

    def clear(self, through_epoch: int | None = None) -> int:
        """Drop deltas at or below ``through_epoch`` (all when None).

        Deliberate clearing is *not* data loss: the caller is asserting it
        has consumed that prefix, so the completeness watermark does not
        move.
        """
        with self._lock:
            if through_epoch is None:
                removed = len(self._deltas)
                self._deltas.clear()
                return removed
            before = len(self._deltas)
            self._deltas = deque(
                d for d in self._deltas if d.epoch > through_epoch
            )
            return before - len(self._deltas)
