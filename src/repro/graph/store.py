"""Indexed in-memory property-graph store.

This is the reproduction's substitute for Neo4j: a directed multigraph with
secondary indexes on node labels, edge labels and adjacency.  The Cypher
interpreter in :mod:`repro.cypher` does not walk these objects: every
MATCH runs on the int-id CSR snapshot that :meth:`PropertyGraph.columnar`
compiles per mutation epoch, and the planner's statistics catalog is
derived from that same snapshot.

Mutation is node/edge-at-a-time (the study never needs transactions); all
read paths return stable, deterministic orderings so that experiments are
bit-for-bit reproducible.  Every mutation bumps a monotonic *epoch*, which
the CSR snapshot, the catalog and the statement memo use for invalidation.

The store is the only owner of its mutation history: a bounded change log
that the incremental CSR and continuous mining read through
:meth:`PropertyGraph.changes_since`.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict, defaultdict, deque
from contextlib import contextmanager
from dataclasses import replace as _replace_delta
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.graph.changelog import DeltaKind, GraphDelta, compact_deltas
from repro.graph.errors import (
    DanglingEdgeError,
    DuplicateElementError,
    ElementNotFoundError,
)
from repro.graph.model import Edge, Node, Properties

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.columnar import ColumnarGraph
    from repro.graph.statistics import GraphCatalog

#: process-unique tokens so two graphs never share a snapshot stamp, even
#: if one is garbage-collected and the other reuses its memory address
_GRAPH_TOKENS = itertools.count(1)

#: small-delta floor below which incremental CSR maintenance is always
#: worth trying, regardless of graph size
_INCREMENTAL_MIN = 64

#: read-statement results one graph version remembers
STATEMENT_MEMO_SIZE = 256

#: deltas the change log keeps; past it the oldest are dropped
CHANGE_LOG_SIZE = 4096


def _metric_inc(name: str, value: int = 1) -> None:
    # the graph layer stays import-clean of obs; the registry is a
    # process-global sink, so binding it per call is enough
    from repro import obs

    obs.inc(name, value)


def property_index_key(value: object) -> object | None:
    """Normalize a property value into a value-index key.

    Cypher equality treats ``2`` and ``2.0`` as equal but ``true`` and
    ``1`` as different, while Python's dict hashing conflates all three;
    the type tag keeps the index faithful to Cypher semantics.  ``None``
    (no index entry — a null property never equals anything) is returned
    for null and for unindexable values (lists, NaN).
    """
    if isinstance(value, bool):
        return ("b", value)
    if isinstance(value, (int, float)):
        if value != value:  # NaN never equals itself
            return None
        return ("n", float(value))
    if isinstance(value, str):
        return ("s", value)
    return None


def _locked(method):
    # mutators and snapshot builds exclude each other, so a reader on
    # another thread never compiles a half-applied mutation
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class StatementMemo:
    """Read-statement results (opaque to the store) of one graph version,
    thread-safe, least recently used evicted past STATEMENT_MEMO_SIZE."""

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self._entries: OrderedDict[object, object] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: object) -> object | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            return self._entries.get(key)

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > STATEMENT_MEMO_SIZE:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class PropertyGraph:
    """A directed property multigraph with label and adjacency indexes."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[str, Edge] = {}
        # label -> ordered set of node ids (dict used as ordered set)
        self._nodes_by_label: dict[str, dict[str, None]] = defaultdict(dict)
        self._edges_by_label: dict[str, dict[str, None]] = defaultdict(dict)
        # node id -> ordered set of incident edge ids
        self._out_edges: dict[str, dict[str, None]] = defaultdict(dict)
        self._in_edges: dict[str, dict[str, None]] = defaultdict(dict)
        self._token = next(_GRAPH_TOKENS)
        self._epoch = 0
        self._catalog_cache: tuple[int, "GraphCatalog"] | None = None
        self._batch_depth = 0
        self._batch_dirty = False
        self._pending_deltas: list[GraphDelta] = []
        # the change log: None until its first read; it vouches for every
        # mutation after _log_floor
        self._log: deque[GraphDelta] | None = None
        self._log_floor = 0
        self._log_dropped = 0
        self._columnar_cache: "ColumnarGraph" | None = None
        self._memo: StatementMemo | None = None
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # versioning
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; any write increments it."""
        return self._epoch

    def fingerprint(self) -> tuple[int, int]:
        """A process-unique (graph, version) key for derived caches."""
        return (self._token, self._epoch)

    def _touch(self) -> None:
        if self._batch_depth:
            # inside batch(): defer the epoch bump, but drop any catalog
            # built this epoch — it no longer reflects graph contents
            self._batch_dirty = True
            self._catalog_cache = None
        else:
            self._epoch += 1

    # ------------------------------------------------------------------
    # change log
    # ------------------------------------------------------------------
    @_locked
    def changes_since(self, epoch: int) -> list[GraphDelta] | None:
        """The compacted deltas of every mutation after ``epoch``, oldest
        first (see :func:`~repro.graph.changelog.compact_deltas`).

        ``None`` when the log cannot vouch for all of them: ``epoch`` is
        older than the log's start, or than a delta that the
        ``CHANGE_LOG_SIZE`` bound dropped.  The first call starts the log
        at the current epoch, so a graph nobody reads (a dataset being
        loaded) records nothing.  Costs O(deltas after ``epoch``).
        """
        log = self._log
        if log is None:
            log = self._log = deque()
            # writes an open batch already holds were never recorded, so
            # the log vouches only from the epoch that batch commits
            self._log_floor = self._epoch + (
                1 if self._batch_depth and self._batch_dirty else 0
            )
        if epoch < self._log_floor:
            return None
        newer: list[GraphDelta] = []
        for delta in reversed(log):
            if delta.epoch <= epoch:
                break
            newer.append(delta)
        newer.reverse()
        return compact_deltas(newer)

    @property
    def dropped_changes(self) -> int:
        """Deltas the change log dropped to its ``CHANGE_LOG_SIZE`` bound."""
        return self._log_dropped

    def _record(self, delta: GraphDelta) -> None:
        log = self._log
        log.append(delta)
        while len(log) > CHANGE_LOG_SIZE:
            self._log_floor = max(self._log_floor, log.popleft().epoch)
            self._log_dropped += 1

    def _emit(self, kind: DeltaKind, subject_id: str, **fields: object) -> None:
        if self._log is None:
            return
        delta = GraphDelta(
            kind=kind, epoch=self._epoch, subject_id=subject_id, **fields
        )
        if self._batch_depth:
            # stamped with the committing epoch once the batch flushes
            self._pending_deltas.append(delta)
        else:
            self._record(delta)

    @contextmanager
    def batch(self) -> Iterator["PropertyGraph"]:
        """Coalesce a burst of mutations into a single epoch bump.

        N inserts normally cost N per-epoch cache invalidations; inside
        ``with graph.batch():`` the epoch advances once, at exit, and the
        buffered deltas enter the change log stamped with that committing
        epoch.  Reentrant — nested batches flush with the outermost exit.

        Mid-batch reads see the mutated contents but the *pre-batch*
        epoch/fingerprint, so derived statistics may lag until exit.
        Mutations already applied are kept even if the body raises (the
        store is not transactional); the flush still happens so the change
        log never misses a delta.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            with self._lock:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    if self._batch_dirty:
                        self._batch_dirty = False
                        self._epoch += 1
                    pending, self._pending_deltas = self._pending_deltas, []
                    for delta in pending:
                        self._record(_replace_delta(delta, epoch=self._epoch))

    def columnar(self) -> "ColumnarGraph":
        """The CSR snapshot of the current contents, cached per epoch.

        The first call compiles it and starts the change log.  Small
        mutation batches since the cached snapshot are applied
        incrementally from :meth:`changes_since`; a batch over budget,
        or lost history, recompiles in full (see
        :mod:`repro.graph.columnar`).  An incremental update that fails
        raises: it is a bug, not a slow path.
        Mid-batch, after a write, an uncached throwaway snapshot is
        compiled instead, so a mid-batch read sees the mid-batch
        contents.
        """
        dirty = self._batch_depth and self._batch_dirty
        cached = self._columnar_cache
        if not dirty and cached is not None and cached.epoch == self._epoch:
            return cached  # immutable, so safe to hand out without the lock
        return self._build_columnar()

    @_locked
    def _build_columnar(self) -> "ColumnarGraph":
        dirty = self._batch_depth and self._batch_dirty
        cached = self._columnar_cache
        if not dirty and cached is not None and cached.epoch == self._epoch:
            return cached  # built while this call waited for the lock
        from repro.graph.columnar import compile_graph

        if dirty:
            return compile_graph(self)
        snapshot = None
        # read even without a snapshot: the first compile starts the log
        deltas = self.changes_since(
            self._epoch if cached is None else cached.epoch
        )
        if cached is not None and deltas is not None:
            budget = max(
                _INCREMENTAL_MIN,
                (len(self._nodes) + len(self._edges)) // 4,
            )
            if len(deltas) + cached.overlay_ops <= budget:
                snapshot = cached.apply_deltas(self, deltas)
                _metric_inc("graph.csr.incremental_updates")
        if snapshot is None:
            snapshot = compile_graph(self)
            _metric_inc("graph.csr.compiles")
        self._columnar_cache = snapshot
        return snapshot

    @_locked
    def invalidate_columnar(self) -> None:
        """Drop the cached CSR snapshot, catalog and memo.

        The next ``columnar()``/``catalog()`` call rebuilds from
        scratch and every statement runs again.  Used to release memory,
        and by the perf gate to profile from a cold cache regardless of
        what the process ran earlier (the dataset registry shares graph
        instances).  The change log stays: a watch may still read it.
        """
        self._columnar_cache = None
        self._catalog_cache = None
        self._memo = None

    def statement_memo(self) -> StatementMemo | None:
        """The statement memo of the current epoch, replaced by an empty
        one on the first call after the epoch moves.  ``None`` while a
        batch holds unflushed writes, which the epoch does not describe.
        """
        if self._batch_depth and self._batch_dirty:
            return None
        memo = self._memo
        if memo is None or memo.epoch != self._epoch:
            memo = self._memo = StatementMemo(self._epoch)
        return memo

    def catalog(self) -> "GraphCatalog":
        """The planner-grade statistics catalog, cached per epoch.

        Derived from the CSR snapshot's interned counters in
        O(distinct values), mid-batch included — and when that snapshot
        was itself maintained incrementally from the change log, so was
        the catalog, so a watch-mode debounce tick never rescans the
        graph.
        """
        cached = self._catalog_cache
        if cached is not None and cached[0] == self._epoch:
            return cached[1]
        from repro.graph.statistics import catalog_from_columnar

        snapshot = self.columnar()
        catalog = catalog_from_columnar(snapshot)
        if snapshot.origin == "incremental":
            _metric_inc("graph.catalog.incremental_updates")
        # stamped with the snapshot's epoch, not the store's: a write
        # committed since columnar() returned must not adopt this catalog
        self._catalog_cache = (snapshot.epoch, catalog)
        return catalog

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @_locked
    def add_node(
        self,
        node_id: str,
        labels: Iterable[str] | str,
        properties: Properties | None = None,
    ) -> Node:
        """Create and index a node; raises if the id already exists."""
        node = Node.create(node_id, labels, properties)
        if node.id in self._nodes:
            raise DuplicateElementError("node", node.id)
        self._nodes[node.id] = node
        for label in node.labels:
            self._nodes_by_label[label][node.id] = None
        self._touch()
        self._emit(
            DeltaKind.NODE_ADDED,
            node.id,
            labels=tuple(sorted(node.labels)),
            keys=tuple(sorted(node.properties)),
        )
        return node

    @_locked
    def add_edge(
        self,
        edge_id: str,
        label: str,
        src: str,
        dst: str,
        properties: Properties | None = None,
    ) -> Edge:
        """Create and index an edge; both endpoints must already exist."""
        edge = Edge.create(edge_id, label, src, dst, properties)
        if edge.id in self._edges:
            raise DuplicateElementError("edge", edge.id)
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._nodes:
                raise DanglingEdgeError(edge.id, endpoint)
        self._edges[edge.id] = edge
        self._edges_by_label[edge.label][edge.id] = None
        self._out_edges[edge.src][edge.id] = None
        self._in_edges[edge.dst][edge.id] = None
        self._touch()
        self._emit(
            DeltaKind.EDGE_ADDED,
            edge.id,
            edge_label=edge.label,
            src=edge.src,
            dst=edge.dst,
            keys=tuple(sorted(edge.properties)),
        )
        return edge

    @_locked
    def update_node(self, node_id: str, properties: Properties) -> Node:
        """Merge ``properties`` into an existing node."""
        updated = self.node(node_id).with_properties(properties)
        self._nodes[node_id] = updated
        self._touch()
        self._emit(
            DeltaKind.NODE_PROPS,
            node_id,
            labels=tuple(sorted(updated.labels)),
            keys=tuple(sorted(properties.keys())),
        )
        return updated

    @_locked
    def remove_node_property(self, node_id: str, key: str) -> Node:
        """Drop a property from an existing node (no-op if absent)."""
        updated = self.node(node_id).without_property(key)
        self._nodes[node_id] = updated
        self._touch()
        self._emit(
            DeltaKind.NODE_PROPS,
            node_id,
            labels=tuple(sorted(updated.labels)),
            keys=(key,),
        )
        return updated

    @_locked
    def update_edge(self, edge_id: str, properties: Properties) -> Edge:
        """Merge ``properties`` into an existing edge."""
        edge = self.edge(edge_id)
        updated = edge.with_properties(properties)
        self._edges[edge_id] = updated
        self._touch()
        self._emit(
            DeltaKind.EDGE_PROPS,
            edge_id,
            edge_label=updated.label,
            src=updated.src,
            dst=updated.dst,
            keys=tuple(sorted(properties.keys())),
        )
        return updated

    @_locked
    def remove_edge(self, edge_id: str) -> None:
        """Delete an edge and de-index it."""
        edge = self.edge(edge_id)
        del self._edges[edge_id]
        self._edges_by_label[edge.label].pop(edge_id, None)
        self._out_edges[edge.src].pop(edge_id, None)
        self._in_edges[edge.dst].pop(edge_id, None)
        self._touch()
        self._emit(
            DeltaKind.EDGE_REMOVED,
            edge_id,
            edge_label=edge.label,
            src=edge.src,
            dst=edge.dst,
            keys=tuple(sorted(edge.properties)),
        )

    @_locked
    def remove_node(self, node_id: str) -> None:
        """Delete a node along with all of its incident edges."""
        node = self.node(node_id)
        incident = list(self._out_edges.get(node_id, ())) + list(
            self._in_edges.get(node_id, ())
        )
        for edge_id in incident:
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._nodes[node_id]
        for label in node.labels:
            self._nodes_by_label[label].pop(node_id, None)
        self._out_edges.pop(node_id, None)
        self._in_edges.pop(node_id, None)
        self._touch()
        self._emit(
            DeltaKind.NODE_REMOVED,
            node_id,
            labels=tuple(sorted(node.labels)),
            keys=tuple(sorted(node.properties)),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ElementNotFoundError("node", node_id) from None

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise ElementNotFoundError("edge", edge_id) from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edges

    # ------------------------------------------------------------------
    # scans (all deterministic: insertion order)
    # ------------------------------------------------------------------
    def nodes(self, label: str | None = None) -> Iterator[Node]:
        """Iterate nodes, optionally restricted to one label (index scan)."""
        if label is None:
            yield from self._nodes.values()
        else:
            for node_id in self._nodes_by_label.get(label, ()):
                yield self._nodes[node_id]

    def edges(self, label: str | None = None) -> Iterator[Edge]:
        """Iterate edges, optionally restricted to one label (index scan)."""
        if label is None:
            yield from self._edges.values()
        else:
            for edge_id in self._edges_by_label.get(label, ()):
                yield self._edges[edge_id]

    def out_edges(self, node_id: str, label: str | None = None) -> Iterator[Edge]:
        """Edges leaving ``node_id``, optionally filtered by label."""
        for edge_id in self._out_edges.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def in_edges(self, node_id: str, label: str | None = None) -> Iterator[Edge]:
        """Edges entering ``node_id``, optionally filtered by label."""
        for edge_id in self._in_edges.get(node_id, ()):
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def incident_edges(self, node_id: str, label: str | None = None) -> Iterator[Edge]:
        """All edges touching ``node_id``; a self-loop is yielded once."""
        out = self._out_edges.get(node_id, ())
        yield from self.out_edges(node_id, label)
        for edge_id in self._in_edges.get(node_id, ()):
            if edge_id in out:
                continue  # self-loop, already yielded from the out set
            edge = self._edges[edge_id]
            if label is None or edge.label == label:
                yield edge

    def degree(self, node_id: str) -> int:
        """Number of distinct incident edges (a self-loop counts once)."""
        out = self._out_edges.get(node_id, {})
        incoming = self._in_edges.get(node_id, {})
        return len(out) + sum(
            1 for edge_id in incoming if edge_id not in out
        )

    # ------------------------------------------------------------------
    # vocabulary
    # ------------------------------------------------------------------
    def node_labels(self) -> list[str]:
        """All node labels in use, sorted."""
        return sorted(
            label for label, ids in self._nodes_by_label.items() if ids
        )

    def edge_labels(self) -> list[str]:
        """All edge labels in use, sorted."""
        return sorted(
            label for label, ids in self._edges_by_label.items() if ids
        )

    def node_count(self, label: str | None = None) -> int:
        if label is None:
            return len(self._nodes)
        return len(self._nodes_by_label.get(label, ()))

    def edge_count(self, label: str | None = None) -> int:
        if label is None:
            return len(self._edges)
        return len(self._edges_by_label.get(label, ()))

    def order(self) -> int:
        """Graph-theoretic order — the number of nodes, O(1)."""
        return len(self._nodes)

    def size(self) -> int:
        """Graph-theoretic size — the number of edges, O(1)."""
        return len(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(name={self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )
