"""Columnar CSR snapshots of a property graph.

:class:`ColumnarGraph` is an immutable, int-id compressed-sparse-row view
of one :class:`~repro.graph.store.PropertyGraph` epoch, built for the
matcher's hot path: label/type dictionaries are interned to small ints,
adjacency lives in contiguous ``array`` slices (``'q'`` offsets, ``'I'``
edge ids — no numpy dependency), node properties are stored in columns,
and every (label, key) pair keeps a sorted value index for seed lookups.
String ids appear only at the boundary (``node_index`` / ``edge_index``
plus the original :class:`~repro.graph.model.Node` / ``Edge`` objects per
dense id), so public APIs keep returning the same objects as the store.

Adjacency is kept twice per direction: ``eids`` in store insertion order
(the order ``PropertyGraph.out_edges``/``in_edges`` yield) and
``typed_eids`` grouped by edge-type code with per-node segment offsets,
so a single-type expansion is one contiguous slice with zero per-edge
filtering while untyped expansion keeps store order bit-for-bit.

Snapshots are copy-on-write: :meth:`ColumnarGraph.apply_deltas` clones
the container spine (C-level copies) and layers small mutations on top —
appended nodes/edges, per-node ``extras`` adjacency, dead-id tombstone
sets — so a handful of deltas never forces an O(graph) recompile.  The
store falls back to :func:`compile_graph` past a budget or when the
change log lost history.

:func:`to_payload` / :func:`from_payload` serialise a fully compiled
snapshot (JSON-safe, sha256 checksummed) so dataset snapshots can ship
the CSR to gateway workers, which then skip recompilation.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.graph.changelog import DeltaKind, compact_deltas
from repro.graph.errors import GraphError
from repro.graph.model import Edge, Node
from repro.graph.store import property_index_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.changelog import GraphDelta
    from repro.graph.store import PropertyGraph

__all__ = [
    "ARTIFACT_VERSION",
    "ColumnarArtifactError",
    "ColumnarGraph",
    "compile_graph",
    "from_payload",
    "to_payload",
]

ARTIFACT_VERSION = 1

#: sentinel for "single relationship type unknown to this snapshot"
NO_TYPE = -1


class ColumnarArtifactError(GraphError):
    """A serialized CSR artifact is corrupt or does not fit the graph."""


class _Adjacency:
    """One direction's CSR: insertion-order row plus type segments.

    ``eids[offsets[n]:offsets[n+1]]`` is node ``n``'s full row in store
    insertion order; ``typed_eids`` holds the same row grouped by type
    code, delimited by the ``seg_*`` arrays.  ``extras`` overlays edges
    added after compilation as ``nid -> [(type_code, eid), ...]``.
    """

    __slots__ = (
        "offsets", "eids", "typed_eids",
        "seg_bounds", "seg_types", "seg_starts", "extras",
    )

    def __init__(
        self,
        offsets: array,
        eids: array,
        typed_eids: array,
        seg_bounds: array,
        seg_types: array,
        seg_starts: array,
        extras: dict[int, list[tuple[int, int]]] | None = None,
    ) -> None:
        self.offsets = offsets
        self.eids = eids
        self.typed_eids = typed_eids
        self.seg_bounds = seg_bounds
        self.seg_types = seg_types
        self.seg_starts = seg_starts
        self.extras = {} if extras is None else extras

    def clone(self) -> "_Adjacency":
        # base arrays are immutable once compiled; only extras are copied
        return _Adjacency(
            self.offsets, self.eids, self.typed_eids,
            self.seg_bounds, self.seg_types, self.seg_starts,
            {nid: list(entries) for nid, entries in self.extras.items()},
        )

    def typed_range(self, nid: int, type_code: int) -> tuple[int, int]:
        """[start, end) into ``typed_eids`` of ``nid``'s ``type_code`` row."""
        lo = self.seg_bounds[nid]
        hi = self.seg_bounds[nid + 1]
        for i in range(lo, hi):
            if self.seg_types[i] == type_code:
                start = self.seg_starts[i]
                end = (
                    self.seg_starts[i + 1] if i + 1 < hi
                    else self.offsets[nid + 1]
                )
                return start, end
        return 0, 0


def _build_adjacency(rows: list[list[tuple[int, int]]]) -> _Adjacency:
    offsets = array("q", [0])
    eids = array("I")
    typed_eids = array("I")
    seg_bounds = array("q", [0])
    seg_types = array("I")
    seg_starts = array("q")
    for row in rows:
        for _tc, eid in row:
            eids.append(eid)
        # stable sort: within a type, store insertion order is preserved
        row.sort(key=lambda entry: entry[0])
        previous = None
        for tc, eid in row:
            if tc != previous:
                seg_types.append(tc)
                seg_starts.append(len(typed_eids))
                previous = tc
            typed_eids.append(eid)
        offsets.append(len(eids))
        seg_bounds.append(len(seg_types))
    return _Adjacency(
        offsets, eids, typed_eids, seg_bounds, seg_types, seg_starts
    )


class ColumnarGraph:
    """Immutable int-id CSR snapshot of one graph epoch (see module doc)."""

    __slots__ = (
        # interned dictionaries
        "labels", "label_code", "etypes", "etype_code", "pkeys", "pkey_code",
        # nodes
        "node_ids", "node_index", "node_objs", "node_label_codes",
        "label_members", "label_sizes",
        # columnar properties + value indexes
        "node_cols", "sorted_index", "pair_counts",
        # edges
        "edge_ids", "edge_index", "edge_objs",
        "edge_types", "edge_src", "edge_dst", "edge_cols",
        "etype_counts", "etype_src", "etype_dst",
        # adjacency
        "out_adj", "in_adj",
        # overlay
        "dead_nodes", "dead_edges", "base_node_count", "overlay_ops",
        # provenance
        "graph_token", "epoch", "origin", "revision",
    )

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.label_code: dict[str, int] = {}
        self.etypes: list[str] = []
        self.etype_code: dict[str, int] = {}
        self.pkeys: list[str] = []
        self.pkey_code: dict[str, int] = {}
        self.node_ids: list[str] = []
        self.node_index: dict[str, int] = {}
        self.node_objs: list[Node] = []
        self.node_label_codes: list[tuple[int, ...]] = []
        self.label_members: dict[int, list[int]] = {}
        self.label_sizes: dict[int, int] = {}
        self.node_cols: dict[int, list] = {}
        self.sorted_index: dict[tuple[int, int], tuple[list, list[int]]] = {}
        self.pair_counts: dict[tuple[int, int], Counter] = {}
        self.edge_ids: list[str] = []
        self.edge_index: dict[str, int] = {}
        self.edge_objs: list[Edge] = []
        self.edge_types = array("I")
        self.edge_src = array("I")
        self.edge_dst = array("I")
        self.edge_cols: dict[int, list] = {}
        self.etype_counts: dict[int, int] = {}
        self.etype_src: dict[int, Counter] = {}
        self.etype_dst: dict[int, Counter] = {}
        self.out_adj = _build_adjacency([])
        self.in_adj = _build_adjacency([])
        self.dead_nodes: set[int] = set()
        self.dead_edges: set[int] = set()
        self.base_node_count = 0
        self.overlay_ops = 0
        self.graph_token = 0
        self.epoch = 0
        self.origin = "full"
        self.revision = 0

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _intern(self, table: list[str], codes: dict[str, int], name: str) -> int:
        code = codes.get(name)
        if code is None:
            code = len(table)
            table.append(name)
            codes[name] = code
        return code

    def _intern_label(self, name: str) -> int:
        return self._intern(self.labels, self.label_code, name)

    def _intern_etype(self, name: str) -> int:
        return self._intern(self.etypes, self.etype_code, name)

    def _intern_pkey(self, name: str) -> int:
        return self._intern(self.pkeys, self.pkey_code, name)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Live node count (tombstoned nodes excluded)."""
        return len(self.node_index)

    def edge_count(self) -> int:
        return len(self.edge_index)

    def node_int(self, node_id: str) -> int | None:
        return self.node_index.get(node_id)

    def node_prop(self, nid: int, key: str) -> object:
        code = self.pkey_code.get(key)
        if code is None:
            return None
        col = self.node_cols.get(code)
        if col is None or nid >= len(col):
            return None
        return col[nid]

    def edge_prop(self, eid: int, key: str) -> object:
        code = self.pkey_code.get(key)
        if code is None:
            return None
        col = self.edge_cols.get(code)
        if col is None or eid >= len(col):
            return None
        return col[eid]

    def has_labels(self, nid: int, label_codes: Sequence[int]) -> bool:
        own = self.node_label_codes[nid]
        for code in label_codes:
            if code not in own:
                return False
        return True

    def label_candidates(self, label: str) -> Iterator[int]:
        """Dense ids of live nodes carrying ``label``, insertion order."""
        code = self.label_code.get(label)
        if code is None:
            return
        dead = self.dead_nodes
        for nid in self.label_members.get(code, ()):
            if nid not in dead:
                yield nid

    def all_candidates(self) -> Iterator[int]:
        dead = self.dead_nodes
        for nid in range(len(self.node_ids)):
            if nid not in dead:
                yield nid

    def index_candidates(self, label: str, key: str, index_key: object) -> Iterator[int]:
        """Dense ids whose normalized ``key`` value equals ``index_key``."""
        lc = self.label_code.get(label)
        kc = self.pkey_code.get(key)
        if lc is None or kc is None:
            return
        entry = self.sorted_index.get((lc, kc))
        if entry is None:
            return
        keys, nids = entry
        lo = bisect_left(keys, index_key)
        hi = bisect_right(keys, index_key)
        for i in range(lo, hi):
            yield nids[i]

    def single_type_code(self, type_name: str) -> int:
        """Type code for a one-type expansion (NO_TYPE when unknown)."""
        code = self.etype_code.get(type_name)
        return NO_TYPE if code is None else code

    def adjacency(
        self, nid: int, type_code: int | None, out: bool
    ) -> Iterator[tuple[int, int]]:
        """(edge, neighbour) dense-id pairs leaving/entering ``nid``.

        ``type_code`` None iterates the full row in store insertion
        order (the caller filters by type);
        :data:`NO_TYPE` yields nothing; any other code walks exactly the
        contiguous typed slice.
        """
        if type_code == NO_TYPE:
            return
        adj = self.out_adj if out else self.in_adj
        other = self.edge_dst if out else self.edge_src
        dead = self.dead_edges
        if nid < self.base_node_count:
            if type_code is None:
                eids = adj.eids
                start = adj.offsets[nid]
                end = adj.offsets[nid + 1]
            else:
                eids = adj.typed_eids
                start, end = adj.typed_range(nid, type_code)
            if dead:
                for i in range(start, end):
                    eid = eids[i]
                    if eid not in dead:
                        yield eid, other[eid]
            else:
                for i in range(start, end):
                    eid = eids[i]
                    yield eid, other[eid]
        extras = adj.extras.get(nid)
        if extras:
            for tc, eid in extras:
                if type_code is not None and tc != type_code:
                    continue
                if eid not in dead:
                    yield eid, other[eid]

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _clone(self) -> "ColumnarGraph":
        snap = ColumnarGraph.__new__(ColumnarGraph)
        snap.labels = list(self.labels)
        snap.label_code = dict(self.label_code)
        snap.etypes = list(self.etypes)
        snap.etype_code = dict(self.etype_code)
        snap.pkeys = list(self.pkeys)
        snap.pkey_code = dict(self.pkey_code)
        snap.node_ids = list(self.node_ids)
        snap.node_index = dict(self.node_index)
        snap.node_objs = list(self.node_objs)
        snap.node_label_codes = list(self.node_label_codes)
        snap.label_members = {
            code: list(members) for code, members in self.label_members.items()
        }
        snap.label_sizes = dict(self.label_sizes)
        snap.node_cols = {code: list(col) for code, col in self.node_cols.items()}
        snap.sorted_index = dict(self.sorted_index)
        snap.pair_counts = {
            pair: Counter(counts) for pair, counts in self.pair_counts.items()
        }
        snap.edge_ids = list(self.edge_ids)
        snap.edge_index = dict(self.edge_index)
        snap.edge_objs = list(self.edge_objs)
        snap.edge_types = array("I", self.edge_types)
        snap.edge_src = array("I", self.edge_src)
        snap.edge_dst = array("I", self.edge_dst)
        snap.edge_cols = {code: list(col) for code, col in self.edge_cols.items()}
        snap.etype_counts = dict(self.etype_counts)
        snap.etype_src = {
            code: Counter(counts) for code, counts in self.etype_src.items()
        }
        snap.etype_dst = {
            code: Counter(counts) for code, counts in self.etype_dst.items()
        }
        snap.out_adj = self.out_adj.clone()
        snap.in_adj = self.in_adj.clone()
        snap.dead_nodes = set(self.dead_nodes)
        snap.dead_edges = set(self.dead_edges)
        snap.base_node_count = self.base_node_count
        snap.overlay_ops = self.overlay_ops
        snap.graph_token = self.graph_token
        snap.epoch = self.epoch
        snap.origin = self.origin
        snap.revision = self.revision
        return snap

    def apply_deltas(
        self, graph: "PropertyGraph", deltas: Sequence["GraphDelta"]
    ) -> "ColumnarGraph":
        """A new snapshot with ``deltas`` layered on top of this one.

        ``graph`` must be the post-delta state (subjects of surviving add
        deltas are resolved against it); raises on any inconsistency, in
        which case the caller recompiles from scratch.
        """
        snap = self._clone()
        dirty_pairs: set[tuple[int, int]] = set()
        compacted = compact_deltas(list(deltas))
        for delta in compacted:
            kind = delta.kind
            if kind is DeltaKind.NODE_ADDED:
                snap._overlay_node_added(graph, delta, dirty_pairs)
            elif kind is DeltaKind.NODE_REMOVED:
                snap._overlay_node_removed(delta, dirty_pairs)
            elif kind is DeltaKind.NODE_PROPS:
                snap._overlay_node_props(graph, delta, dirty_pairs)
            elif kind is DeltaKind.EDGE_ADDED:
                snap._overlay_edge_added(graph, delta)
            elif kind is DeltaKind.EDGE_REMOVED:
                snap._overlay_edge_removed(delta)
            else:  # EDGE_PROPS
                snap._overlay_edge_props(graph, delta)
        snap._rebuild_sorted_indexes(dirty_pairs)
        snap.overlay_ops += len(compacted)
        snap.origin = "incremental"
        snap.revision += 1
        snap.graph_token, snap.epoch = graph.fingerprint()
        return snap

    def _col_set(self, cols: dict[int, list], code: int, row: int, value: object) -> None:
        col = cols.get(code)
        if col is None:
            col = cols[code] = []
        if len(col) <= row:
            col.extend([None] * (row + 1 - len(col)))
        col[row] = value

    def _overlay_node_added(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        dirty_pairs: set[tuple[int, int]],
    ) -> None:
        node = graph.node(delta.subject_id)
        nid = len(self.node_ids)
        self.node_ids.append(node.id)
        self.node_objs.append(node)
        self.node_index[node.id] = nid
        lcodes = tuple(self._intern_label(l) for l in sorted(node.labels))
        self.node_label_codes.append(lcodes)
        for lc in lcodes:
            self.label_members.setdefault(lc, []).append(nid)
            self.label_sizes[lc] = self.label_sizes.get(lc, 0) + 1
        for key, value in node.properties.items():
            kc = self._intern_pkey(key)
            self._col_set(self.node_cols, kc, nid, value)
            index_key = property_index_key(value)
            if index_key is None:
                continue
            for lc in lcodes:
                pair = (lc, kc)
                self.pair_counts.setdefault(pair, Counter())[index_key] += 1
                dirty_pairs.add(pair)

    def _overlay_node_removed(
        self, delta: "GraphDelta", dirty_pairs: set[tuple[int, int]]
    ) -> None:
        nid = self.node_index.pop(delta.subject_id)
        self.dead_nodes.add(nid)
        lcodes = self.node_label_codes[nid]
        for lc in lcodes:
            self.label_sizes[lc] = self.label_sizes.get(lc, 0) - 1
        for kc, col in self.node_cols.items():
            value = col[nid] if nid < len(col) else None
            index_key = property_index_key(value)
            if index_key is None:
                continue
            for lc in lcodes:
                pair = (lc, kc)
                self._uncount(pair, index_key)
                dirty_pairs.add(pair)

    def _overlay_node_props(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        dirty_pairs: set[tuple[int, int]],
    ) -> None:
        nid = self.node_index[delta.subject_id]
        node = graph.node(delta.subject_id)
        self.node_objs[nid] = node
        lcodes = self.node_label_codes[nid]
        for key in delta.keys:
            kc = self._intern_pkey(key)
            col = self.node_cols.get(kc)
            old = col[nid] if col is not None and nid < len(col) else None
            new = node.properties.get(key)
            self._col_set(self.node_cols, kc, nid, new)
            old_key = property_index_key(old)
            new_key = property_index_key(new)
            if old_key == new_key:
                continue
            for lc in lcodes:
                pair = (lc, kc)
                if old_key is not None:
                    self._uncount(pair, old_key)
                if new_key is not None:
                    self.pair_counts.setdefault(pair, Counter())[new_key] += 1
                dirty_pairs.add(pair)

    def _uncount(self, pair: tuple[int, int], index_key: object) -> None:
        counts = self.pair_counts.get(pair)
        if counts is None:
            return
        counts[index_key] -= 1
        if counts[index_key] <= 0:
            del counts[index_key]

    def _overlay_edge_added(
        self, graph: "PropertyGraph", delta: "GraphDelta"
    ) -> None:
        edge = graph.edge(delta.subject_id)
        eid = len(self.edge_ids)
        src = self.node_index[edge.src]
        dst = self.node_index[edge.dst]
        tc = self._intern_etype(edge.label)
        self.edge_ids.append(edge.id)
        self.edge_objs.append(edge)
        self.edge_index[edge.id] = eid
        self.edge_types.append(tc)
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        for key, value in edge.properties.items():
            self._col_set(self.edge_cols, self._intern_pkey(key), eid, value)
        self.out_adj.extras.setdefault(src, []).append((tc, eid))
        self.in_adj.extras.setdefault(dst, []).append((tc, eid))
        self.etype_counts[tc] = self.etype_counts.get(tc, 0) + 1
        self.etype_src.setdefault(tc, Counter())[edge.src] += 1
        self.etype_dst.setdefault(tc, Counter())[edge.dst] += 1

    def _overlay_edge_removed(self, delta: "GraphDelta") -> None:
        eid = self.edge_index.pop(delta.subject_id)
        edge = self.edge_objs[eid]
        tc = self.edge_types[eid]
        self.dead_edges.add(eid)
        for adj, nid in (
            (self.out_adj, self.edge_src[eid]),
            (self.in_adj, self.edge_dst[eid]),
        ):
            extras = adj.extras.get(nid)
            if extras:
                adj.extras[nid] = [e for e in extras if e[1] != eid]
        self.etype_counts[tc] = self.etype_counts.get(tc, 0) - 1
        for counter, endpoint in (
            (self.etype_src.get(tc), edge.src),
            (self.etype_dst.get(tc), edge.dst),
        ):
            if counter is not None:
                counter[endpoint] -= 1
                if counter[endpoint] <= 0:
                    del counter[endpoint]

    def _overlay_edge_props(
        self, graph: "PropertyGraph", delta: "GraphDelta"
    ) -> None:
        eid = self.edge_index[delta.subject_id]
        edge = graph.edge(delta.subject_id)
        self.edge_objs[eid] = edge
        for key in delta.keys:
            self._col_set(
                self.edge_cols, self._intern_pkey(key), eid,
                edge.properties.get(key),
            )

    def _rebuild_sorted_indexes(
        self, dirty_pairs: set[tuple[int, int]]
    ) -> None:
        for pair in dirty_pairs:
            counts = self.pair_counts.get(pair)
            if not counts:
                self.pair_counts.pop(pair, None)
                self.sorted_index.pop(pair, None)
                continue
            lc, kc = pair
            col = self.node_cols.get(kc, ())
            width = len(col)
            dead = self.dead_nodes
            entries = []
            for nid in self.label_members.get(lc, ()):
                if nid in dead:
                    continue
                value = col[nid] if nid < width else None
                index_key = property_index_key(value)
                if index_key is not None:
                    entries.append((index_key, nid))
            entries.sort()
            self.sorted_index[pair] = (
                [entry[0] for entry in entries],
                [entry[1] for entry in entries],
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarGraph(nodes={self.node_count()}, "
            f"edges={self.edge_count()}, origin={self.origin!r}, "
            f"overlay_ops={self.overlay_ops})"
        )


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_graph(graph: "PropertyGraph") -> ColumnarGraph:
    """Compile a full columnar snapshot of ``graph``'s current contents."""
    snap = ColumnarGraph()
    pair_entries: dict[tuple[int, int], list[tuple[object, int]]] = {}

    for node in graph.nodes():
        nid = len(snap.node_ids)
        snap.node_ids.append(node.id)
        snap.node_objs.append(node)
        snap.node_index[node.id] = nid
        lcodes = tuple(snap._intern_label(l) for l in sorted(node.labels))
        snap.node_label_codes.append(lcodes)
        for lc in lcodes:
            snap.label_members.setdefault(lc, []).append(nid)
            snap.label_sizes[lc] = snap.label_sizes.get(lc, 0) + 1
        for key, value in node.properties.items():
            kc = snap._intern_pkey(key)
            snap._col_set(snap.node_cols, kc, nid, value)
            index_key = property_index_key(value)
            if index_key is None:
                continue
            for lc in lcodes:
                pair = (lc, kc)
                snap.pair_counts.setdefault(pair, Counter())[index_key] += 1
                pair_entries.setdefault(pair, []).append((index_key, nid))

    for pair, entries in pair_entries.items():
        entries.sort()
        snap.sorted_index[pair] = (
            [entry[0] for entry in entries],
            [entry[1] for entry in entries],
        )

    n = len(snap.node_ids)
    out_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    in_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for edge in graph.edges():
        eid = len(snap.edge_ids)
        tc = snap._intern_etype(edge.label)
        src = snap.node_index[edge.src]
        dst = snap.node_index[edge.dst]
        snap.edge_ids.append(edge.id)
        snap.edge_objs.append(edge)
        snap.edge_index[edge.id] = eid
        snap.edge_types.append(tc)
        snap.edge_src.append(src)
        snap.edge_dst.append(dst)
        out_rows[src].append((tc, eid))
        in_rows[dst].append((tc, eid))
        snap.etype_counts[tc] = snap.etype_counts.get(tc, 0) + 1
        snap.etype_src.setdefault(tc, Counter())[edge.src] += 1
        snap.etype_dst.setdefault(tc, Counter())[edge.dst] += 1
        for key, value in edge.properties.items():
            snap._col_set(snap.edge_cols, snap._intern_pkey(key), eid, value)

    snap.out_adj = _build_adjacency(out_rows)
    snap.in_adj = _build_adjacency(in_rows)
    snap.base_node_count = n
    snap.graph_token, snap.epoch = graph.fingerprint()
    return snap


# ----------------------------------------------------------------------
# serialization (dataset snapshot artifacts)
# ----------------------------------------------------------------------
def _encode_array(arr: array) -> dict[str, str]:
    return {
        "tc": arr.typecode,
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(payload: object, typecode: str) -> array:
    if not isinstance(payload, dict) or payload.get("tc") != typecode:
        raise ColumnarArtifactError("malformed CSR array payload")
    arr = array(typecode)
    try:
        arr.frombytes(base64.b64decode(payload["data"]))
    except (KeyError, TypeError, ValueError) as error:
        raise ColumnarArtifactError(
            f"undecodable CSR array payload: {error}"
        ) from error
    return arr


def _encode_adjacency(adj: _Adjacency) -> dict[str, object]:
    return {
        "offsets": _encode_array(adj.offsets),
        "eids": _encode_array(adj.eids),
        "typed_eids": _encode_array(adj.typed_eids),
        "seg_bounds": _encode_array(adj.seg_bounds),
        "seg_types": _encode_array(adj.seg_types),
        "seg_starts": _encode_array(adj.seg_starts),
    }


def _decode_adjacency(payload: object) -> _Adjacency:
    if not isinstance(payload, dict):
        raise ColumnarArtifactError("malformed CSR adjacency payload")
    return _Adjacency(
        _decode_array(payload.get("offsets"), "q"),
        _decode_array(payload.get("eids"), "I"),
        _decode_array(payload.get("typed_eids"), "I"),
        _decode_array(payload.get("seg_bounds"), "q"),
        _decode_array(payload.get("seg_types"), "I"),
        _decode_array(payload.get("seg_starts"), "q"),
    )


def _checksum(body: dict[str, object]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def to_payload(snapshot: ColumnarGraph) -> dict[str, object]:
    """Serialize a fully compiled snapshot as a JSON-safe dict."""
    if snapshot.overlay_ops or snapshot.dead_nodes or snapshot.dead_edges:
        raise ColumnarArtifactError(
            "only fully compiled snapshots can be serialized"
        )
    body: dict[str, object] = {
        "version": ARTIFACT_VERSION,
        "byteorder": sys.byteorder,
        "labels": list(snapshot.labels),
        "etypes": list(snapshot.etypes),
        "pkeys": list(snapshot.pkeys),
        "node_ids": list(snapshot.node_ids),
        "node_label_codes": [list(t) for t in snapshot.node_label_codes],
        "node_cols": {
            str(code): list(col) for code, col in snapshot.node_cols.items()
        },
        "edge_ids": list(snapshot.edge_ids),
        "edge_types": _encode_array(snapshot.edge_types),
        "edge_src": _encode_array(snapshot.edge_src),
        "edge_dst": _encode_array(snapshot.edge_dst),
        "edge_cols": {
            str(code): list(col) for code, col in snapshot.edge_cols.items()
        },
        "out": _encode_adjacency(snapshot.out_adj),
        "in": _encode_adjacency(snapshot.in_adj),
        "sorted_index": [
            [lc, kc, [[list(key), nid] for key, nid in zip(keys, nids)]]
            for (lc, kc), (keys, nids) in snapshot.sorted_index.items()
        ],
        "pair_counts": [
            [lc, kc, [[list(key), count] for key, count in counts.items()]]
            for (lc, kc), counts in snapshot.pair_counts.items()
        ],
        "etype_counts": sorted(snapshot.etype_counts.items()),
        "etype_src": [
            [tc, sorted(counts.items())]
            for tc, counts in snapshot.etype_src.items()
        ],
        "etype_dst": [
            [tc, sorted(counts.items())]
            for tc, counts in snapshot.etype_dst.items()
        ],
    }
    body["checksum"] = _checksum(
        {key: value for key, value in body.items() if key != "checksum"}
    )
    return body


def from_payload(
    payload: object, graph: "PropertyGraph"
) -> ColumnarGraph:
    """Rebuild a snapshot from :func:`to_payload` output, validated
    against ``graph`` (which must hold the same nodes and edges)."""
    if not isinstance(payload, dict):
        raise ColumnarArtifactError("CSR artifact is not a mapping")
    checksum = payload.get("checksum")
    body = {key: value for key, value in payload.items() if key != "checksum"}
    if checksum != _checksum(body):
        raise ColumnarArtifactError("CSR artifact checksum mismatch")
    if body.get("version") != ARTIFACT_VERSION:
        raise ColumnarArtifactError(
            f"CSR artifact version {body.get('version')!r} unsupported"
        )
    if body.get("byteorder") != sys.byteorder:
        raise ColumnarArtifactError("CSR artifact byte order mismatch")

    snap = ColumnarGraph()
    try:
        snap.labels = list(body["labels"])
        snap.label_code = {name: i for i, name in enumerate(snap.labels)}
        snap.etypes = list(body["etypes"])
        snap.etype_code = {name: i for i, name in enumerate(snap.etypes)}
        snap.pkeys = list(body["pkeys"])
        snap.pkey_code = {name: i for i, name in enumerate(snap.pkeys)}
        snap.node_ids = list(body["node_ids"])
        snap.node_label_codes = [
            tuple(codes) for codes in body["node_label_codes"]
        ]
        snap.node_cols = {
            int(code): list(col) for code, col in body["node_cols"].items()
        }
        snap.edge_ids = list(body["edge_ids"])
        snap.edge_cols = {
            int(code): list(col) for code, col in body["edge_cols"].items()
        }
        snap.sorted_index = {
            (lc, kc): (
                [tuple(key) for key, _nid in entries],
                [nid for _key, nid in entries],
            )
            for lc, kc, entries in body["sorted_index"]
        }
        snap.pair_counts = {
            (lc, kc): Counter({tuple(key): count for key, count in counts})
            for lc, kc, counts in body["pair_counts"]
        }
        snap.etype_counts = {tc: count for tc, count in body["etype_counts"]}
        snap.etype_src = {
            tc: Counter(dict(counts)) for tc, counts in body["etype_src"]
        }
        snap.etype_dst = {
            tc: Counter(dict(counts)) for tc, counts in body["etype_dst"]
        }
    except (KeyError, TypeError, ValueError) as error:
        raise ColumnarArtifactError(
            f"malformed CSR artifact: {error}"
        ) from error
    snap.edge_types = _decode_array(body.get("edge_types"), "I")
    snap.edge_src = _decode_array(body.get("edge_src"), "I")
    snap.edge_dst = _decode_array(body.get("edge_dst"), "I")
    snap.out_adj = _decode_adjacency(body.get("out"))
    snap.in_adj = _decode_adjacency(body.get("in"))

    n = len(snap.node_ids)
    e = len(snap.edge_ids)
    if graph.node_count() != n or graph.edge_count() != e:
        raise ColumnarArtifactError("CSR artifact does not match the graph")
    if (
        len(snap.node_label_codes) != n
        or len(snap.edge_types) != e
        or len(snap.edge_src) != e
        or len(snap.edge_dst) != e
        or len(snap.out_adj.offsets) != n + 1
        or len(snap.in_adj.offsets) != n + 1
        or len(snap.out_adj.eids) != e
        or len(snap.in_adj.eids) != e
    ):
        raise ColumnarArtifactError("CSR artifact has inconsistent shapes")
    try:
        snap.node_objs = [graph.node(node_id) for node_id in snap.node_ids]
        snap.edge_objs = [graph.edge(edge_id) for edge_id in snap.edge_ids]
    except GraphError as error:
        raise ColumnarArtifactError(
            f"CSR artifact references unknown elements: {error}"
        ) from error
    snap.node_index = {node_id: i for i, node_id in enumerate(snap.node_ids)}
    snap.edge_index = {edge_id: i for i, edge_id in enumerate(snap.edge_ids)}
    for nid, lcodes in enumerate(snap.node_label_codes):
        for lc in lcodes:
            snap.label_members.setdefault(lc, []).append(nid)
            snap.label_sizes[lc] = snap.label_sizes.get(lc, 0) + 1
    snap.base_node_count = n
    snap.origin = "artifact"
    return snap
