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

Snapshots are copy-on-write: :meth:`ColumnarGraph.apply_deltas` copies
the flat, id-indexed containers (C-level copies) and shares the nested
per-key ones — property columns, label members, value indexes and
counters, each adjacency's ``extras`` rows — with its parent, copying
one only on its first write, then layers small mutations on top:
appended nodes/edges, per-node ``extras`` adjacency, dead-id tombstone
sets, value-index entries moved by bisection.  A batch thus costs what
it touches, the parent reads exactly as before, and a handful of deltas
never forces an O(graph) recompile.  The store recompiles with
:func:`compile_graph` past a budget or when its change log lost history.
A snapshot lives only in the process that compiled it: a gateway worker
compiles its own on its first query.

A derived snapshot keeps a ``link`` to its parent and the compacted
deltas between them, so readers can carry what they derived from the
parent instead of recomputing it: the planner catalog's property
sketches (:mod:`repro.graph.statistics`) and the matcher's count views
(:mod:`repro.cypher.matcher`), which this layer stores in
``count_views`` without reading them.  Deriving a child clears the
parent's own link, so a chain never keeps more than two snapshots alive
beyond those a reader still holds.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.graph.changelog import DeltaKind
from repro.graph.model import Edge, Node
from repro.graph.store import property_index_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.changelog import GraphDelta
    from repro.graph.statistics import PropertySketch
    from repro.graph.store import PropertyGraph

__all__ = [
    "ColumnarGraph",
    "compile_graph",
]

#: sentinel for "single relationship type unknown to this snapshot"
NO_TYPE = -1


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


def _shared_adjacency(adj: _Adjacency) -> _Adjacency:
    # compiled arrays never change; ``extras`` rows are copied on write
    return _Adjacency(
        adj.offsets, adj.eids, adj.typed_eids,
        adj.seg_bounds, adj.seg_types, adj.seg_starts, dict(adj.extras),
    )


def _set_row(col: list, row: int, value: object) -> None:
    if len(col) <= row:
        col.extend([None] * (row + 1 - len(col)))
    col[row] = value


def _copy_index(
    entry: tuple[list, list[int]] | None = None,
) -> tuple[list, list[int]]:
    return ([], []) if entry is None else (list(entry[0]), list(entry[1]))


def _index_slot(keys: list, nids: list[int], key: object, nid: int) -> int:
    """Where (``key``, ``nid``) sits in a value index sorted by
    (index key, dense id)."""
    lo = bisect_left(keys, key)
    return bisect_left(nids, nid, lo, bisect_right(keys, key, lo))


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
    """Int-id CSR snapshot of one graph epoch (see module doc), immutable
    once built except for the reader-derived fields last in its slots."""

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
        # derived by readers: the parent link and what they carry over it
        "link", "sketches", "count_views",
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
        # (parent snapshot, compacted deltas from it) until a reader
        # carries what it derived from the parent, or a child is derived
        self.link: tuple["ColumnarGraph", Sequence["GraphDelta"]] | None = None
        # PropertySketch per (label code, key code), filled by the catalog
        self.sketches: dict[tuple[int, int], "PropertySketch"] = {}
        # the matcher's count views, opaque here
        self.count_views: dict = {}

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

    def column(self, key: str, edges: bool = False) -> Sequence[object]:
        """The node (or edge) property column of ``key``, by dense id;
        rows past its end, and every row of an unknown key, are null."""
        columns = self.edge_cols if edges else self.node_cols
        return columns.get(self.pkey_code.get(key), ())

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
        # flat, id-indexed containers are copied at C speed; nested
        # per-key containers are shared until :meth:`_own` copies one
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
        snap.label_members = dict(self.label_members)
        snap.label_sizes = dict(self.label_sizes)
        snap.node_cols = dict(self.node_cols)
        snap.sorted_index = dict(self.sorted_index)
        snap.pair_counts = dict(self.pair_counts)
        snap.edge_ids = list(self.edge_ids)
        snap.edge_index = dict(self.edge_index)
        snap.edge_objs = list(self.edge_objs)
        snap.edge_types = array("I", self.edge_types)
        snap.edge_src = array("I", self.edge_src)
        snap.edge_dst = array("I", self.edge_dst)
        snap.edge_cols = dict(self.edge_cols)
        snap.etype_counts = dict(self.etype_counts)
        snap.etype_src = dict(self.etype_src)
        snap.etype_dst = dict(self.etype_dst)
        snap.out_adj = _shared_adjacency(self.out_adj)
        snap.in_adj = _shared_adjacency(self.in_adj)
        snap.dead_nodes = set(self.dead_nodes)
        snap.dead_edges = set(self.dead_edges)
        snap.base_node_count = self.base_node_count
        snap.overlay_ops = self.overlay_ops
        snap.graph_token = self.graph_token
        snap.epoch = self.epoch
        snap.origin = self.origin
        snap.revision = self.revision
        snap.link = None
        snap.sketches = {}
        snap.count_views = {}
        return snap

    def apply_deltas(
        self, graph: "PropertyGraph", deltas: Sequence["GraphDelta"]
    ) -> "ColumnarGraph":
        """A new snapshot with ``deltas`` layered on top of this one,
        which reads exactly as before.

        ``deltas`` are compacted, as ``PropertyGraph.changes_since``
        returns them, and ``graph`` must be the post-delta state
        (subjects of add deltas are resolved against it).  Raises on any
        inconsistency: a delta this snapshot cannot apply is a bug, not a
        reason to recompile.  The new snapshot links back to this one
        with ``deltas``, and keeps the catalog sketches of every
        (label, key) pair whose counter the batch did not write; this
        snapshot's own link is cleared (the only field written here).
        """
        snap = self._clone()
        # (id(table), key) of every container this derivation copied
        owned: set[tuple[int, object]] = set()
        for delta in deltas:
            kind = delta.kind
            if kind is DeltaKind.NODE_ADDED:
                snap._overlay_node_added(graph, delta, owned)
            elif kind is DeltaKind.NODE_REMOVED:
                snap._overlay_node_removed(delta, owned)
            elif kind is DeltaKind.NODE_PROPS:
                snap._overlay_node_props(graph, delta, owned)
            elif kind is DeltaKind.EDGE_ADDED:
                snap._overlay_edge_added(graph, delta, owned)
            elif kind is DeltaKind.EDGE_REMOVED:
                snap._overlay_edge_removed(delta, owned)
            else:  # EDGE_PROPS
                snap._overlay_edge_props(graph, delta, owned)
        sketches = dict(self.sketches)    # one C-level copy: readers add
        counters = id(snap.pair_counts)
        for table, pair in owned:
            if table != counters:
                continue
            sketches.pop(pair, None)
            if not snap.pair_counts[pair]:
                del snap.pair_counts[pair]
                del snap.sorted_index[pair]
        snap.sketches = sketches
        snap.overlay_ops += len(deltas)
        snap.origin = "incremental"
        snap.revision += 1
        snap.graph_token, snap.epoch = graph.fingerprint()
        self.link = None
        snap.link = (self, deltas)
        return snap

    def _own(
        self, table: dict, key: object, copy, owned: set[tuple[int, object]]
    ):
        """``table[key]``, ready for writing: on this derivation's first
        write to it, a copy (``copy(value)``, or ``copy()`` when absent)
        replaces the container the parent shares."""
        token = (id(table), key)
        if token in owned:
            return table[key]
        owned.add(token)
        value = table.get(key)
        value = table[key] = copy() if value is None else copy(value)
        return value

    def _move_value(
        self, nid: int, lcodes: tuple[int, ...], kc: int,
        old_key: object | None, new_key: object | None,
        owned: set[tuple[int, object]],
    ) -> None:
        """Move node ``nid``'s (label, ``kc``) counts and value-index
        entries from ``old_key`` to ``new_key`` (None: no entry).  Each
        index stays sorted by (index key, dense id), as compiled."""
        for lc in lcodes:
            pair = (lc, kc)
            counts = self._own(self.pair_counts, pair, Counter, owned)
            keys, nids = self._own(self.sorted_index, pair, _copy_index, owned)
            if old_key is not None:
                counts[old_key] -= 1
                if counts[old_key] <= 0:
                    del counts[old_key]
                at = _index_slot(keys, nids, old_key, nid)
                if at == len(nids) or (keys[at], nids[at]) != (old_key, nid):
                    raise ValueError(
                        f"value index {pair} has no entry for node {nid}"
                    )
                del keys[at]
                del nids[at]
            if new_key is not None:
                counts[new_key] += 1
                at = _index_slot(keys, nids, new_key, nid)
                keys.insert(at, new_key)
                nids.insert(at, nid)

    def _overlay_node_added(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        owned: set[tuple[int, object]],
    ) -> None:
        node = graph.node(delta.subject_id)
        nid = len(self.node_ids)
        self.node_ids.append(node.id)
        self.node_objs.append(node)
        self.node_index[node.id] = nid
        lcodes = tuple(self._intern_label(l) for l in sorted(node.labels))
        self.node_label_codes.append(lcodes)
        for lc in lcodes:
            self._own(self.label_members, lc, list, owned).append(nid)
            self.label_sizes[lc] = self.label_sizes.get(lc, 0) + 1
        for key, value in node.properties.items():
            kc = self._intern_pkey(key)
            _set_row(self._own(self.node_cols, kc, list, owned), nid, value)
            index_key = property_index_key(value)
            if index_key is not None:
                self._move_value(nid, lcodes, kc, None, index_key, owned)

    def _overlay_node_removed(
        self, delta: "GraphDelta", owned: set[tuple[int, object]]
    ) -> None:
        nid = self.node_index.pop(delta.subject_id)
        self.dead_nodes.add(nid)
        lcodes = self.node_label_codes[nid]
        for lc in lcodes:
            self.label_sizes[lc] = self.label_sizes.get(lc, 0) - 1
        for kc, col in self.node_cols.items():
            value = col[nid] if nid < len(col) else None
            index_key = property_index_key(value)
            if index_key is not None:
                self._move_value(nid, lcodes, kc, index_key, None, owned)

    def _overlay_node_props(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        owned: set[tuple[int, object]],
    ) -> None:
        nid = self.node_index[delta.subject_id]
        node = graph.node(delta.subject_id)
        self.node_objs[nid] = node
        lcodes = self.node_label_codes[nid]
        for key in delta.keys:
            kc = self._intern_pkey(key)
            col = self.node_cols.get(kc, ())
            old = col[nid] if nid < len(col) else None
            new = node.properties.get(key)
            _set_row(self._own(self.node_cols, kc, list, owned), nid, new)
            old_key = property_index_key(old)
            new_key = property_index_key(new)
            if old_key != new_key:
                self._move_value(nid, lcodes, kc, old_key, new_key, owned)

    def _overlay_edge_added(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        owned: set[tuple[int, object]],
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
            kc = self._intern_pkey(key)
            _set_row(self._own(self.edge_cols, kc, list, owned), eid, value)
        self._own(self.out_adj.extras, src, list, owned).append((tc, eid))
        self._own(self.in_adj.extras, dst, list, owned).append((tc, eid))
        self.etype_counts[tc] = self.etype_counts.get(tc, 0) + 1
        self._own(self.etype_src, tc, Counter, owned)[edge.src] += 1
        self._own(self.etype_dst, tc, Counter, owned)[edge.dst] += 1

    def _overlay_edge_removed(
        self, delta: "GraphDelta", owned: set[tuple[int, object]]
    ) -> None:
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
                # a new row: the parent keeps the one it shares
                adj.extras[nid] = [e for e in extras if e[1] != eid]
        self.etype_counts[tc] = self.etype_counts.get(tc, 0) - 1
        for table, endpoint in (
            (self.etype_src, edge.src),
            (self.etype_dst, edge.dst),
        ):
            counter = self._own(table, tc, Counter, owned)
            counter[endpoint] -= 1
            if counter[endpoint] <= 0:
                del counter[endpoint]

    def _overlay_edge_props(
        self, graph: "PropertyGraph", delta: "GraphDelta",
        owned: set[tuple[int, object]],
    ) -> None:
        eid = self.edge_index[delta.subject_id]
        edge = graph.edge(delta.subject_id)
        self.edge_objs[eid] = edge
        for key in delta.keys:
            kc = self._intern_pkey(key)
            _set_row(
                self._own(self.edge_cols, kc, list, owned), eid,
                edge.properties.get(key),
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
            _set_row(snap.node_cols.setdefault(kc, []), nid, value)
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
            kc = snap._intern_pkey(key)
            _set_row(snap.edge_cols.setdefault(kc, []), eid, value)

    snap.out_adj = _build_adjacency(out_rows)
    snap.in_adj = _build_adjacency(in_rows)
    snap.base_node_count = n
    snap.graph_token, snap.epoch = graph.fingerprint()
    return snap
