"""Descriptive statistics over property graphs.

Two consumers share this module:

* :func:`compute_statistics` drives the paper's Table 1 (node/edge and
  label counts plus degree extremes);
* :func:`catalog_from_columnar` produces the planner-grade
  :class:`GraphCatalog` — per-label cardinalities, per-(label, property)
  distinct-value counts with most-common-value sketches, and per-edge-label
  fan-out/fan-in averages — that the cost-based query planner in
  :mod:`repro.cypher.planner` uses for cardinality estimation.

The catalog is immutable; :meth:`repro.graph.store.PropertyGraph.catalog`
derives one from the CSR snapshot per mutation epoch, so writes
invalidate it automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.graph.store import PropertyGraph, property_index_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.columnar import ColumnarGraph

#: most-common-value sketch width per (label, property) pair
MCV_WIDTH = 8


@dataclass(frozen=True)
class GraphStatistics:
    """The Table 1 row for one dataset, plus a few extras."""

    name: str
    nodes: int
    edges: int
    node_labels: int
    edge_labels: int
    node_label_counts: dict[str, int]
    edge_label_counts: dict[str, int]
    max_degree: int
    avg_degree: float

    def as_table1_row(self) -> tuple[str, int, int, int, int]:
        """The exact columns of the paper's Table 1."""
        return (self.name, self.nodes, self.edges, self.node_labels,
                self.edge_labels)


def compute_statistics(graph: PropertyGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph`` in one pass."""
    node_label_counts = {
        label: graph.node_count(label) for label in graph.node_labels()
    }
    edge_label_counts = {
        label: graph.edge_count(label) for label in graph.edge_labels()
    }
    degrees = [graph.degree(node.id) for node in graph.nodes()]
    max_degree = max(degrees, default=0)
    avg_degree = sum(degrees) / len(degrees) if degrees else 0.0
    return GraphStatistics(
        name=graph.name,
        nodes=graph.node_count(),
        edges=graph.edge_count(),
        node_labels=len(node_label_counts),
        edge_labels=len(edge_label_counts),
        max_degree=max_degree,
        avg_degree=avg_degree,
        node_label_counts=node_label_counts,
        edge_label_counts=edge_label_counts,
    )


# ----------------------------------------------------------------------
# planner catalog
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertySketch:
    """Value distribution of one (node label, property key) pair.

    ``top`` holds the most-common normalized values with their exact
    counts (a classic MCV list); equality selectivity for values outside
    the list falls back to a uniform spread of the remaining rows over
    the remaining distinct values.
    """

    present: int            # nodes of the label that have the property
    distinct: int           # distinct indexable values observed
    top: tuple[tuple[object, int], ...]  # ((index_key, count), ...) desc

    def estimate_eq(self, value: object) -> float:
        """Estimated rows for ``property = value`` within the label."""
        if self.present == 0 or self.distinct == 0:
            return 0.0
        key = property_index_key(value)
        if key is None:
            return 0.0  # null/list equality never hits the index
        for top_key, count in self.top:
            if top_key == key:
                return float(count)
        remaining_rows = self.present - sum(c for _, c in self.top)
        remaining_distinct = self.distinct - len(self.top)
        if remaining_distinct <= 0 or remaining_rows <= 0:
            # every observed value is in the sketch; an unseen value
            # matches nothing, but stay >0 so plans still order sanely
            return 0.5
        return remaining_rows / remaining_distinct


@dataclass(frozen=True)
class EdgeLabelStats:
    """Fan-out/fan-in shape of one edge label."""

    count: int          # total edges with this label
    distinct_src: int   # distinct source nodes
    distinct_dst: int   # distinct destination nodes

    @property
    def avg_out(self) -> float:
        """Average out-fan from a node that has any such edge."""
        return self.count / self.distinct_src if self.distinct_src else 0.0

    @property
    def avg_in(self) -> float:
        """Average in-fan to a node that has any such edge."""
        return self.count / self.distinct_dst if self.distinct_dst else 0.0


@dataclass(frozen=True)
class GraphCatalog:
    """Planner-grade statistics snapshot of one graph epoch."""

    node_count: int
    edge_count: int
    label_counts: dict[str, int] = field(default_factory=dict)
    property_sketches: dict[tuple[str, str], PropertySketch] = field(
        default_factory=dict
    )
    edge_stats: dict[str, EdgeLabelStats] = field(default_factory=dict)

    # -- node-side estimates ------------------------------------------
    def label_count(self, label: str) -> int:
        return self.label_counts.get(label, 0)

    def estimate_label_scan(self, labels: tuple[str, ...]) -> float:
        """Estimated rows for a node pattern with ``labels``.

        The label index serves the first label; additional labels apply
        as independent selectivities against the total node count.
        """
        if not labels:
            return float(self.node_count)
        estimate = float(self.label_count(labels[0]))
        for label in labels[1:]:
            estimate *= self.label_selectivity(label)
        return estimate

    def label_selectivity(self, label: str) -> float:
        if self.node_count == 0:
            return 0.0
        return self.label_count(label) / self.node_count

    def estimate_property_eq(
        self, label: str, key: str, value: object
    ) -> float:
        """Estimated rows for ``(:label {key: value})``."""
        sketch = self.property_sketches.get((label, key))
        if sketch is None:
            return 0.0
        return sketch.estimate_eq(value)

    def property_selectivity(
        self, label: str, key: str, value: object
    ) -> float:
        """Fraction of ``label`` nodes matching ``key = value``."""
        count = self.label_count(label)
        if count == 0:
            return 0.0
        return min(1.0, self.estimate_property_eq(label, key, value) / count)

    # -- edge-side estimates ------------------------------------------
    def avg_fanout(self, types: tuple[str, ...], direction: str) -> float:
        """Average branching factor for expanding one relationship step.

        ``direction`` follows :class:`repro.cypher.ast_nodes.RelPattern`:
        ``"out"``, ``"in"`` or ``"any"`` (which sums both directions).
        Untyped patterns aggregate every edge label.
        """
        stats = (
            [self.edge_stats[t] for t in types if t in self.edge_stats]
            if types
            else list(self.edge_stats.values())
        )
        if not stats:
            return 0.0
        out_fan = sum(s.avg_out for s in stats)
        in_fan = sum(s.avg_in for s in stats)
        if direction == "out":
            return out_fan
        if direction == "in":
            return in_fan
        return out_fan + in_fan

    def edge_label_count(self, types: tuple[str, ...]) -> int:
        if not types:
            return self.edge_count
        return sum(
            self.edge_stats[t].count for t in types if t in self.edge_stats
        )


def catalog_from_columnar(snapshot: "ColumnarGraph") -> GraphCatalog:
    """Derive the planner catalog from a columnar snapshot.

    The snapshot already maintains per-(label, key) value counters and
    per-edge-type endpoint counters, so this costs O(distinct values)
    instead of an O(nodes + edges) rescan.  On a freshly compiled
    snapshot the counters are accumulated in node-insertion order, so
    MCV sketches tie-break in insertion order.
    """
    label_counts = {
        snapshot.labels[code]: size
        for code, size in snapshot.label_sizes.items()
        if size > 0
    }
    sketches = {
        (snapshot.labels[lc], snapshot.pkeys[kc]): PropertySketch(
            present=sum(counts.values()),
            distinct=len(counts),
            top=tuple(counts.most_common(MCV_WIDTH)),
        )
        for (lc, kc), counts in snapshot.pair_counts.items()
        if counts
    }
    edge_stats = {
        snapshot.etypes[tc]: EdgeLabelStats(
            count=count,
            distinct_src=len(snapshot.etype_src.get(tc, ())),
            distinct_dst=len(snapshot.etype_dst.get(tc, ())),
        )
        for tc, count in snapshot.etype_counts.items()
        if count > 0
    }
    return GraphCatalog(
        node_count=snapshot.node_count(),
        edge_count=snapshot.edge_count(),
        label_counts=label_counts,
        property_sketches=sketches,
        edge_stats=edge_stats,
    )
