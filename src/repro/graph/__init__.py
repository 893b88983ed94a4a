"""Property-graph substrate: data model, indexed store, schema, IO, stats."""

from repro.graph.changelog import DeltaKind, GraphDelta, compact_deltas
from repro.graph.columnar import ColumnarGraph, compile_graph
from repro.graph.errors import (
    DanglingEdgeError,
    DuplicateElementError,
    ElementNotFoundError,
    GraphError,
    InvalidPropertyError,
)
from repro.graph.io import (
    build_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.graph.model import Edge, Node
from repro.graph.schema import (
    EndpointSignature,
    GraphSchema,
    LabelProfile,
    PropertyProfile,
    infer_schema,
)
from repro.graph.statistics import (
    EdgeLabelStats,
    GraphCatalog,
    GraphStatistics,
    PropertySketch,
    catalog_from_columnar,
    compute_statistics,
)
from repro.graph.store import PropertyGraph

__all__ = [
    "ColumnarGraph",
    "DanglingEdgeError",
    "DeltaKind",
    "DuplicateElementError",
    "Edge",
    "EdgeLabelStats",
    "ElementNotFoundError",
    "EndpointSignature",
    "GraphCatalog",
    "GraphDelta",
    "GraphError",
    "GraphSchema",
    "GraphStatistics",
    "InvalidPropertyError",
    "LabelProfile",
    "Node",
    "PropertyGraph",
    "PropertyProfile",
    "PropertySketch",
    "build_graph",
    "catalog_from_columnar",
    "compact_deltas",
    "compile_graph",
    "compute_statistics",
    "graph_from_dict",
    "graph_to_dict",
    "infer_schema",
    "load_graph",
    "save_graph",
]
