"""Incremental rule maintenance and continuous mining over mutating graphs.

The batch pipelines mine a static snapshot; ``repro.stream`` keeps the
result alive as the graph changes: typed deltas from the graph's change
log (``PropertyGraph.changes_since``) drive footprint-pruned metric
re-evaluation and rule-drift events — see :mod:`repro.stream.watch` for
the serving loop and :mod:`repro.stream.maintainer` for the equivalence
guarantee (incremental maintenance ≡ full recompute).
"""

from repro.stream.drift import (
    CONFIDENCE_BANDS,
    DriftDetector,
    DriftEvent,
    confidence_band,
    detect_drift,
    violations,
)
from repro.stream.footprint import (
    RuleFootprint,
    WILDCARD_FOOTPRINT,
    delta_affects,
    extract_footprint,
    footprint_of_queries,
    resolve_footprint,
)
from repro.stream.maintainer import (
    IncrementalMaintainer,
    MaintenanceReport,
    RuleChange,
)
from repro.stream.mutations import (
    MAX_BATCH_OPS,
    Mutation,
    MutationError,
    apply_mutations,
    parse_mutations,
)
from repro.stream.watch import WatchService

__all__ = [
    "CONFIDENCE_BANDS",
    "DriftDetector",
    "DriftEvent",
    "IncrementalMaintainer",
    "MAX_BATCH_OPS",
    "MaintenanceReport",
    "Mutation",
    "MutationError",
    "RuleChange",
    "RuleFootprint",
    "WILDCARD_FOOTPRINT",
    "WatchService",
    "apply_mutations",
    "confidence_band",
    "delta_affects",
    "detect_drift",
    "extract_footprint",
    "footprint_of_queries",
    "parse_mutations",
    "resolve_footprint",
    "violations",
]
