"""Job model for the mining service.

A *job* is one grid cell (dataset × model × method × prompt mode) plus
the full pipeline configuration needed to mine it.  Its identity is
content-addressed: the id is a digest over

* a **graph fingerprint** — every node and edge of the dataset's graph,
  in deterministic order, so regenerating the same dataset yields the
  same id and a different graph is a guaranteed different id;
* a **code fingerprint** — the source text of the modules that determine
  a mining run's output, so upgrading the pipeline code invalidates old
  cache entries instead of silently serving stale results;
* the **pipeline configuration** — every knob that changes the produced
  :class:`~repro.mining.result.MiningRun`, canonically serialised.

The same triple therefore always maps to the same job id, across
processes and machines — which is exactly the key the on-disk result
cache is addressed by.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import threading
from dataclasses import dataclass

from repro.graph.store import PropertyGraph
from repro.mining.persistence import FORMAT_VERSION


@dataclass(frozen=True)
class JobSpec:
    """One grid cell with its full pipeline configuration."""

    dataset: str
    model: str
    method: str                      # 'sliding_window' | 'rag'
    prompt_mode: str                 # 'zero_shot' | 'few_shot'
    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16

    def cell(self) -> tuple[str, str, str, str]:
        return (
            self.dataset.lower(), self.model.lower(),
            self.method, self.prompt_mode,
        )

    def config_dict(self) -> dict[str, object]:
        """Every knob that affects the mined result, canonically keyed."""
        return {
            "dataset": self.dataset.lower(),
            "model": self.model.lower(),
            "method": self.method,
            "prompt_mode": self.prompt_mode,
            "base_seed": self.base_seed,
            "window_size": self.window_size,
            "overlap": self.overlap,
            "rag_chunk_tokens": self.rag_chunk_tokens,
            "rag_top_k": self.rag_top_k,
        }


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(graph: PropertyGraph) -> str:
    """Content digest of a property graph.

    Nodes and edges are hashed in sorted-id order with their labels and
    sorted property maps, so the fingerprint is independent of insertion
    order and stable across processes.
    """
    digest = hashlib.sha256()
    digest.update(graph.name.encode("utf-8"))
    for node in sorted(graph.nodes(), key=lambda n: n.id):
        record = (
            node.id,
            tuple(sorted(node.labels)),
            tuple(sorted((k, repr(v)) for k, v in node.properties.items())),
        )
        digest.update(repr(record).encode("utf-8"))
    for edge in sorted(graph.edges(), key=lambda e: e.id):
        record = (
            edge.id, edge.label, edge.src, edge.dst,
            tuple(sorted((k, repr(v)) for k, v in edge.properties.items())),
        )
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


#: modules whose source determines a mining run's output — any change to
#: them must invalidate cached results
_CODE_FINGERPRINT_MODULES = (
    "repro.analysis.analyzer",
    "repro.analysis.canonical",
    "repro.analysis.dataflow",
    "repro.analysis.findings",
    "repro.analysis.satisfiability",
    "repro.analysis.typecheck",
    "repro.correction.classifier",
    "repro.correction.corrector",
    "repro.encoding.incident",
    "repro.encoding.tokenizer",
    "repro.encoding.windows",
    "repro.llm.faults",
    "repro.llm.induction",
    "repro.llm.profiles",
    "repro.llm.prompt_io",
    "repro.llm.simulated",
    "repro.llm.timing",
    "repro.metrics.evaluator",
    "repro.mining.pipeline",
    "repro.mining.ragpipe",
    "repro.mining.sliding",
    "repro.prompts.examples",
    "repro.prompts.templates",
    "repro.rag.embeddings",
    "repro.rag.retriever",
    "repro.rag.vectorstore",
    "repro.rules.dedup",
    "repro.rules.nl",
    "repro.rules.translator",
)

_code_fingerprint_lock = threading.Lock()
_code_fingerprint_cache: dict[tuple[str, ...], str] = {}


def code_fingerprint(
    modules: tuple[str, ...] = _CODE_FINGERPRINT_MODULES,
) -> str:
    """Digest of the pipeline source code (cached per module set)."""
    with _code_fingerprint_lock:
        cached = _code_fingerprint_cache.get(modules)
        if cached is not None:
            return cached
    import importlib

    digest = hashlib.sha256()
    for name in modules:
        module = importlib.import_module(name)
        digest.update(name.encode("utf-8"))
        try:
            digest.update(inspect.getsource(module).encode("utf-8"))
        except (OSError, TypeError):  # frozen / sourceless installs
            digest.update(getattr(module, "__file__", name).encode("utf-8"))
    value = digest.hexdigest()
    with _code_fingerprint_lock:
        _code_fingerprint_cache[modules] = value
    return value


def cache_key(
    spec: JobSpec, graph_digest: str, code_digest: str | None = None
) -> str:
    """The content address of a job: config + graph + code + format."""
    payload = {
        "format_version": FORMAT_VERSION,
        "graph": graph_digest,
        "code": code_digest if code_digest is not None else code_fingerprint(),
        "config": spec.config_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
