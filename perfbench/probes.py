"""Where the traced run times the program: one probe per layer boundary.

Every probe wraps a public entry point as a class attribute (see
:mod:`tracer`).  Span names are the per-layer metric names without
their ``_ms`` suffix, except ``mining.mine``, whose self time is the
remainder of ``mine`` (``mining.other_ms``), and ``gateway.fetch``,
whose self time is the result round trip left after ``wait``.
"""

from __future__ import annotations

from tracer import Tracer

from repro.analysis.analyzer import StaticAnalyzer
from repro.correction.corrector import QueryCorrector
from repro.cypher.executor import Executor
from repro.cypher.planner import QueryPlanner
from repro.encoding.incident import IncidentEncoder
from repro.encoding.windows import SlidingWindowChunker
from repro.gateway import GatewayClient
from repro.graph.store import PropertyGraph
from repro.llm.simulated import SimulatedLLM
from repro.mining import BasePipeline, RAGPipeline, SlidingWindowPipeline
from repro.rag.retriever import GraphRetriever
from repro.stream import IncrementalMaintainer, WatchService


def _rows(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("cypher.queries")
    tracer.count("cypher.rows", len(result.rows))


def _tokens(tracer: Tracer, args: tuple, completion) -> None:
    tracer.count("llm.calls")
    tracer.count("llm.prompt_tokens", completion.prompt_tokens)


def _triage(tracer: Tracer, args: tuple, run) -> None:
    tracer.count("analysis.rules", len(run.results))
    tracer.count("analysis.triaged", sum(r.triage_skipped for r in run.results))


def _writes(tracer: Tracer, args: tuple, ack: dict) -> None:
    tracer.count("graph.writes", ack["applied"])


def _maintenance(tracer: Tracer, args: tuple, report) -> None:
    tracer.count("stream.reevaluated", report.reevaluated)
    tracer.count("stream.pruned", report.pruned)


def install(tracer: Tracer) -> None:
    """Patch every probe into the program; ``tracer.restore()`` undoes."""
    tracer.wrap(Executor, "run", "cypher.run", after=_rows,
                errors="cypher.errors")
    tracer.wrap(QueryPlanner, "plan", "cypher.plan")
    tracer.wrap(SimulatedLLM, "complete", "llm.complete", after=_tokens)
    tracer.wrap(GraphRetriever, "retrieve", "rag.retrieve")
    tracer.wrap(GraphRetriever, "index_statements", "rag.index")
    tracer.wrap(BasePipeline, "parse_completion", "rules.parse")
    tracer.wrap(BasePipeline, "semantic_dedup", "mining.dedup")
    tracer.wrap(QueryCorrector, "correct", "correction.correct")
    tracer.wrap(StaticAnalyzer, "analyze", "analysis.analyze")
    tracer.wrap(StaticAnalyzer, "triage", "analysis.analyze")
    tracer.wrap(RAGPipeline, "mine", "mining.mine", after=_triage)
    tracer.wrap(SlidingWindowPipeline, "mine", "mining.mine", after=_triage)
    tracer.wrap(PropertyGraph, "columnar", "graph.columnar")
    tracer.wrap(PropertyGraph, "catalog", "graph.catalog")
    tracer.wrap(IncidentEncoder, "encode", "encoding.encode")
    tracer.wrap(SlidingWindowChunker, "chunk_statements", "encoding.chunk")
    tracer.wrap(WatchService, "submit", "stream.submit", after=_writes)
    tracer.wrap(WatchService, "flush", "stream.flush")
    tracer.wrap(IncrementalMaintainer, "apply", "stream.maintain",
                after=_maintenance)
    tracer.wrap(GatewayClient, "submit", "gateway.submit")
    tracer.wrap(GatewayClient, "wait", "gateway.wait")
    tracer.wrap(GatewayClient, "result", "gateway.fetch")
    tracer.count_calls(GatewayClient, "status", "gateway.polls")
    tracer.watch_gc()
