"""Warmed pipelines, one per dataset and chunking, shared by every seed.

Everything a pipeline builds before it prompts — the incident encoding
and schema of the dataset, the sliding windows, the RAG index and its
retrieval — is a function of the graph and the chunking parameters
alone: Figure 2b embeds and stores the chunks once per graph.  A
:class:`PipelinePool` therefore builds each dataset's
:class:`~repro.mining.pipeline.PipelineContext` once, and one warmed
pipeline per ``(dataset, method, window_size, overlap,
rag_chunk_tokens, rag_top_k)``, whatever the seed, model or prompt mode.
The caller sets ``pipeline.base_seed`` before each ``mine()``.

The experiment grid (:class:`~repro.mining.runner.ExperimentRunner`)
and the job runner (:class:`~repro.service.JobRunner`) each own one.
Like both of them, the pool is not thread-safe.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.datasets.base import Dataset
from repro.datasets.registry import load
from repro.mining.pipeline import BasePipeline, PipelineContext
from repro.mining.ragpipe import RAGPipeline
from repro.mining.sliding import SlidingWindowPipeline

METHODS = ("sliding_window", "rag")


class PipelinePool:
    """Per-dataset contexts plus warmed pipelines keyed without the seed."""

    def __init__(
        self,
        loader: Callable[[str], Dataset] = load,
        llm_middleware: Optional[Callable[[object], object]] = None,
    ) -> None:
        self.loader = loader
        #: wraps every LLM the pooled pipelines create (fault injection)
        self.llm_middleware = llm_middleware
        self._contexts: dict[str, PipelineContext] = {}
        self._pipelines: dict[tuple, BasePipeline] = {}

    def context(self, dataset: str) -> PipelineContext:
        """The dataset's encoding and schema, built on first use."""
        key = dataset.lower()
        context = self._contexts.get(key)
        if context is None:
            context = PipelineContext.build(self.loader(key))
            self._contexts[key] = context
        return context

    def pipeline(
        self,
        dataset: str,
        method: str,
        window_size: int,
        overlap: int,
        rag_chunk_tokens: int,
        rag_top_k: int,
    ) -> BasePipeline:
        """The warmed pipeline for one method and chunking of a dataset."""
        key = (
            dataset.lower(), method, window_size, overlap,
            rag_chunk_tokens, rag_top_k,
        )
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            context = self.context(dataset)
            if method == "sliding_window":
                pipeline = SlidingWindowPipeline(
                    context, window_size=window_size, overlap=overlap,
                )
            elif method == "rag":
                pipeline = RAGPipeline(
                    context, chunk_tokens=rag_chunk_tokens, top_k=rag_top_k,
                )
            else:
                raise ValueError(f"unknown method {method!r}")
            pipeline.llm_middleware = self.llm_middleware
            pipeline.warm()
            self._pipelines[key] = pipeline
        return pipeline

    def forget(self, dataset: str) -> None:
        """Drop one dataset's context and pipelines; others stay warm."""
        key = dataset.lower()
        self._contexts.pop(key, None)
        for pipeline_key in [k for k in self._pipelines if k[0] == key]:
            del self._pipelines[pipeline_key]
