"""Retrieval Augmented Generation pipeline (Figure 2b).

The encoded statements are chunked, embedded and stored in the vector
store; the rule-mining request itself is the retrieval query; the LLM is
prompted once over the retrieved chunks.  Mining time is near-constant
(one call over a small context), but the model only ever sees the
retrieved fraction of the graph — the paper's explanation for RAG's
weaker rules (§4.5).
"""

from __future__ import annotations

from repro import obs
from repro.mining.pipeline import BasePipeline, PipelineContext
from repro.mining.result import MiningRun
from repro.rag.retriever import (
    DEFAULT_CHUNK_TOKENS,
    DEFAULT_TOP_K,
    GraphRetriever,
    RetrievalResult,
)

#: the retrieval query is the task itself, as in the paper's first phase
RETRIEVAL_QUERY = (
    "consistency rules property graph functional dependency entity "
    "dependency required unique property label relationship"
)


class RAGPipeline(BasePipeline):
    """Chunk → embed → retrieve → single prompt → Cypher → metrics."""

    method = "rag"

    def __init__(
        self,
        context: PipelineContext,
        chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
        top_k: int = DEFAULT_TOP_K,
        base_seed: int = 0,
        refine_budget: int = 0,
    ) -> None:
        super().__init__(
            context, base_seed=base_seed, refine_budget=refine_budget
        )
        self.retriever = GraphRetriever(
            chunk_tokens=chunk_tokens, top_k=top_k
        )
        self._retrieval: RetrievalResult | None = None

    @property
    def retrieval(self) -> RetrievalResult:
        """The chunks every ``mine()`` prompts over.

        The index never changes once built and the query is the
        constant task, so the retrieval runs once, right after indexing.
        """
        if self._retrieval is None:
            self.retriever.index_statements(self.context.statements)
            self._retrieval = self.retriever.retrieve(RETRIEVAL_QUERY)
        return self._retrieval

    def warm(self) -> None:
        """Chunk, embed, index and retrieve now, not in the first mine()."""
        self.retrieval

    # ------------------------------------------------------------------
    def mine(self, model: str, prompt_mode: str) -> MiningRun:
        llm, clock = self.make_llm(model, prompt_mode)
        with obs.span(
            "mine.rag",
            dataset=self.context.name, model=llm.name,
            prompt_mode=prompt_mode,
        ) as mine_span:
            retrieval = self.retrieval

            run = MiningRun(
                dataset=self.context.name,
                model=llm.name,
                method=self.method,
                prompt_mode=prompt_mode,
                retrieved_chunks=len(retrieval.hits),
                total_chunks=retrieval.chunk_count,
            )

            completion = llm.complete(
                self.rule_prompt(retrieval.context, prompt_mode)
            )
            run.mining_seconds = clock.elapsed_seconds

            rules = self.parse_completion(
                completion.text, provenance=f"{llm.name}/rag"
            )
            self.finish(run, [rules], llm, prompt_mode)
            mine_span.set_attribute("rules", run.rule_count)
            mine_span.set_attribute("retrieved_chunks", len(retrieval.hits))
            mine_span.add_sim_time(clock.elapsed_seconds)
        return run
