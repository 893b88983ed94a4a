"""RAG retrieval stage (Figure 2b).

The encoded graph is chunked (much smaller chunks than the sliding
windows, as is standard for RAG), embedded, stored, and queried with the
rule-mining prompt.  The retrieved chunks form the only graph context the
LLM sees — the mechanism behind RAG's lower coverage in the study.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.encoding.incident import Statement
from repro.encoding.tokenizer import split_tokens
from repro.rag.embeddings import HashedEmbedder
from repro.rag.vectorstore import ScoredChunk, VectorStore

#: Default chunking/retrieval parameters: statements are grouped into
#: ~512-token chunks and the top 16 chunks are retrieved — a few
#: thousand tokens of context, small relative to the graph, by design.
DEFAULT_CHUNK_TOKENS = 512
DEFAULT_TOP_K = 16
#: MMR diversity weight: standard retriever setting, trades similarity
#: for coverage of distinct graph regions
DEFAULT_DIVERSITY = 0.25


@dataclass
class RetrievalResult:
    """Outcome of one retrieval: the hits and the stitched context."""

    hits: list[ScoredChunk]
    context: str
    chunk_count: int

    @property
    def retrieved_fraction(self) -> float:
        return len(self.hits) / self.chunk_count if self.chunk_count else 0.0


class GraphRetriever:
    """Chunk → embed → store → retrieve for encoded graph statements."""

    def __init__(
        self,
        chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
        top_k: int = DEFAULT_TOP_K,
        embedder: HashedEmbedder | None = None,
        diversity: float = DEFAULT_DIVERSITY,
    ) -> None:
        if chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if not 0.0 <= diversity <= 1.0:
            raise ValueError("diversity must be in [0, 1]")
        self.chunk_tokens = chunk_tokens
        self.top_k = top_k
        self.diversity = diversity
        self.store = VectorStore(embedder=embedder)
        self._chunk_count = 0

    # ------------------------------------------------------------------
    def index_statements(self, statements: list[Statement]) -> int:
        """Group whole statements into chunks and index them.

        Unlike the sliding windows, RAG chunks never split a statement:
        the vector DB stores syntactically complete units (as a langchain
        text splitter on sentence boundaries would).
        """
        with obs.span("rag.index", statements=len(statements)) as sp:
            chunks: list[str] = []
            current: list[str] = []
            current_tokens = 0
            for statement in statements:
                # counted once per index: the line memo would only fill
                statement_tokens = len(split_tokens(statement.text))
                if current and current_tokens + statement_tokens > self.chunk_tokens:
                    chunks.append("\n".join(current))
                    current = []
                    current_tokens = 0
                current.append(statement.text)
                current_tokens += statement_tokens
            if current:
                chunks.append("\n".join(current))
            self.store.add(chunks)
            self._chunk_count += len(chunks)
            sp.set_attribute("chunks", len(chunks))
        return len(chunks)

    def retrieve(self, query: str, top_k: int | None = None) -> RetrievalResult:
        """Retrieve context chunks for ``query``."""
        k = top_k if top_k is not None else self.top_k
        with obs.span("retrieve", top_k=k) as sp:
            hits = self.store.retrieve(
                query, top_k=k, diversity=self.diversity
            )
            context = "\n".join(hit.text for hit in hits)
            sp.set_attribute("chunks", len(hits))
            sp.set_attribute("chunk_count", self._chunk_count)
            obs.inc("rag.retrievals")
            obs.inc("rag.chunks_retrieved", len(hits))
            for hit in hits:
                obs.observe("rag.similarity", hit.score)
        return RetrievalResult(
            hits=hits, context=context, chunk_count=self._chunk_count
        )
