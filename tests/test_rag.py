"""Unit tests for embeddings, vector store and retriever."""

import numpy as np
import pytest

from repro.encoding import IncidentEncoder, count_tokens
from repro.encoding.tokenizer import _count_line
from repro.rag import (
    GraphRetriever,
    HashedEmbedder,
    VectorStore,
    cosine_similarity,
)


class TestEmbedder:
    def test_deterministic(self):
        a = HashedEmbedder().embed("graph consistency rules")
        b = HashedEmbedder().embed("graph consistency rules")
        assert np.allclose(a, b)

    def test_unit_norm(self):
        vector = HashedEmbedder().embed("some text here")
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_empty_text_zero_vector(self):
        vector = HashedEmbedder().embed("")
        assert np.linalg.norm(vector) == 0.0

    def test_case_insensitive(self):
        embedder = HashedEmbedder()
        assert np.allclose(embedder.embed("Node"), embedder.embed("node"))

    def test_similar_texts_score_higher(self):
        embedder = HashedEmbedder()
        base = embedder.embed("User node with id and name properties")
        close = embedder.embed("User node with id and email properties")
        far = embedder.embed("completely unrelated words entirely")
        assert cosine_similarity(base, close) > cosine_similarity(base, far)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HashedEmbedder(dimension=0)

    def test_embed_many_shape(self):
        matrix = HashedEmbedder(dimension=32).embed_many(["a", "b", "c"])
        assert matrix.shape == (3, 32)
        assert HashedEmbedder().embed_many([]).shape[0] == 0


class TestVectorStore:
    def test_topk_ordering(self):
        store = VectorStore()
        store.add([
            "User node id name screen_name",
            "Tweet node text created_at",
            "User follows user relationship",
        ])
        hits = store.retrieve("User node id", top_k=2)
        assert len(hits) == 2
        assert hits[0].score >= hits[1].score
        assert "User node id" in hits[0].text

    def test_empty_store(self):
        assert VectorStore().retrieve("anything") == []

    def test_topk_clamped_to_store_size(self):
        store = VectorStore()
        store.add(["only one"])
        assert len(store.retrieve("one", top_k=10)) == 1

    def test_incremental_add(self):
        store = VectorStore()
        store.add(["first"])
        store.add(["second", "third"])
        assert len(store) == 3

    def test_mmr_diversifies(self):
        store = VectorStore()
        # three near-duplicates and one different chunk
        store.add([
            "user node alpha beta gamma",
            "user node alpha beta gamma delta",
            "user node alpha beta gamma epsilon",
            "tweet content text words",
        ])
        plain = store.retrieve("user node alpha", top_k=3)
        diverse = store.retrieve("user node alpha", top_k=3, diversity=0.7)
        assert all("user" in hit.text for hit in plain)
        assert any("tweet" in hit.text for hit in diverse)


class TestGraphRetriever:
    def test_chunks_keep_statements_whole(self, social_graph):
        statements = IncidentEncoder().encode(social_graph)
        retriever = GraphRetriever(chunk_tokens=30, top_k=3)
        chunk_count = retriever.index_statements(statements)
        assert chunk_count > 1
        statement_texts = {s.text for s in statements}
        for chunk in retriever.store._texts:
            for line in chunk.splitlines():
                assert line in statement_texts

    def test_chunk_token_budget(self, social_graph):
        statements = IncidentEncoder().encode(social_graph)
        retriever = GraphRetriever(chunk_tokens=50, top_k=3)
        retriever.index_statements(statements)
        for chunk in retriever.store._texts:
            # a chunk may exceed the budget only via a single oversized
            # statement; with small statements it must stay under it
            assert count_tokens(chunk) <= 50 + max(
                count_tokens(s.text) for s in statements
            )

    def test_indexing_leaves_the_line_memo_alone(self, social_graph):
        # an index counts each statement once, so memoizing those counts
        # would only fill the memo that prompt counts rely on
        statements = IncidentEncoder().encode(social_graph)
        before = _count_line.cache_info()
        GraphRetriever(chunk_tokens=30).index_statements(statements)
        assert _count_line.cache_info() == before

    def test_retrieve_returns_context(self, social_graph):
        statements = IncidentEncoder().encode(social_graph)
        retriever = GraphRetriever(chunk_tokens=40, top_k=2)
        retriever.index_statements(statements)
        result = retriever.retrieve("User id name")
        assert len(result.hits) == 2
        assert result.context
        assert 0 < result.retrieved_fraction <= 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GraphRetriever(chunk_tokens=0)
        with pytest.raises(ValueError):
            GraphRetriever(top_k=0)
        with pytest.raises(ValueError):
            GraphRetriever(diversity=1.5)
