"""Micro-benchmarks for the encoding layer on the cybersecurity graph.

Token counts are memoized line by line and windows are cut from the
statements' counts, so a warm re-chunk and a repeated prompt's count
should do no tokenizing beyond the few statements a window edge cuts
through.  Two canaries pin that: they count memo misses and
``token_spans`` calls, which no correctness test would notice going up.
"""

import pytest

from repro.datasets import load
from repro.encoding import IncidentEncoder, SlidingWindowChunker, windows
from repro.encoding.tokenizer import _count_line, count_tokens, token_spans
from repro.prompts import zero_shot_prompt
from repro.rag import HashedEmbedder
from repro.rag.retriever import DEFAULT_CHUNK_TOKENS


@pytest.fixture(scope="module")
def statements():
    return IncidentEncoder().encode(load("cybersecurity").graph)


def test_first_chunk(benchmark, statements):
    """Chunk with the line memo empty: every statement is tokenized."""
    window_set = benchmark.pedantic(
        SlidingWindowChunker().chunk_statements, args=(statements,),
        setup=_count_line.cache_clear, rounds=3, iterations=1,
    )
    assert window_set.window_count == 28


def test_warm_rechunk(benchmark, statements, monkeypatch):
    """Canary: re-chunking an unchanged encoding counts every statement
    from the memo and tokenizes only the statements holding a window's
    first or last token."""
    chunker = SlidingWindowChunker()
    chunker.chunk_statements(statements)
    tokenized: list[str] = []

    def counting_spans(text):
        tokenized.append(text)
        return token_spans(text)

    monkeypatch.setattr(windows, "token_spans", counting_spans)
    misses = _count_line.cache_info().misses
    window_set = chunker.chunk_statements(statements)
    assert _count_line.cache_info().misses == misses
    assert 0 < len(tokenized) <= 2 * window_set.window_count
    texts = {statement.text for statement in statements}
    assert all(text in texts for text in tokenized)
    assert benchmark(chunker.chunk_statements, statements) == window_set


def test_repeated_prompt_count(benchmark, statements):
    """Canary: counting a window prompt a second time is all memo hits."""
    window = SlidingWindowChunker().chunk_statements(statements).windows[0]
    prompt = zero_shot_prompt(window.text)
    expected = count_tokens(prompt)
    misses = _count_line.cache_info().misses
    assert count_tokens(prompt) == expected
    assert _count_line.cache_info().misses == misses
    assert benchmark(count_tokens, prompt) == expected


def test_embed_rag_chunk(benchmark, statements):
    """Embed one RAG-sized chunk (~512 tokens) with a warm slot cache."""
    lines: list[str] = []
    tokens = 0
    for statement in statements:
        tokens += count_tokens(statement.text)
        if tokens > DEFAULT_CHUNK_TOKENS:
            break
        lines.append(statement.text)
    chunk = "\n".join(lines)
    embedder = HashedEmbedder()
    expected = embedder.embed(chunk)
    assert benchmark(embedder.embed, chunk).tobytes() == expected.tobytes()
