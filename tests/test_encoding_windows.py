"""Unit tests for the sliding-window chunker."""

import pytest

from repro.encoding import (
    IncidentEncoder,
    SlidingWindowChunker,
    Statement,
    count_tokens,
)
from repro.graph import PropertyGraph


def make_statements(count, words_per=10):
    return [
        Statement(
            kind="node",
            text=" ".join(f"word{i}x{j}" for j in range(words_per)),
            subject_id=f"s{i}",
        )
        for i in range(count)
    ]


class TestParameters:
    def test_invalid_window_size(self):
        with pytest.raises(ValueError):
            SlidingWindowChunker(window_size=0)

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            SlidingWindowChunker(window_size=10, overlap=10)
        with pytest.raises(ValueError):
            SlidingWindowChunker(window_size=10, overlap=-1)

    def test_defaults_match_paper(self):
        chunker = SlidingWindowChunker()
        assert chunker.window_size == 8000
        assert chunker.overlap == 500


class TestChunking:
    def test_single_window_when_text_fits(self):
        chunker = SlidingWindowChunker(window_size=1000, overlap=100)
        windows = chunker.chunk_statements(make_statements(5))
        assert windows.window_count == 1
        assert windows.broken_statement_count == 0

    def test_window_token_budget_respected(self):
        chunker = SlidingWindowChunker(window_size=100, overlap=10)
        windows = chunker.chunk_statements(make_statements(50))
        for window in windows.windows:
            assert window.token_count <= 100
            assert count_tokens(window.text) <= 100

    def test_consecutive_windows_overlap(self):
        chunker = SlidingWindowChunker(window_size=100, overlap=20)
        windows = chunker.chunk_statements(make_statements(50))
        assert windows.window_count > 1
        for first, second in zip(windows.windows, windows.windows[1:]):
            assert second.start_token == first.start_token + 80
            assert second.start_token < first.end_token  # overlap

    def test_every_token_in_some_window(self):
        chunker = SlidingWindowChunker(window_size=64, overlap=16)
        windows = chunker.chunk_statements(make_statements(40))
        covered = set()
        for window in windows.windows:
            covered.update(range(window.start_token, window.end_token))
        assert covered == set(range(windows.total_tokens))

    def test_window_text_is_verbatim_slice(self):
        statements = make_statements(30)
        text = "\n".join(s.text for s in statements)
        chunker = SlidingWindowChunker(window_size=64, overlap=16)
        windows = chunker.chunk_statements(statements)
        for window in windows.windows:
            assert window.text in text

    def test_empty_statements(self):
        windows = SlidingWindowChunker().chunk_statements([])
        assert windows.window_count == 0
        assert windows.total_tokens == 0


class TestFragmentation:
    def test_statement_longer_than_overlap_can_break(self):
        # statements of ~30 tokens with overlap 8: boundary statements
        # cannot always be fully contained
        chunker = SlidingWindowChunker(window_size=40, overlap=8)
        windows = chunker.chunk_statements(make_statements(30, words_per=15))
        assert windows.window_count > 1
        assert windows.broken_statement_count > 0

    def test_overlap_bigger_than_statement_prevents_breaks(self):
        chunker = SlidingWindowChunker(window_size=100, overlap=30)
        windows = chunker.chunk_statements(make_statements(60, words_per=10))
        assert windows.broken_statement_count == 0

    def test_broken_blocks_counts_node_groups(self):
        # one high-degree node whose block exceeds the overlap
        graph = PropertyGraph()
        graph.add_node("hub", "Hub", {"name": "hub"})
        for index in range(40):
            graph.add_node(f"n{index}", "Leaf", {"name": f"leaf{index}"})
            graph.add_edge(f"e{index}", "LINKS", "hub", f"n{index}")
        statements = IncidentEncoder().encode(graph)
        chunker = SlidingWindowChunker(window_size=220, overlap=30)
        windows = chunker.chunk_statements(statements)
        assert windows.window_count > 1
        assert windows.broken_pattern_count >= 1
        assert "hub" in windows.broken_blocks
