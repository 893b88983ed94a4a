"""Line-counted tokens and count-cut windows vs the whole-text oracle.

The encoding layer counts tokens line by line through a memo, cuts
windows from per-statement token counts, finds broken statements and
blocks from the window stride, and embeds with one ``bincount``.
``tests/reference_tokenizer.py`` keeps the implementation that
tokenized the whole joined text instead.  For every statement list and
window shape the two must agree exactly: the same windows, token total,
statement ranges, broken statements and broken blocks, and embeddings
equal to the bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load
from repro.encoding import (
    IncidentEncoder,
    SlidingWindowChunker,
    Statement,
    statement_token_ranges,
)
from repro.encoding.tokenizer import PIECE_SIZE
from repro.rag import HashedEmbedder
from tests import reference_tokenizer as reference

# fragments at the tokenizer's edges: unicode word characters and
# digits, words longer than PIECE_SIZE, punctuation, line breaks
_FRAGMENTS = st.sampled_from([
    "Node", "n1", "with", "label", "has", "properties", "(", ")", ":",
    ",", "'", ".", "-", "x" * (PIECE_SIZE + 1), "y" * (3 * PIECE_SIZE),
    "supercalifragilistic", "a_b_c_d_e_f_g", "日本語テキスト", "naïve",
    "ß∂ƒ", "🎈", "٣٤٥", " ", "  ", "\n", "\r", "\r\n", "\t", "",
])

texts = st.one_of(
    st.text(max_size=60),
    st.lists(_FRAGMENTS, max_size=25).map("".join),
)


@st.composite
def statement_lists(draw):
    kinds = draw(st.lists(st.sampled_from(["node", "edge"]), max_size=30))
    return [
        Statement(kind=kind, text=draw(texts), subject_id=f"s{index}")
        for index, kind in enumerate(kinds)
    ]


window_shapes = st.integers(min_value=1, max_value=60).flatmap(
    lambda size: st.tuples(
        st.just(size), st.integers(min_value=0, max_value=size - 1)
    )
)


@given(statement_lists(), window_shapes, st.sampled_from([1, 7, 256]))
@settings(max_examples=400, deadline=None)
def test_windows_match_the_whole_text_oracle(statements, shape, dimension):
    window_size, overlap = shape
    got = SlidingWindowChunker(window_size, overlap).chunk_statements(
        statements
    )
    expected = reference.chunk_statements(statements, window_size, overlap)
    assert got.windows == expected.windows
    assert got.total_tokens == expected.total_tokens
    assert got.broken_statements == expected.broken_statements
    assert got.broken_blocks == expected.broken_blocks
    assert got == expected
    assert statement_token_ranges(statements) == (
        reference.statement_token_ranges(statements)
    )
    embedder = HashedEmbedder(dimension=dimension)
    for text in [window.text for window in got.windows] + [
        statement.text for statement in statements
    ]:
        assert embedder.embed(text).tobytes() == (
            reference.embed(text, dimension).tobytes()
        )


@pytest.mark.parametrize("name", ["cybersecurity", "wwc2019"])
def test_bundled_encodings_chunk_like_the_oracle(name):
    statements = IncidentEncoder().encode(load(name).graph)
    got = SlidingWindowChunker(8000, 500).chunk_statements(statements)
    assert got == reference.chunk_statements(statements, 8000, 500)
    assert got.window_count > 1
