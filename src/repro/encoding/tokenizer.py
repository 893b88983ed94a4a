"""Deterministic tokenizer approximating LLM subword tokenization.

The study budgets windows in *LLM tokens* (8,000-token windows with a
500-token overlap, the LLaMA-3 limits).  Offline we need a deterministic
stand-in: words and punctuation become tokens, and long words are split
into fixed-size pieces, which approximates byte-pair encoding closely
enough for window-size arithmetic.

No token contains whitespace, so the tokens of a newline-joined text are
its lines' tokens in turn.  :func:`count_tokens` relies on that: it
counts a text line by line, and each line's count is memoized, so a
prompt made of already-counted statements costs one memo hit per line.
"""

from __future__ import annotations

import re
from functools import lru_cache

#: Maximum characters per token piece (BPE pieces average ~4-6 chars).
PIECE_SIZE = 6

#: One token: a run of up to ``PIECE_SIZE`` word characters, or one
#: punctuation character.  The run is greedy, so a longer word is cut
#: into ``PIECE_SIZE``-character pieces and a shorter remainder.
_TOKEN_RE = re.compile(rf"\w{{1,{PIECE_SIZE}}}|[^\w\s]")

#: Lines whose counts stay memoized.  Above the largest bundled
#: dataset's statement count (Twitter, 99,818), so one pass over its
#: windows cannot evict a statement before its prompt counts it again.
LINE_MEMO_SIZE = 1 << 17


def split_tokens(text: str) -> list[str]:
    """Split ``text`` into deterministic pseudo-BPE tokens."""
    return _TOKEN_RE.findall(text)


def token_spans(text: str) -> list[tuple[int, int]]:
    """Character spans ``(start, end)`` of each pseudo-token in ``text``.

    Used by the window chunker to cut windows at token boundaries while
    preserving the original text verbatim (including mid-statement cuts).
    """
    return [match.span() for match in _TOKEN_RE.finditer(text)]


@lru_cache(maxsize=LINE_MEMO_SIZE)
def _count_line(line: str) -> int:
    return len(_TOKEN_RE.findall(line))


def count_tokens(text: str) -> int:
    """Number of pseudo-tokens in ``text`` (memoized line by line)."""
    if "\n" in text:
        return sum(map(_count_line, text.split("\n")))
    return _count_line(text)
