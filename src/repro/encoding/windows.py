"""Sliding-window chunking of encoded graph text (§3.1.1).

The encoded graph is divided into windows of ``window_size`` pseudo-tokens
with ``overlap`` tokens shared between consecutive windows (the paper uses
8,000 and 500, the maximum the LLM allows).  Cutting happens at token
boundaries, so a statement can be split across a window edge — e.g. one
window ending with ``"Node node_id"`` and the next starting with
``"with label Label has properties (key: value)"``.  The chunker accounts
for every statement that is *not* fully contained in at least one window:
those are the paper's *broken patterns* (§4.5 reports 6 / 11 / 6 for the
three datasets).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from repro.encoding.incident import Statement
from repro.encoding.tokenizer import count_tokens, token_spans

#: The paper's operating point (tokens).
DEFAULT_WINDOW_SIZE = 8000
DEFAULT_OVERLAP = 500


def statement_token_ranges(
    statements: list["Statement"],
    counts: list[int] | None = None,
) -> list[tuple[int, int]]:
    """Map each statement to its [first, last] token index range.

    ``counts`` are the statements' token counts; counted when not
    supplied.  No token spans the joining newline, so each statement's
    tokens follow the previous statement's.  A statement without tokens
    gets the index of the token before it (0 at the start).  Shared by
    the chunker's fragmentation accounting and the dirty-window
    invalidation in :mod:`repro.encoding.dirty`.
    """
    if counts is None:
        counts = [count_tokens(statement.text) for statement in statements]
    ranges: list[tuple[int, int]] = []
    start = 0
    for count in counts:
        if count:
            ranges.append((start, start + count - 1))
        else:
            previous = max(start - 1, 0)
            ranges.append((previous, previous))
        start += count
    return ranges


@dataclass(frozen=True)
class Window:
    """One window of encoded-graph text."""

    index: int
    text: str
    start_token: int
    end_token: int          # exclusive

    @property
    def token_count(self) -> int:
        return self.end_token - self.start_token


@dataclass
class WindowSet:
    """All windows over one encoding, plus fragmentation accounting.

    Two granularities are tracked:

    * **broken statements** — single encoded statements not fully inside
      any window (rare: the overlap usually exceeds one statement);
    * **broken patterns** — incident *blocks* (a node statement plus its
      outgoing-edge statements, the unit a rule pattern spans) not fully
      inside any window.  High-degree nodes produce blocks longer than
      the overlap, and those are the ones that break — the §4.5 counts
      (6 / 11 / 6 in the paper) are at this granularity.
    """

    windows: list[Window]
    total_tokens: int
    window_size: int
    overlap: int
    broken_statements: list[Statement] = field(default_factory=list)
    broken_blocks: list[str] = field(default_factory=list)  # subject ids

    @property
    def window_count(self) -> int:
        return len(self.windows)

    @property
    def broken_statement_count(self) -> int:
        return len(self.broken_statements)

    @property
    def broken_pattern_count(self) -> int:
        return len(self.broken_blocks)


class SlidingWindowChunker:
    """Splits encoded statements into overlapping token windows."""

    def __init__(
        self,
        window_size: int = DEFAULT_WINDOW_SIZE,
        overlap: int = DEFAULT_OVERLAP,
    ) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if not 0 <= overlap < window_size:
            raise ValueError("overlap must satisfy 0 <= overlap < window_size")
        self.window_size = window_size
        self.overlap = overlap

    @property
    def step(self) -> int:
        return self.window_size - self.overlap

    # ------------------------------------------------------------------
    def chunk_statements(self, statements: list[Statement]) -> WindowSet:
        """Chunk a statement list, tracking which statements get broken."""
        texts = [statement.text for statement in statements]
        counts = [count_tokens(text) for text in texts]
        ranges = statement_token_ranges(statements, counts)
        windows = self._build_windows(texts, counts)
        blocks: list[list] = []  # [subject id, first token, last token]
        for statement, (first, last) in zip(statements, ranges):
            if statement.kind == "node":
                blocks.append([statement.subject_id, first, last])
            elif blocks:
                blocks[-1][2] = last
        # Window k starts at token k * step and windows end in order, so
        # tokens [first, last] fit in some window iff they fit in the last
        # window starting at or before ``first``.  With no windows (no
        # tokens) nothing fits: every ``last`` reaches the sentinel end 0.
        ends = [window.end_token for window in windows] or [0]
        step, tail = self.step, len(ends) - 1
        return WindowSet(
            windows=windows,
            total_tokens=sum(counts),
            window_size=self.window_size,
            overlap=self.overlap,
            broken_statements=[
                statement
                for statement, (first, last) in zip(statements, ranges)
                if last >= ends[min(first // step, tail)]
            ],
            # incident blocks (node + its edge statements) no window
            # fully contains: the §4.5 "broken pattern" count
            broken_blocks=[
                subject for subject, first, last in blocks
                if last >= ends[min(first // step, tail)]
            ],
        )

    # ------------------------------------------------------------------
    def _build_windows(
        self, texts: list[str], counts: list[int]
    ) -> list[Window]:
        """Cut windows from the statements' token counts.

        Only the statements holding a window's first and last token are
        tokenized, to find the window's character edges in the joined
        text.
        """
        starts = list(accumulate(counts, initial=0))
        total = starts[-1]
        if total == 0:
            return []
        offsets = list(accumulate((len(text) + 1 for text in texts), initial=0))
        joined = "\n".join(texts)

        def span(token: int) -> tuple[int, int]:
            """Character span of one token in the joined text."""
            index = bisect_right(starts, token) - 1
            begin, end = token_spans(texts[index])[token - starts[index]]
            return offsets[index] + begin, offsets[index] + end

        windows: list[Window] = []
        for index, start in enumerate(range(0, total, self.step)):
            end = min(start + self.window_size, total)
            windows.append(
                Window(
                    index=index,
                    text=joined[span(start)[0]:span(end - 1)[1]],
                    start_token=start,
                    end_token=end,
                )
            )
            if end == total:
                break
        return windows
