"""The whole-text tokenizer and window cutter, kept as an oracle.

This is the implementation the encoding layer had before it counted
tokens line by line: every call splits the whole text, the chunker
tokenizes the full newline-joined encoding and slices windows from its
span list, broken statements and blocks are found by testing every
range against every window with ``any()``, and the embedder adds one
numpy scalar per token.  The equivalence properties compare the library
against these functions, so a rewrite of the library cannot change
what it is compared with.
"""

import hashlib
import re

import numpy as np

from repro.encoding.windows import Window, WindowSet

PIECE_SIZE = 6

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def split_tokens(text):
    tokens = []
    for match in _WORD_RE.finditer(text):
        word = match.group(0)
        if len(word) <= PIECE_SIZE:
            tokens.append(word)
        else:
            tokens.extend(
                word[i:i + PIECE_SIZE] for i in range(0, len(word), PIECE_SIZE)
            )
    return tokens


def token_spans(text):
    spans = []
    for match in _WORD_RE.finditer(text):
        start, end = match.span()
        length = end - start
        if length <= PIECE_SIZE:
            spans.append((start, end))
        else:
            for offset in range(0, length, PIECE_SIZE):
                piece_start = start + offset
                spans.append((piece_start, min(piece_start + PIECE_SIZE, end)))
    return spans


def count_tokens(text):
    return len(split_tokens(text))


def statement_token_ranges(statements, spans=None):
    if spans is None:
        spans = token_spans("\n".join(s.text for s in statements))
    total = len(spans)
    ranges = []
    cursor = 0
    offset = 0
    for statement in statements:
        start_char = offset
        end_char = offset + len(statement.text)
        first = None
        last = None
        while cursor < total and spans[cursor][0] < end_char:
            if spans[cursor][1] > start_char:
                if first is None:
                    first = cursor
                last = cursor
            cursor += 1
        if first is None:
            first = last = max(cursor - 1, 0)
        ranges.append((first, last))
        offset = end_char + 1  # the joining newline
    return ranges


def _build_windows(text, spans, window_size, step):
    total = len(spans)
    if total == 0:
        return []
    windows = []
    start = 0
    index = 0
    while True:
        end = min(start + window_size, total)
        windows.append(Window(
            index=index,
            text=text[spans[start][0]:spans[end - 1][1]],
            start_token=start,
            end_token=end,
        ))
        if end >= total:
            return windows
        start += step
        index += 1


def _contained(first, last, windows):
    return any(
        window.start_token <= first and last < window.end_token
        for window in windows
    )


def chunk_statements(statements, window_size, overlap):
    text = "\n".join(s.text for s in statements)
    spans = token_spans(text)
    ranges = statement_token_ranges(statements, spans)
    windows = _build_windows(text, spans, window_size, window_size - overlap)

    if windows:
        broken = [
            statement for statement, (first, last) in zip(statements, ranges)
            if not _contained(first, last, windows)
        ]
    else:
        broken = list(statements)

    if not windows:
        broken_blocks = [s.subject_id for s in statements if s.kind == "node"]
    else:
        blocks = []
        current = None
        for statement, (first, last) in zip(statements, ranges):
            if statement.kind == "node":
                if current is not None:
                    blocks.append(current)
                current = (statement.subject_id, first, last)
            elif current is not None:
                current = (current[0], current[1], last)
        if current is not None:
            blocks.append(current)
        broken_blocks = [
            subject for subject, first, last in blocks
            if not _contained(first, last, windows)
        ]
    return WindowSet(
        windows=windows,
        total_tokens=len(spans),
        window_size=window_size,
        overlap=overlap,
        broken_statements=broken,
        broken_blocks=broken_blocks,
    )


def embed(text, dimension):
    vector = np.zeros(dimension, dtype=np.float64)
    for token in split_tokens(text):
        digest = hashlib.sha1(token.lower().encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % dimension
        vector[bucket] += 1.0 if digest[4] % 2 == 0 else -1.0
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector
