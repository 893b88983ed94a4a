"""Graph-to-text encoding: tokenizer, encoders and sliding windows."""

from repro.encoding.adjacency import AdjacencyEncoder
from repro.encoding.incident import (
    IncidentEncoder,
    Statement,
    format_properties,
    format_value,
)
from repro.encoding.tokenizer import (
    count_tokens,
    split_tokens,
    token_spans,
)
from repro.encoding.windows import (
    DEFAULT_OVERLAP,
    DEFAULT_WINDOW_SIZE,
    SlidingWindowChunker,
    Window,
    WindowSet,
    statement_token_ranges,
)

ENCODERS = {
    IncidentEncoder.name: IncidentEncoder,
    AdjacencyEncoder.name: AdjacencyEncoder,
}

__all__ = [
    "AdjacencyEncoder",
    "DEFAULT_OVERLAP",
    "DEFAULT_WINDOW_SIZE",
    "ENCODERS",
    "IncidentEncoder",
    "SlidingWindowChunker",
    "Statement",
    "Window",
    "WindowSet",
    "count_tokens",
    "format_properties",
    "format_value",
    "split_tokens",
    "statement_token_ranges",
    "token_spans",
]
