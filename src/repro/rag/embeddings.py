"""Deterministic text embeddings (GPT4AllEmbeddings substitute).

The paper embeds encoded-graph chunks with ``GPT4AllEmbeddings`` from
``langchain_community`` and stores them in a vector database.  Offline we
substitute a *feature-hashed bag-of-tokens* embedder: each token is hashed
(stable across runs via SHA-1, not Python's randomized ``hash``) into a
fixed-dimension vector with a signed weight, vectors are L2-normalised,
and cosine similarity gives lexical-overlap retrieval.  This retains the
property the study depends on: chunks are retrieved by textual similarity
to the query, and a generic "generate consistency rules" query retrieves a
biased, incomplete subset of the graph (§4.5's explanation of RAG's
underperformance).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.encoding.tokenizer import split_tokens

DEFAULT_DIMENSION = 256


class HashedEmbedder:
    """Feature-hashing bag-of-tokens embedder with L2 normalisation."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._token_cache: dict[str, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def _token_slot(self, token: str) -> tuple[int, float]:
        """(bucket index, sign) for one token, cached."""
        cached = self._token_cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.sha1(token.lower().encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "big") % self.dimension
        sign = 1.0 if digest[4] % 2 == 0 else -1.0
        slot = (bucket, sign)
        self._token_cache[token] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm vector (zero vector if empty).

        A bucket is a sum of ±1.0 signs, exact in float64 in any order,
        so one ``bincount`` gives the bits a token-by-token sum would.
        """
        slots = [self._token_slot(token) for token in split_tokens(text)]
        if not slots:
            return np.zeros(self.dimension, dtype=np.float64)
        buckets, signs = zip(*slots)
        vector = np.bincount(buckets, weights=signs, minlength=self.dimension)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def embed_many(self, texts: list[str]) -> np.ndarray:
        """Embed several texts into a (len(texts), dimension) matrix."""
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.vstack([self.embed(text) for text in texts])


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 when either is zero)."""
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)
