"""Per-(agent, ego state) vector memory with exact top-k cosine retrieval.

Search is brute force over the partition: at desk scale (tens to low
thousands of records) this is exact, fast, and equal to the
score-everything-and-sort oracle the tests use. All dot products and norms
use exactly rounded summation (``math.fsum``), so scores are bit-identical
across platforms and independent of accumulation order; that keeps canonical
transcripts byte-stable everywhere. Indices are immutable after build;
concurrent searches need no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence

from .core import EgoState, MemoryRecord


class MemoryIndexError(ValueError):
    """Raised for bad vectors, mixed partitions, or embedder failures at build."""


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise MemoryIndexError("embedding must have at least one dimension")
        if not all(math.isfinite(v) for v in self.values):
            raise MemoryIndexError("embedding entries must all be finite")

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self.values))


class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension vector, deterministically per model."""

    @property
    def id(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), clamped to [-1, 1] against float rounding."""
    if a.dim != b.dim:
        raise MemoryIndexError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.norm == 0.0 or b.norm == 0.0:
        raise MemoryIndexError("cosine similarity is undefined for a zero-norm vector")
    dot = math.fsum(x * y for x, y in zip(a.values, b.values))
    return min(1.0, max(-1.0, dot / (a.norm * b.norm)))


@dataclass(frozen=True)
class MemoryIndex:
    """Immutable search index over one (agent, ego state) partition."""

    agent: str
    ego_state: EgoState
    entries: tuple[tuple[MemoryRecord, EmbeddingVector], ...]
    dim: int

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def record_ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec, _ in self.entries)


def build_index(
    records: Sequence[MemoryRecord],
    embedder: Embedder,
    *,
    agent: str,
    ego_state: EgoState,
) -> MemoryIndex:
    """Embed every record's context field and assemble the partition index.

    Only ``context`` is embedded; reaction/emotions/tone ride along as payload.
    Rejects records from another partition and embeddings that are zero-norm
    or of inconsistent dimension.
    """
    entries: list[tuple[MemoryRecord, EmbeddingVector]] = []
    dim: int | None = None
    for rec in records:
        if rec.ego_state is not ego_state:
            raise MemoryIndexError(
                f"record {rec.id!r} belongs to {rec.ego_state.value}, "
                f"index partition is ({agent}, {ego_state.value})"
            )
        try:
            vec = embedder.embed(rec.context)
        except Exception as e:
            raise MemoryIndexError(f"embedding failed for record {rec.id!r}: {e}") from e
        if vec.norm == 0.0:
            raise MemoryIndexError(f"record {rec.id!r} embedded to a zero-norm vector")
        if dim is None:
            dim = vec.dim
        elif vec.dim != dim:
            raise MemoryIndexError(
                f"record {rec.id!r} embedded to dim {vec.dim}, index dim is {dim}"
            )
        entries.append((rec, vec))
    return MemoryIndex(agent=agent, ego_state=ego_state, entries=tuple(entries), dim=dim or 0)


def search_top_k(
    idx: MemoryIndex, query: str, k: int, embedder: Embedder
) -> list[tuple[MemoryRecord, float]]:
    """Exact top-k by cosine similarity of the embedded query against every entry.

    Returns min(k, len(idx)) results in descending score order; equal scores
    break by ascending record id. Matches a naive score-all-and-fully-sort
    oracle element for element.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not idx.entries:
        return []
    q = embedder.embed(query)
    if q.dim != idx.dim:
        raise MemoryIndexError(f"query embedded to dim {q.dim}, index dim is {idx.dim}")
    if q.norm == 0.0:
        raise MemoryIndexError("query embedded to a zero-norm vector")
    scored = [(rec, cosine_similarity(q, vec)) for rec, vec in idx.entries]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]
