"""Per-(agent, ego state) vector memory with exact top-k cosine retrieval.

Search is brute force over the partition: at desk scale (tens to low
thousands of records) this is exact, fast, and equal to the
score-everything-and-sort oracle the tests use. All dot products and norms
use exactly rounded summation (``math.fsum``), so scores are bit-identical
across platforms and independent of accumulation order; that keeps canonical
transcripts byte-stable everywhere.

Dot products and norms run over each vector's ``support``: the indices of its
non-zero entries with their values, or, when more than half of the entries
are non-zero, the whole vector as it is. A dot product walks the shorter
support and reads the other vector at those indices. That is bit-identical to
the dense sum: every product left out has a zero factor, so it is +0.0 or
-0.0, and ``math.fsum`` keeps no zero term, so the exactly rounded sum of the
remaining products is unchanged, and a sum with no non-zero term is +0.0
either way. Hash-embedded vectors have a handful of non-zero buckets, so a
score costs a few multiplications instead of one per dimension; a dense
remote embedding is walked in full, with no index list and no copy.

Indices are immutable after build; concurrent searches need no locking.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
    def support(self) -> tuple[Sequence[int], Sequence[float]]:
        """Ascending indices covering every non-zero entry, and their values.

        A vector with more than half of its entries non-zero keeps them all:
        ``range(dim)`` and ``values`` itself, so a dense vector gets no index list or copy.
        """
        if 2 * (self.dim - self.values.count(0.0)) > self.dim:
            return range(self.dim), self.values
        # Lists, not tuples: CPython keeps up to 2,000 freed tuples of each length
        # below 20 on free lists for reuse; supports freed after each search filled
        # them and raised the peak RSS of repeated runs by about 1 MB.
        indices = list(compress(range(self.dim), self.values))
        return indices, list(map(self.values.__getitem__, indices))

    @cached_property
    def norm(self) -> float:
        values = self.support[1]
        return math.sqrt(math.fsum(map(operator.mul, values, values)))


class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension vector, deterministically per model."""

    @property
    def id(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...


def _cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Clamped dot(a, b) / (|a| * |b|) of checked vectors, walking the shorter support."""
    indices, values = a.support
    if len(indices) > len(b.support[0]):
        a, b = b, a
        indices, values = a.support
    other = b.values
    if len(indices) == len(other):
        # A support that covers every index is the whole vector, in index order.
        dot = math.fsum(map(operator.mul, values, other))
    else:
        dot = math.fsum([x * other[i] for i, x in zip(indices, values)])
    return min(1.0, max(-1.0, dot / (a.norm * b.norm)))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), clamped to [-1, 1] against float rounding."""
    if a.dim != b.dim:
        raise MemoryIndexError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.norm == 0.0 or b.norm == 0.0:
        raise MemoryIndexError("cosine similarity is undefined for a zero-norm vector")
    return _cosine(a, b)


def _check_entry(rec: MemoryRecord, vec: EmbeddingVector, dim: int) -> None:
    if vec.norm == 0.0:
        raise MemoryIndexError(f"record {rec.id!r} embedded to a zero-norm vector")
    if vec.dim != dim:
        raise MemoryIndexError(f"record {rec.id!r} embedded to dim {vec.dim}, index dim is {dim}")


@dataclass(frozen=True)
class MemoryIndex:
    """Immutable search index over one (agent, ego state) partition."""

    agent: str
    ego_state: EgoState
    entries: tuple[tuple[MemoryRecord, EmbeddingVector], ...]
    dim: int

    def __post_init__(self) -> None:
        # Checked once here, so a search can score entries without checking each.
        for rec, vec in self.entries:
            _check_entry(rec, vec, self.dim)

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
        # Checked as it arrives too, so a bad record stops the build before the next embed.
        _check_entry(rec, vec, entries[0][1].dim if entries else vec.dim)
        entries.append((rec, vec))
    dim = entries[0][1].dim if entries else 0
    return MemoryIndex(agent=agent, ego_state=ego_state, entries=tuple(entries), dim=dim)


def search_top_k(
    idx: MemoryIndex, query: str, k: int, embedder: Embedder
) -> list[tuple[MemoryRecord, float]]:
    """Exact top-k by cosine similarity of the embedded query against every entry.

    Returns min(k, len(idx)) results in descending score order; equal scores
    break by ascending record id. Matches a naive score-all-and-fully-sort
    oracle element for element: ``heapq.nsmallest(k, items, key=f)`` is
    documented to equal ``sorted(items, key=f)[:k]``, and every score is
    bit-identical to ``cosine_similarity(query, entry)``.
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
    scored = [(rec, _cosine(q, vec)) for rec, vec in idx.entries]
    return heapq.nsmallest(k, scored, key=lambda pair: (-pair[1], pair[0].id))
