"""Per-(agent, ego state) vector memory with exact top-k cosine retrieval.

Search is brute force over the partition: at desk scale (tens to low
thousands of records) this is exact, fast, and equal to the
score-everything-and-sort oracle the tests use. All dot products and norms
use exactly rounded summation (``math.fsum``), so scores are bit-identical
across platforms and independent of accumulation order; that keeps canonical
transcripts byte-stable everywhere.

One batch scorer, ``_scores``, computes every cosine, for a whole partition in
a search and for one pair in ``cosine_similarity``. It walks the query's
``support``: the indices of its non-zero entries with their values, or, when
more than half of the entries are non-zero, the whole vector as it is. Each
entry's values at those indices come from one ``operator.itemgetter`` call,
and the dot product, the division by the two norms and the clamp are chained
``map`` calls over the entries' value tuples and norms, which the index
collects once at construction. So scoring a partition runs no Python
bytecode per entry.

That is bit-identical to the dense sum. Every product left out has a zero
factor in the query; a product kept whose entry value is zero is +0.0 or
-0.0; ``math.fsum`` is exactly rounded and keeps no zero term, so the sum of
the remaining products is unchanged, and a sum with no non-zero term is +0.0
either way. Float multiplication is commutative, so which vector's support
is walked does not change a product. Hash-embedded queries have a handful of
non-zero buckets, so a score costs a few multiplications instead of one per
dimension; a dense query is walked in full, with no index list and no copy.

Indices are immutable after build; concurrent searches need no locking.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from typing import Iterable, Iterator, Protocol, Sequence

from .core import EgoState, MemoryRecord


class MemoryIndexError(ValueError):
    """Raised for bad vectors, mixed partitions, or embedder failures at build."""


@dataclass(frozen=True)
class EmbeddingVector:
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise MemoryIndexError("embedding must have at least one dimension")
        # A finite sum means finite entries; the exact scan runs only when the
        # sum is not, which finite entries whose sum overflows also pass.
        if not math.isfinite(sum(self.values)) and not all(map(math.isfinite, self.values)):
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


def _scores(
    q: EmbeddingVector, values: Iterable[Sequence[float]], norms: Iterable[float]
) -> Iterator[float]:
    """Clamped dot(q, e) / (|q| * |e|) for each checked entry e, given by its
    values and norm, walking the support of the checked query q."""
    indices, q_values = q.support
    if len(indices) == q.dim:
        picked = values  # a support that covers every index is the whole vector
    elif len(indices) == 1:
        # itemgetter with one index returns a scalar; a one-item slice, a tuple.
        picked = map(operator.itemgetter(slice(indices[0], indices[0] + 1)), values)
    else:
        picked = map(operator.itemgetter(*indices), values)
    dots = map(math.fsum, map(map, repeat(operator.mul), repeat(q_values), picked))
    cosines = map(operator.truediv, dots, map(operator.mul, repeat(q.norm), norms))
    return map(min, repeat(1.0), map(max, repeat(-1.0), cosines))


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), clamped to [-1, 1] against float rounding."""
    if a.dim != b.dim:
        raise MemoryIndexError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.norm == 0.0 or b.norm == 0.0:
        raise MemoryIndexError("cosine similarity is undefined for a zero-norm vector")
    return next(_scores(a, (b.values,), (b.norm,)))


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
    # What a search reads of each entry, collected once for the batch scorer.
    _values: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Checked once here, so a search can score entries without checking each.
        for rec, vec in self.entries:
            _check_entry(rec, vec, self.dim)
        object.__setattr__(self, "_values", tuple(vec.values for _, vec in self.entries))
        object.__setattr__(self, "_norms", tuple(vec.norm for _, vec in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
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
    oracle element for element: ``heapq.nsmallest(k, items)`` is documented
    to equal ``sorted(items)[:k]``, and every score is bit-identical to
    ``cosine_similarity(query, entry)``.
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
    scores = list(_scores(q, idx._values, idx._norms))
    # Keys (-score, id, position): the position breaks ties of equal ids, so
    # records are never compared, and keeps the order a stable sort gives.
    ranked = heapq.nsmallest(k, zip(map(operator.neg, scores), idx.record_ids, count()))
    return [(idx.entries[i][0], scores[i]) for _, _, i in ranked]
