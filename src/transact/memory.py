"""Per-(agent, ego state) vector memory with exact top-k cosine retrieval.

Search is brute force over the partition: at desk scale (tens to low
thousands of records) this is exact, fast, and equal to the
score-everything-and-sort oracle the tests use. All dot products and norms
use exactly rounded summation (``math.fsum``), so scores are bit-identical
across platforms and independent of accumulation order; that keeps canonical
transcripts byte-stable everywhere.

A query whose ``support`` (the indices of its non-zero entries, with their
values) leaves out some index is scored one dimension at a time, through the
index's postings: for each dimension, the positions of the entries whose
support includes it and their values there. For each query dimension ``d``,
the products ``q_d * v`` of its postings are scattered into a fresh all-0.0
column of one slot per entry, and an entry's dot product is the ``fsum`` of
its row across the columns (``zip(*columns)``). So only non-zero pairs are
multiplied: Python bytecode runs once per posting the query reaches, and the
per-entry sums run in C. A hash-embedded query fills a handful of its 256
buckets, and each posting list is short.

The bits are those of the dense definition, the ``fsum`` of all ``q_i * e_i``.
``math.fsum`` is exactly rounded, so the order of the terms does not matter,
and it keeps no zero term, +0.0 or -0.0, so neither do the products left out,
each of which has a zero factor, nor the 0.0 slots of the columns. Every other
product is the same multiplication. A sum with no non-zero term is +0.0, so an
entry that shares no dimension with the query scores +0.0.

A query whose support covers every index, as a real embedding model's output
does, is walked row by row instead: each entry's values against the query's,
in chained C-level ``map`` calls. A partition that only dense queries reach
never builds its postings.

Rounding can put a cosine just outside [-1, 1]: the raw self-cosine of
(1, 1, 1) is 1.0000000000000002. Every norm is checked finite and non-zero, so
no score is NaN, and the clamp ``min(1.0, max(-1.0, x))`` leaves every score
in [-1, 1] as it is; it runs only when the least or the greatest score is
outside.

The top k are ranked by the keys (-score, id, position), as a full sort of
every entry would rank them. The k-th best score is found first, and only the
entries scoring at least that, ties included, get a key.

An index's entries never change after build. Its postings and record ids are
built on first use by ``cached_property``, each a pure function of the
entries, so two threads that race on a first search build equal copies and
either serves. Nothing else is written, so concurrent searches need no lock.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Protocol, Sequence

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

    @classmethod
    def sparse(cls, dim: int, indices: Sequence[int], values: Sequence[float]) -> EmbeddingVector:
        """The vector of ``dim`` entries that holds ``values`` at the ascending
        ``indices`` and 0.0 elsewhere, with the support taken as given rather
        than found by a scan of every entry."""
        full = [0.0] * dim  # one shared 0.0 object, not a new float per entry
        for i, v in zip(indices, values):
            full[i] = v
        vec = cls(tuple(full))
        if 2 * len(indices) <= dim:  # otherwise ``support`` keeps the whole vector
            vec.__dict__["support"] = (list(indices), list(values))
        return vec

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
        try:
            return math.sqrt(math.fsum(map(operator.mul, values, values)))
        except OverflowError:  # the squares' exact sum is beyond the float range
            return math.inf


class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension vector, deterministically per model."""

    @property
    def id(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...


def _norm_fault(vec: EmbeddingVector) -> str | None:
    """Why a cosine with ``vec`` is undefined, or None if it is defined."""
    if vec.norm == 0.0:
        return "a zero-norm vector"
    if vec.norm == math.inf:
        return "a vector whose norm is not finite"
    return None


def _row_dots(q: EmbeddingVector, rows: Iterable[Sequence[float]]) -> Iterable[float]:
    """dot(q, e) for each entry e given by all its values."""
    return map(math.fsum, map(map, repeat(operator.mul), repeat(q.values), rows))


def _cosines(q: EmbeddingVector, dots: Iterable[float], norms: Iterable[float]) -> list[float]:
    """Each dot(q, e) / (|q| * |e|), clamped to [-1, 1] against float rounding."""
    scores = list(map(operator.truediv, dots, map(operator.mul, repeat(q.norm), norms)))
    if scores and (min(scores) < -1.0 or max(scores) > 1.0):
        return [min(1.0, max(-1.0, s)) for s in scores]
    return scores


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), clamped to [-1, 1] against float rounding."""
    if a.dim != b.dim:
        raise MemoryIndexError(f"dimension mismatch: {a.dim} vs {b.dim}")
    fault = _norm_fault(a) or _norm_fault(b)
    if fault:
        raise MemoryIndexError(f"cosine similarity is undefined for {fault}")
    return _cosines(a, _row_dots(a, (b.values,)), (b.norm,))[0]


def _check_entry(rec: MemoryRecord, vec: EmbeddingVector, dim: int) -> None:
    fault = _norm_fault(vec)
    if fault:
        raise MemoryIndexError(f"record {rec.id!r} embedded to {fault}")
    if vec.dim != dim:
        raise MemoryIndexError(f"record {rec.id!r} embedded to dim {vec.dim}, index dim is {dim}")


@dataclass(frozen=True)
class MemoryIndex:
    """Immutable search index over one (agent, ego state) partition."""

    agent: str
    ego_state: EgoState
    entries: tuple[tuple[MemoryRecord, EmbeddingVector], ...]
    dim: int
    # What a search reads of each entry: the values for a dense query's row
    # walk, and the norms for every cosine.
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

    @cached_property
    def _postings(self) -> dict[int, tuple[list[int], list[float]]]:
        """For each dimension in some entry's support, the ascending positions
        of the entries whose support includes it, and their values there."""
        postings: dict[int, tuple[list[int], list[float]]] = {}
        # A plain loop: it measured faster than C-level chains and a sort by dimension.
        for i, (_, vec) in enumerate(self.entries):
            for d, v in zip(*vec.support):
                if d in postings:
                    positions, values = postings[d]
                    positions.append(i)
                    values.append(v)
                else:
                    postings[d] = ([i], [v])
        return postings

    def _sparse_dots(self, q: EmbeddingVector) -> Iterable[float]:
        """dot(q, e) for each entry e, multiplying only pairs the query's
        support and the postings share."""
        n = len(self.entries)
        columns = []
        postings = self._postings
        for d, q_d in zip(*q.support):
            if d in postings:
                positions, values = postings[d]
                column = [0.0] * n
                # A plain loop: it measured faster than a C-level map of setitem.
                for i, v in zip(positions, values):
                    column[i] = q_d * v
                columns.append(column)
        return map(math.fsum, zip(*columns)) if columns else [0.0] * n


def build_index(
    records: Sequence[MemoryRecord],
    embedder: Embedder,
    *,
    agent: str,
    ego_state: EgoState,
) -> MemoryIndex:
    """Embed every record's context field and assemble the partition index.

    Only ``context`` is embedded; reaction/emotions/tone ride along as payload.
    Rejects records from another partition, embeddings whose norm is zero or
    not finite, and embeddings of inconsistent dimension.
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
    oracle element for element, and every score is bit-identical to
    ``cosine_similarity(query, entry)``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not idx.entries:
        return []
    q = embedder.embed(query)
    if q.dim != idx.dim:
        raise MemoryIndexError(f"query embedded to dim {q.dim}, index dim is {idx.dim}")
    fault = _norm_fault(q)
    if fault:
        raise MemoryIndexError(f"query embedded to {fault}")
    dense = len(q.support[0]) == q.dim
    dots = _row_dots(q, idx._values) if dense else idx._sparse_dots(q)
    scores = _cosines(q, dots, idx._norms)
    # The position breaks ties of equal ids, so records are never compared, and
    # keeps the order a stable sort gives.
    kth = heapq.nlargest(k, scores)[-1]
    ids = idx.record_ids
    ranked = sorted([(-s, ids[i], i) for i, s in enumerate(scores) if s >= kth])
    return [(idx.entries[i][0], scores[i]) for _, _, i in ranked[:k]]
