"""Per-(agent, ego state) vector memory with exact top-k cosine retrieval.

Search is brute force over the partition: at desk scale (tens to low
thousands of records) this is exact, fast, and equal to the
score-everything-and-sort oracle the tests use. A score is the ``math.fsum``
of the products over the product of the norms, each the square root of an
``fsum``. ``fsum`` is exactly rounded, so scores are bit-identical across
platforms and independent of accumulation order; that keeps canonical
transcripts byte-stable everywhere.

A vector with at most half of its entries non-zero, as the hash embedder
makes them, holds only its support: the ascending indices of its non-zero
entries and their values. Its tuple of all ``dim`` values is built only when
read.

A query whose support covers every index, as a real embedding model's output
does, is walked row by row: each entry's values against the query's, in
chained C-level ``map`` calls. Any other query is scored through the index's
postings: for each dimension, the positions of the entries whose support
includes it and their values there. Each form is built on the first search
that needs it, so a partition that only sparse queries reach never builds
the entries' full values, and one that only dense queries reach never builds
postings. A sparse search runs in four steps:

1. Approximate dots: for each query dimension ``d``, ``acc[i] += q_d * v``
   over the postings of ``d``, into one list of a slot per entry. Only
   non-zero pairs are multiplied.
2. Approximate cosines ``a_i = acc[i] / (|q| * |e_i|)``, with the very
   denominator of the exact score.
3. T, the k-th largest ``a_i``, clamped to [-1, 1].
4. The exact score of only the entries with ``a_i >= T - 2M``, where
   ``M = (m + 2) * 2**-52`` and m is the length of the query's support.

An exact score is the ``fsum`` of the entry's support values times the
query's, 0.0 where the query has none. Those are the bits of the dense
definition, the ``fsum`` of all ``q_i * e_i``: the order of the terms does
not matter, and ``fsum`` keeps no zero term, +0.0 or -0.0, so neither do the
products left out, each of which has a zero factor. A sum with no non-zero
term is +0.0.

Step 4 is a floating-point filter with exact verification (Shewchuk 1997):
the approximate score decides only where a proven error bound shows it
cannot change the answer. Let u = 2**-53, p_j the rounded products, S their
exact sum and c_i the exact score, and let every norm, the query's and each
entry's, lie in [2**-400, 2**400]. Then no sum or product overflows, and an
underflowing product or square errs by at most 2**-1075, far below
u * |q| * |e|; the bounds below absorb it.

- By Cauchy-Schwarz, the sum of the |p_j| is at most (1 + u) |q| |e| = B.
- ``fsum`` gives D with |D - S| <= u |S|. Naive summation of at most m terms
  gives A with |A - S| <= (m - 1) u B / (1 - (m - 1) u) (Higham, *Accuracy
  and Stability of Numerical Algorithms*, section 4.2).
- Each computed norm is at least (1 - u)**2 times the true one, so the
  shared denominator P is at least (1 - u)**5 |q| |e|.
- Each of the two divisions adds at most u times a quotient of about 1.

So |a_i - c_i| <= E = (m + 2) u (1 + (3m + 8) u). Clamping to [-1, 1]
moves no two values farther apart. Each of the k entries with the largest
clamped ``a_i`` has a clamped exact score of at least T - E. An entry left
out has ``a_i`` below T - 2M as computed, which exceeds the exact difference
by at most u (1 + 2M), so its clamped exact score is below
T - 2M + u (1 + 2M) + E <= T - E while m < 2**24: strictly lower, and it
ranks below at least k entries whatever its id. When T - 2M <= -1 every entry is kept, since clamped scores may tie
at -1; when a norm lies outside the range above, every entry is kept too,
which is exact scoring of every entry.

Rounding can put a cosine just outside [-1, 1]: the raw self-cosine of
(1, 1, 1) is 1.0000000000000002. Every norm is checked finite and non-zero, so
no score is NaN, and the clamp ``min(1.0, max(-1.0, x))`` leaves every score
in [-1, 1] as it is.

The top k are ranked by the keys (-score, id, position), as a full sort of
every entry would rank them. The k-th best exact score is found first, and
only the entries scoring at least that, ties included, get a key.

Vectors and index entries never change after build. What is built on first
use by ``cached_property`` (a vector's values and norm; an index's values,
postings, record ids and norm check) is a pure function of them, so two
threads that race on a first use build equal copies and either serves.
Nothing else is written, so concurrent searches need no lock.
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


#: The sparse filter's error bound holds while every norm lies in this range.
_FILTER_MIN_NORM = 2.0**-400
_FILTER_MAX_NORM = 2.0**400


def _check_finite(values: Sequence[float]) -> None:
    # A finite sum means finite entries; the exact scan runs only when the
    # sum is not, which finite entries whose sum overflows also pass.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise MemoryIndexError("embedding entries must all be finite")


class EmbeddingVector:
    """An immutable vector of ``dim`` finite floats; equal entries make equal
    vectors, however each was built.

    ``support`` holds ascending indices covering every non-zero entry, and
    their values. A vector with more than half of its entries non-zero keeps
    ``values``, and its support is ``range(dim)`` and ``values`` itself.
    """

    dim: int
    support: tuple[Sequence[int], Sequence[float]]

    def __init__(self, values: tuple[float, ...]) -> None:
        if not values:
            raise MemoryIndexError("embedding must have at least one dimension")
        _check_finite(values)
        dim = len(values)
        object.__setattr__(self, "dim", dim)
        if 2 * (dim - values.count(0.0)) > dim:
            object.__setattr__(self, "values", values)
            object.__setattr__(self, "support", (range(dim), values))
            return
        # Lists, not tuples: CPython keeps up to 2,000 freed tuples of each length
        # below 20 on free lists for reuse; supports freed after each search filled
        # them and raised the peak RSS of repeated runs by about 1 MB.
        indices = list(compress(range(dim), values))
        object.__setattr__(self, "support", (indices, list(map(values.__getitem__, indices))))

    @classmethod
    def sparse(cls, dim: int, indices: Sequence[int], values: Sequence[float]) -> EmbeddingVector:
        """The vector of ``dim`` entries that holds ``values`` at the ascending
        ``indices`` and 0.0 elsewhere."""
        if dim < 1:
            raise MemoryIndexError("embedding must have at least one dimension")
        if indices and not 0 <= indices[0] <= indices[-1] < dim:
            raise MemoryIndexError(f"support indices must lie in [0, {dim})")
        _check_finite(values)
        vec = cls.__new__(cls)
        object.__setattr__(vec, "dim", dim)
        object.__setattr__(vec, "support", (list(indices), list(values)))
        # More than half filled: the whole vector, as ``__init__`` keeps it.
        return cls(vec.values) if 2 * len(indices) > dim else vec

    @cached_property
    def values(self) -> tuple[float, ...]:
        full = [0.0] * self.dim  # one shared 0.0 object, not a new float per entry
        for i, v in zip(*self.support):
            full[i] = v
        return tuple(full)

    @cached_property
    def norm(self) -> float:
        # fsum keeps no zero square, so the support's squares give the bits of all dim.
        values = self.support[1]
        try:
            return math.sqrt(math.fsum(map(operator.mul, values, values)))
        except OverflowError:  # the squares' exact sum is beyond the float range
            return math.inf

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"EmbeddingVector(values={self.values!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: EmbeddingVector is immutable")


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


def _kth_largest(values: Sequence[float], k: int) -> float:
    """The k-th largest of ``values``, or the least if there are fewer."""
    # heapq's selection runs Python code on every call; below a few hundred
    # values a C-level sort is faster.
    if len(values) <= 256:
        return sorted(values, reverse=True)[:k][-1]
    return heapq.nlargest(k, values)[-1]


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
    # Every cosine divides by the entry's norm.
    _norms: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Checked once here, so a search can score entries without checking each.
        for rec, vec in self.entries:
            _check_entry(rec, vec, self.dim)
        object.__setattr__(self, "_norms", tuple(vec.norm for _, vec in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def record_ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec, _ in self.entries)

    @cached_property
    def _values(self) -> tuple[tuple[float, ...], ...]:
        """Each entry's values, for a dense query's row walk."""
        return tuple(vec.values for _, vec in self.entries)

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

    @cached_property
    def _norms_in_range(self) -> bool:
        """Whether every entry's norm lies where the sparse filter's error bound holds."""
        return all(_FILTER_MIN_NORM <= norm <= _FILTER_MAX_NORM for norm in self._norms)

    def _sparse_scores(self, q: EmbeddingVector, k: int) -> tuple[Sequence[int], list[float]]:
        """The positions of the entries that may rank in the top k for a
        sparse query, and their exact cosines, clamped: steps 1 to 4 of the
        module docstring."""
        n = len(self.entries)
        acc = [0.0] * n
        postings = self._postings
        for d, q_d in zip(*q.support):
            if d in postings:
                positions, values = postings[d]
                # A plain loop: it measured faster than a C-level map of setitem.
                for i, v in zip(positions, values):
                    acc[i] += q_d * v
        kept: Sequence[int] = range(n)
        norms = self._norms
        if self._norms_in_range and _FILTER_MIN_NORM <= q.norm <= _FILTER_MAX_NORM:
            approx = list(map(operator.truediv, acc, map(operator.mul, repeat(q.norm), norms)))
            kth = _kth_largest(approx, k)
            margin = (len(q.support[0]) + 2) * 2.0**-52
            low = min(1.0, max(-1.0, kth)) - 2 * margin
            if low > -1.0:
                kept = list(compress(kept, map(operator.le, repeat(low), approx)))
        q_at = dict(zip(*q.support)).get
        scores = []
        for i in kept:
            indices, values = self.entries[i][1].support
            dot = math.fsum(map(operator.mul, values, map(q_at, indices, repeat(0.0))))
            scores.append(min(1.0, max(-1.0, dot / (q.norm * norms[i]))))
        return kept, scores


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
    if len(q.support[0]) == q.dim:
        positions: Sequence[int] = range(len(idx.entries))
        scores = _cosines(q, _row_dots(q, idx._values), idx._norms)
    else:
        positions, scores = idx._sparse_scores(q, k)
    # The position breaks ties of equal ids, so records are never compared, and
    # keeps the order a stable sort gives.
    kth = _kth_largest(scores, k)
    ids = idx.record_ids
    ranked = sorted([(-s, ids[i], i) for i, s in zip(positions, scores) if s >= kth])
    # Negation is exact: each key gives back its score's bits.
    return [(idx.entries[i][0], -neg) for neg, _, i in ranked[:k]]
