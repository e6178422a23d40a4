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
entries, and their values as C doubles in one ``array("d")``. Its tuple of
all ``dim`` values is built only when read. Its norm is set when it is built.

Every vector that is scored, the query and each entry, has a norm in
[2**-400, 2**400]. The index build, the query and ``cosine_similarity``
reject any other vector as they reject one whose norm is zero or not finite;
hash-embedded vectors are unit-norm, and so are a real model's.

A query whose support covers every index, as a real embedding model's output
does, is walked row by row: each entry's values against the query's, in
chained C-level ``map`` calls. Any other query is sparse. On a partition of
more than ``_SCAN_MAX`` (16) entries it is scored through the index's
postings: for each dimension, the positions of the entries whose support
includes it and their values there, each divided once by its entry's norm.
On a partition of at most ``_SCAN_MAX`` entries, as the bundled scenario's
10-memory ego states are, it skips steps 1 to 3 below and gives every entry
step 4's exact score: there postings cost more to build than they save.
Each form is built on the first search that needs it, so a partition that
only sparse queries reach never builds the entries' full values, and one
that only dense queries, or sparse queries on at most ``_SCAN_MAX`` entries,
reach never builds postings. A sparse search on a larger partition runs in
four steps:

1. Approximate scaled dots: for each query dimension ``d``,
   ``acc[i] += q_d * w`` over the postings of ``d``, where ``w`` is the
   entry's value over its norm ``|e_i|``, into one list of a slot per entry.
   Only non-zero pairs are multiplied. ``acc[i]`` approximates ``|q|`` times
   the cosine, so no entry's sum is divided.
2. K, the k-th largest ``acc[i]``, clamped to [-|q|, |q|].
3. The threshold ``K - 2M * |q|``, where ``M = (m + 3) * 2**-52`` and m is
   the length of the query's support.
4. The exact score of only the entries with ``acc[i]`` at or above it.

An exact score is the ``fsum`` of the entry's support values times the
query's, 0.0 where the query has none, over ``|q| * |e_i|``. Those are the
bits of the dense definition, the ``fsum`` of all ``q_i * e_i``: the order
of the terms does not matter, and ``fsum`` keeps no zero term, +0.0 or -0.0,
so neither do the products left out, each of which has a zero factor. A sum
with no non-zero term is +0.0.

Step 4 is a floating-point filter with exact verification (Shewchuk 1997):
the approximate score decides only where a proven error bound shows it
cannot change the answer. Let u = 2**-53, Q and N the computed norms of the
query and of an entry, W the sum of the |q_d e_d| / N over the dimensions
they share, x the entry's exact score before clamping, and X = Q x. Every
norm lies in [2**-400, 2**400], so no sum or product overflows. A quotient,
product or sum that underflows errs by at most 2**-1075, below 2**-270 Q in
the units of ``acc``, and a norm whose squares underflow errs by a relative
2**-270 or less; the bounds below absorb both.

- Each computed norm is within a factor (1 - u)**2 of the true one, so by
  Cauchy-Schwarz W <= |q| |e| / N <= Q / (1 - u)**4.
- A term of ``acc[i]`` is q_d e_d / N with two roundings, of the quotient at
  build and of the product. Naive summation of at most m terms adds at most
  (m - 1) u / (1 - (m - 1) u) times the sum of their magnitudes (Higham,
  *Accuracy and Stability of Numerical Algorithms*, section 4.2).
- X is the same exact sum with four roundings: of each product, of the
  ``fsum``, of the denominator ``Q * N`` and of the division.

So |acc[i] - X| <= E Q, with E = (m + 5) u (1 + (m + 5) u). Q times an
entry's clamped exact score is X clamped to [-Q, Q], and clamping moves no
two values farther apart. Each of the k entries with the largest ``acc[i]``
thus has a clamped exact score of at least K / Q - E. An entry left out has
``acc[i]`` below the threshold as computed, which exceeds K - 2MQ by at most
u (1 + 5M) Q, so its clamped exact score is below
K / Q - 2M + u (1 + 5M) + E <= K / Q - E while m < 2**24: strictly lower,
and it ranks below at least k entries whatever its id. ``(m + 2) * 2**-52``
in place of M would fail that at m = 1. When the threshold is at most -Q
every entry is kept, since clamped scores may tie at -1. A partition of at
most ``_SCAN_MAX`` entries keeps every entry in the same way, without steps
1 to 3: step 4 scores each one exactly, so its bits and ranking need no
bound at all.

Rounding can put a cosine just outside [-1, 1]: the raw self-cosine of
(1, 1, 1) is 1.0000000000000002. No norm is zero or infinite, so no score is
NaN, and the clamp ``min(1.0, max(-1.0, x))`` leaves every score
in [-1, 1] as it is.

The top k are the first k scored entries sorted by the keys
(-score, id, position), as a full sort of every entry would rank them.

Vectors and index entries never change after build. What is built on first
use (a vector's tuple of values, kept in a slot; an index's postings, a
``cached_property``) is a pure function of them, so two threads that race on
a first use build equal copies and either serves.

An index holds the embedder that built it and embeds each query with it, so
a query lands in the vector space of the entries. It also keeps a memo of
the searches it has answered: their hits, by query text and k. A repeated
search, as an ego state that sends the same cue turn after turn makes, is
answered from it without embedding or scoring the query again. The memo is
checked after the k and empty-index checks, and written only after a search
succeeds, so a failed embed or a rejected query raises again the next time.
Each call returns a new list. An index lives for one run, and the memo holds
at most one entry per search made in it. The memo is the only thing written
after build besides the forms above; two threads that race on one search
compute equal hits, and one dict store replaces the other whole, so
concurrent searches need no lock.
"""

from __future__ import annotations

import heapq
import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Protocol, Sequence

from .core import EgoState, MemoryRecord


class MemoryIndexError(ValueError):
    """Raised for bad vectors, mixed partitions, or embedder failures at build."""


#: Every scored vector's norm lies in this range, where the sparse filter's error bound holds.
_MIN_NORM = 2.0**-400
_MAX_NORM = 2.0**400

#: A sparse search on a partition of at most this many entries scores each one
#: exactly and builds no postings. Per search on hash-embedded records (Python
#: 3.11, 2-vCPU Linux container), exact scores of every entry / search through
#: built postings / postings build: 10 entries 14.1 / 13.1 / 29.0 us, 16 entries
#: 20.5 / 13.8 / 41.9 us, 32 entries 39.8 / 17.2 / 79.3 us, 100 entries
#: 139 / 38 / 219 us. At 16 the scan still wins until a partition has answered
#: six distinct queries; the bundled scenario's partitions answer one each.
_SCAN_MAX = 16


def _check_finite(values: Sequence[float]) -> None:
    if not all(map(math.isfinite, values)):
        raise MemoryIndexError("embedding entries must all be finite")


def _norm(support_values: Sequence[float]) -> float:
    """The vector's norm from its support's values: ``fsum`` keeps no zero
    square, so they give the bits of all ``dim`` squares."""
    try:
        return math.sqrt(math.fsum(map(operator.mul, support_values, support_values)))
    except OverflowError:  # the squares' exact sum is beyond the float range
        return math.inf


class EmbeddingVector:
    """An immutable vector of ``dim`` finite floats; equal entries make equal
    vectors, however each was built.

    ``support`` holds ascending indices covering every non-zero entry, and
    their values. A vector with more than half of its entries non-zero keeps
    ``values``, and its support is ``range(dim)`` and ``values`` itself.
    Otherwise the indices are a list and their values one ``array("d")``, so
    an int entry reads back as the equal float.
    """

    __slots__ = ("dim", "support", "norm", "_values")

    dim: int
    support: tuple[Sequence[int], Sequence[float]]
    norm: float

    def __init__(self, values: Sequence[float]) -> None:
        values = tuple(values)  # the caller's list could change; a tuple is kept as it is
        if not values:
            raise MemoryIndexError("embedding must have at least one dimension")
        _check_finite(values)
        dim = len(values)
        object.__setattr__(self, "dim", dim)
        if 2 * (dim - values.count(0.0)) > dim:
            object.__setattr__(self, "_values", values)
            support: tuple[Sequence[int], Sequence[float]] = (range(dim), values)
        else:
            object.__setattr__(self, "_values", None)
            # Values as C doubles: 8 bytes each, where a list holds a pointer to a 24-byte
            # float. Indices in a list, whose ints below 257 CPython shares; not a tuple:
            # CPython keeps up to 2,000 freed tuples of each length below 20 for reuse, and
            # supports freed after each search filled them and raised peak RSS by about 1 MB.
            indices = list(compress(range(dim), values))
            support = (indices, array("d", map(values.__getitem__, indices)))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "norm", _norm(support[1]))

    @classmethod
    def sparse(cls, dim: int, indices: Sequence[int], values: Sequence[float]) -> EmbeddingVector:
        """The vector of ``dim`` entries that holds ``values`` at the ascending
        ``indices`` and 0.0 elsewhere. The indices must strictly ascend, and
        each have one value."""
        if dim < 1:
            raise MemoryIndexError("embedding must have at least one dimension")
        if len(indices) != len(values) or not all(map(operator.lt, indices, indices[1:])):
            raise MemoryIndexError("support indices must strictly ascend, one value each")
        if indices and not 0 <= indices[0] <= indices[-1] < dim:
            raise MemoryIndexError(f"support indices must lie in [0, {dim})")
        _check_finite(values)
        vec = cls.__new__(cls)
        object.__setattr__(vec, "dim", dim)
        object.__setattr__(vec, "support", (list(indices), array("d", values)))
        object.__setattr__(vec, "_values", None)
        if 2 * len(indices) > dim:
            # More than half filled: the whole vector, as ``__init__`` keeps it.
            return cls(vec.values)
        object.__setattr__(vec, "norm", _norm(vec.support[1]))
        return vec

    @property
    def values(self) -> tuple[float, ...]:
        """All ``dim`` entries, built from the support on first read."""
        if self._values is None:
            full = [0.0] * self.dim  # one shared 0.0 object, not a new float per entry
            for i, v in zip(*self.support):
                full[i] = v
            object.__setattr__(self, "_values", tuple(full))
        return self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __reduce__(self) -> tuple[object, ...]:
        # Copies and pickles are rebuilt by a constructor, since __setattr__ refuses every slot.
        return (EmbeddingVector.sparse, (self.dim, *self.support))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: EmbeddingVector is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: EmbeddingVector is immutable")


class Embedder(Protocol):
    """Anything that maps text to a fixed-dimension vector, deterministically per model."""

    @property
    def id(self) -> str: ...

    def embed(self, text: str) -> EmbeddingVector: ...


def _vector_fault(vec: EmbeddingVector, dim: int) -> str | None:
    """Why ``vec`` cannot be scored against vectors of ``dim`` entries, or None
    if it can: its dimension, else its norm outside the domain of scoring."""
    if vec.dim != dim:
        return f"dim {vec.dim}, index dim is {dim}"
    if vec.norm == 0.0:
        return "a zero-norm vector"
    if vec.norm == math.inf:
        return "a vector whose norm is not finite"
    if not _MIN_NORM <= vec.norm <= _MAX_NORM:
        return "a vector whose norm lies outside [2**-400, 2**400]"
    return None


def _row_dots(q: EmbeddingVector, rows: Iterable[Sequence[float]]) -> Iterable[float]:
    """dot(q, e) for each entry e given by all its values."""
    return map(math.fsum, map(map, repeat(operator.mul), repeat(q.values), rows))


def _cosines(q: EmbeddingVector, dots: Iterable[float], norms: Iterable[float]) -> list[float]:
    """Each dot(q, e) / (|q| * |e|), clamped to [-1, 1] against float rounding."""
    q_norm = q.norm
    return [min(1.0, max(-1.0, dot / (q_norm * norm))) for dot, norm in zip(dots, norms)]


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """dot(a, b) / (|a| * |b|), clamped to [-1, 1] against float rounding."""
    if a.dim != b.dim:
        raise MemoryIndexError(f"dimension mismatch: {a.dim} vs {b.dim}")
    fault = _vector_fault(a, a.dim) or _vector_fault(b, a.dim)
    if fault:
        raise MemoryIndexError(f"cosine similarity is undefined for {fault}")
    return _cosines(a, _row_dots(a, (b.values,)), (b.norm,))[0]


def _check_entry(rec: MemoryRecord, vec: EmbeddingVector, dim: int) -> None:
    fault = _vector_fault(vec, dim)
    if fault:
        raise MemoryIndexError(f"record {rec.id!r} embedded to {fault}")


@dataclass(frozen=True)
class MemoryIndex:
    """Immutable search index over one (agent, ego state) partition, with the
    embedder that embedded its records; ``dim`` is 0 when it has no entries."""

    agent: str
    ego_state: EgoState
    entries: tuple[tuple[MemoryRecord, EmbeddingVector], ...]
    embedder: Embedder = field(repr=False, compare=False)
    dim: int = field(init=False)
    # Each answered search's hits, by (query, k).
    _memo: dict[tuple[str, int], tuple[tuple[MemoryRecord, float], ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        dim = self.entries[0][1].dim if self.entries else 0
        # Checked once here, so a search can score entries without checking each.
        for rec, vec in self.entries:
            _check_entry(rec, vec, dim)
        object.__setattr__(self, "dim", dim)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _postings(self) -> dict[int, tuple[list[int], array[float]]]:
        """For each dimension in some entry's support, the ascending positions
        of the entries whose support includes it, and their values there over
        the entry's norm."""
        postings: dict[int, tuple[list[int], array[float]]] = {}
        # A plain loop: it measured faster than C-level chains and a sort by dimension.
        # Arrays, not lists: a new float per posting raised peak RSS by over 1 MB.
        for i, (_, vec) in enumerate(self.entries):
            norm = vec.norm
            for d, v in zip(*vec.support):
                if d in postings:
                    positions, values = postings[d]
                    positions.append(i)
                    values.append(v / norm)
                else:
                    postings[d] = ([i], array("d", (v / norm,)))
        return postings

    def _sparse_scores(self, q: EmbeddingVector, k: int) -> tuple[Sequence[int], list[float]]:
        """The positions of the entries that may rank in the top k for a
        sparse query, and their exact cosines, clamped: steps 1 to 4 of the
        module docstring, or step 4 alone for every entry of a partition of
        at most ``_SCAN_MAX``."""
        n = len(self.entries)
        kept: Sequence[int] = range(n)
        if n > _SCAN_MAX:
            acc = [0.0] * n
            postings = self._postings
            for d, q_d in zip(*q.support):
                if d in postings:
                    positions, values = postings[d]
                    # A plain loop: it measured faster than a C-level map of setitem.
                    for i, v in zip(positions, values):
                        acc[i] += q_d * v
            q_norm = q.norm
            # The k-th largest, or the least when there are fewer than k.
            kth = min(q_norm, max(-q_norm, heapq.nlargest(k, acc)[-1]))
            margin = (len(q.support[0]) + 3) * 2.0**-52
            low = kth - 2 * margin * q_norm
            if low > -q_norm:
                kept = list(compress(kept, map(operator.le, repeat(low), acc)))
        q_at = dict(zip(*q.support)).get
        vecs = [self.entries[i][1] for i in kept]
        dots = [
            math.fsum(map(operator.mul, values, map(q_at, indices, repeat(0.0))))
            for indices, values in (vec.support for vec in vecs)
        ]
        return kept, _cosines(q, dots, (vec.norm for vec in vecs))


def build_index(
    records: Sequence[MemoryRecord],
    embedder: Embedder,
    *,
    agent: str,
    ego_state: EgoState,
) -> MemoryIndex:
    """Embed every record's context field and assemble the partition index,
    which keeps ``embedder`` to embed its queries.

    Only ``context`` is embedded; reaction/emotions/tone ride along as payload.
    Rejects records from another partition, embeddings whose norm lies outside
    [2**-400, 2**400] (zero and non-finite norms included), and embeddings of
    inconsistent dimension.
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
    return MemoryIndex(agent, ego_state, tuple(entries), embedder)


def search_top_k(idx: MemoryIndex, query: str, k: int) -> list[tuple[MemoryRecord, float]]:
    """Exact top-k by cosine similarity of the query, embedded by
    ``idx.embedder``, against every entry.

    Returns min(k, len(idx)) results in descending score order; equal scores
    break by ascending record id. Matches a naive score-all-and-fully-sort
    oracle element for element, and every score is bit-identical to
    ``cosine_similarity(query, entry)``. A search this index has answered
    before, by the same query and k, is answered from its memo.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not idx.entries:
        return []
    key = (query, k)
    hits = idx._memo.get(key)
    if hits is not None:
        return list(hits)
    q = idx.embedder.embed(query)
    fault = _vector_fault(q, idx.dim)
    if fault:
        raise MemoryIndexError(f"query embedded to {fault}")
    if len(q.support[0]) == q.dim:
        positions: Sequence[int] = range(len(idx.entries))
        rows = (vec.values for _, vec in idx.entries)
        scores = _cosines(q, _row_dots(q, rows), (vec.norm for _, vec in idx.entries))
    else:
        positions, scores = idx._sparse_scores(q, k)
    # The position breaks ties of equal ids, so records are never compared, and
    # keeps the order a stable sort gives.
    entries = idx.entries
    ranked = sorted([(-s, entries[i][0].id, i) for i, s in zip(positions, scores)])
    # Negation is exact: each key gives back its score's bits.
    hits = tuple((entries[i][0], -neg) for neg, _, i in ranked[:k])
    idx._memo[key] = hits
    return list(hits)
