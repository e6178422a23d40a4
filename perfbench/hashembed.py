"""An independent re-statement of the hash embedder and exact cosine scoring.

The benchmark needs hash-embedding vectors in two places where it must not
call the program under test: the HTTP stub, which serves them to the remote
embedder, and the oracle that predicts every retrieval hit of a generated
run. Both follow the definitions in the program's documentation: lowercase,
split into alphanumeric tokens, hash each token to one of 256 buckets with
keyed blake2b, count, and L2-normalise with exactly rounded sums.

Vectors are kept sparse here. Every entry is non-negative, so products off
the shared support are exactly 0.0, and ``math.fsum`` over the shared
support returns the same float as ``math.fsum`` over all 256 products.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from hashlib import blake2b

DIM = 256
EMBEDDER_ID = f"hash-v1-{DIM}"
_KEY = b"transact-hash-embed-v1"
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@lru_cache(maxsize=None)
def _bucket(token: str) -> int:
    digest = blake2b(token.encode("utf-8"), digest_size=8, key=_KEY).digest()
    return int.from_bytes(digest, "big") % DIM


class SparseVector:
    """Bucket -> value for the non-zero entries, plus the vector's norm."""

    __slots__ = ("values", "norm")

    def __init__(self, values: dict[int, float]) -> None:
        self.values = values
        self.norm = math.sqrt(math.fsum(v * v for v in values.values()))


def embed(text: str) -> SparseVector:
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise ValueError(f"no alphanumeric tokens in {text!r}")
    counts: dict[int, float] = {}
    for token in tokens:
        b = _bucket(token)
        counts[b] = counts.get(b, 0.0) + 1.0
    norm = math.sqrt(math.fsum(c * c for c in counts.values()))
    return SparseVector({b: c / norm for b, c in counts.items()})


def dense(text: str) -> list[float]:
    """The full 256-entry vector, as the embeddings endpoint returns it."""
    out = [0.0] * DIM
    for b, v in embed(text).values.items():
        out[b] = v
    return out


def cosine(a: SparseVector, b: SparseVector) -> float:
    small, large = (a, b) if len(a.values) <= len(b.values) else (b, a)
    lv = large.values
    dot = math.fsum(v * lv[k] for k, v in small.values.items() if k in lv)
    return min(1.0, max(-1.0, dot / (a.norm * b.norm)))
