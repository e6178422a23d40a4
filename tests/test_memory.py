"""Cosine similarity, index building, and exact top-k retrieval."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import WORDS, cosine_oracle, make_record, search_oracle
from transact.core import EgoState
from transact.memory import (
    EmbeddingVector,
    MemoryIndex,
    MemoryIndexError,
    build_index,
    cosine_similarity,
    search_top_k,
)
from transact.provider import HashEmbedder


def vec(*values: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(float(v) for v in values))


class TestCosine:
    def test_self_similarity_is_one(self):
        v = vec(0.3, -1.2, 4.0, 0.01)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors_score_zero(self):
        assert cosine_similarity(vec(1, 0), vec(0, 1)) == 0.0

    def test_known_value(self):
        # Independent evaluation: dot=32, |a|=sqrt(14), |b|=sqrt(77).
        expected = 32 / math.sqrt(14 * 77)
        got = cosine_similarity(vec(1, 2, 3), vec(4, 5, 6))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.9746318, abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MemoryIndexError, match="dimension mismatch"):
            cosine_similarity(vec(1, 2), vec(1, 2, 3))

    def test_zero_vector_rejected(self):
        with pytest.raises(MemoryIndexError, match="zero-norm"):
            cosine_similarity(vec(0, 0), vec(1, 0))

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_symmetry_and_range(self, a, b):
        # Skip vectors whose squared norm underflows to zero.
        if math.sqrt(sum(x * x for x in a)) < 1e-9 or math.sqrt(sum(y * y for y in b)) < 1e-9:
            return
        va, vb = vec(*a), vec(*b)
        left = cosine_similarity(va, vb)
        assert left == cosine_similarity(vb, va)
        assert -1.0 <= left <= 1.0

    def test_nonfinite_entries_rejected(self):
        # The last one sums to NaN.
        for values in [(1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf), (math.inf, -math.inf)]:
            with pytest.raises(MemoryIndexError, match="finite"):
                EmbeddingVector(values)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        assert math.isinf(sum((1e308, 1e308)))
        assert EmbeddingVector((1e308, 1e308)).values == (1e308, 1e308)

    def test_all_zero_products_score_positive_zero(self):
        # Every dense product is +0.0 or -0.0; fsum of them is +0.0, and so is
        # the sum over an empty shared support.
        score = cosine_similarity(vec(-1, 0), vec(0, -1))
        assert score == 0.0
        assert math.copysign(1.0, score) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_the_dense_oracle(self, data):
        entry = st.one_of(
            st.sampled_from([0.0, 0.0, -0.0]),
            st.floats(-8, 8, allow_nan=False, allow_infinity=False),
        )
        dim = data.draw(st.integers(1, 64))
        a = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        b = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        na = math.sqrt(math.fsum(x * x for x in a))
        nb = math.sqrt(math.fsum(y * y for y in b))
        assume(na * nb > 0.0)
        assert cosine_similarity(vec(*a), vec(*b)).hex() == cosine_oracle(a, b).hex()


    def test_support_lists_a_sparse_vector_and_keeps_a_dense_one_whole(self):
        sparse = vec(0, 2, 0, -0.0, 5)
        assert sparse.support == ([1, 4], [2.0, 5.0])
        dense = vec(1, 2, 0, 3)
        assert dense.support == (range(4), dense.values)
        assert dense.support[1] is dense.values


class TestBuildIndex:
    def test_ten_records_make_ten_entries(self):
        embedder = HashEmbedder()
        problem = [
            make_record(f"p{i}", EgoState.CHILD, context=f"mistake in the report {WORDS[i]}")
            for i in range(5)
        ]
        unrelated = [
            make_record(f"u{i}", EgoState.CHILD, context=f"holiday {WORDS[i]} garden music")
            for i in range(5)
        ]
        idx = build_index(problem + unrelated, embedder, agent="Jordan", ego_state=EgoState.CHILD)
        assert len(idx) == 10
        assert idx.dim == embedder.dim

    def test_empty_records_allowed_and_search_returns_nothing(self):
        idx = build_index([], HashEmbedder(), agent="Jordan", ego_state=EgoState.CHILD)
        assert len(idx) == 0
        assert search_top_k(idx, "anything", 3, HashEmbedder()) == []

    def test_identical_contexts_embed_identically(self):
        embedder = HashEmbedder()
        a = make_record("a", EgoState.ADULT, context="the same context text")
        b = make_record("b", EgoState.ADULT, context="the same context text")
        idx = build_index([a, b], embedder, agent="X", ego_state=EgoState.ADULT)
        assert idx.entries[0][1] == idx.entries[1][1]

    def test_mixed_partition_rejected(self):
        alien = make_record("x", EgoState.PARENT)
        with pytest.raises(MemoryIndexError, match="partition"):
            build_index([alien], HashEmbedder(), agent="X", ego_state=EgoState.CHILD)

    def test_index_rejects_an_entry_of_the_wrong_dimension(self):
        rec = make_record("wide", EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match="'wide' embedded to dim 3, index dim is 2"):
            MemoryIndex(agent="X", ego_state=EgoState.CHILD, entries=((rec, vec(1, 0, 0)),), dim=2)

    def test_index_rejects_a_zero_norm_entry(self):
        ok = make_record("ok", EgoState.CHILD)
        zero = make_record("zero", EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match="'zero' embedded to a zero-norm vector"):
            MemoryIndex(
                agent="X",
                ego_state=EgoState.CHILD,
                entries=((ok, vec(0, 1)), (zero, vec(0, -0.0))),
                dim=2,
            )

    def test_embedder_failure_names_the_record(self):
        bad = make_record("bad-one", EgoState.CHILD, context="!!! ...")
        with pytest.raises(MemoryIndexError, match="bad-one"):
            build_index([bad], HashEmbedder(), agent="X", ego_state=EgoState.CHILD)


    def test_zero_norm_record_stops_the_build_before_the_next_embed(self):
        seen: list[str] = []

        class Recording(FixedEmbedder):
            def embed(self, text: str) -> EmbeddingVector:
                seen.append(text)
                return super().embed(text)

        embedder = Recording({"zero": (0.0, 0.0, 0.0)})
        records = [
            make_record(rid, EgoState.CHILD, context=rid) for rid in ("ok", "zero", "later")
        ]
        with pytest.raises(MemoryIndexError, match="'zero' embedded to a zero-norm vector"):
            build_index(records, embedder, agent="X", ego_state=EgoState.CHILD)
        assert seen == ["ok", "zero"]


class FixedEmbedder:
    """Maps specific texts to fixed vectors; everything else to a constant."""

    def __init__(self, table: dict[str, tuple[float, ...]], dim: int = 3) -> None:
        self.table = table
        self.dim = dim
        self.id = "fixed"

    def embed(self, text: str) -> EmbeddingVector:
        return EmbeddingVector(self.table.get(text, (1.0,) + (0.0,) * (self.dim - 1)))


def assert_bit_identical_to_oracle(idx, query: str, k: int, embedder) -> None:
    got = search_top_k(idx, query, k, embedder)
    want = search_oracle(idx, query, k, embedder)
    assert [rec.id for rec, _ in got] == [rid for rid, _ in want]
    assert [s.hex() for _, s in got] == [s.hex() for _, s in want]


class TestSearchTopK:
    def test_problem_related_records_outrank_unrelated(self):
        embedder = HashEmbedder()
        problem = [
            make_record(
                f"p{i}", EgoState.CHILD,
                context=f"criticized for a mistake in the financial report {WORDS[i]}",
            )
            for i in range(5)
        ]
        unrelated = [
            make_record(f"u{i}", EgoState.CHILD, context=f"{WORDS[20 + i]} holiday bicycle music")
            for i in range(5)
        ]
        idx = build_index(problem + unrelated, embedder, agent="Jordan", ego_state=EgoState.CHILD)
        hits = search_top_k(idx, "mistake in the financial report", 5, embedder)
        assert all(rec.id.startswith("p") for rec, _ in hits)

    def test_verbatim_context_scores_one(self):
        embedder = HashEmbedder()
        rec = make_record("hit", EgoState.ADULT, context="an exact verbatim context line")
        idx = build_index([rec], embedder, agent="X", ego_state=EgoState.ADULT)
        [(top, score)] = search_top_k(idx, "an exact verbatim context line", 1, embedder)
        assert top.id == "hit"
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_oracle_on_random_data(self):
        rng = random.Random(99)
        embedder = HashEmbedder(64)
        records = [
            make_record(f"r{i:03d}", EgoState.ADULT, context=" ".join(rng.sample(WORDS, 4)))
            for i in range(60)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        for _ in range(10):
            query = " ".join(rng.sample(WORDS, 3))
            for k in (1, 3, 10, 60, 100):
                assert_bit_identical_to_oracle(idx, query, k, embedder)

    def test_full_width_partition_matches_oracle_bit_for_bit(self):
        rng = random.Random(2024)
        embedder = HashEmbedder(256)
        records = [
            make_record(
                f"r{i:03d}", EgoState.CHILD,
                context=" ".join(rng.choices(WORDS, k=rng.randint(1, 12))),
            )
            for i in range(500)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.CHILD)
        for _ in range(5):
            query = " ".join(rng.sample(WORDS, rng.randint(1, 5)))
            for k in (1, 3, 500):
                assert_bit_identical_to_oracle(idx, query, k, embedder)


    def test_dense_and_sparse_partition_matches_oracle_bit_for_bit(self):
        # Dense vectors are walked whole, sparse ones by their non-zero indices;
        # a query of either kind scores both exactly as the dense oracle does.
        rng = random.Random(7)
        dim = 64

        def draw(density: float) -> tuple[float, ...]:
            return tuple(
                rng.gauss(0.0, 1.0) if rng.random() < density else 0.0 for _ in range(dim)
            )

        table = {f"t{i}": draw(rng.choice((0.05, 0.3, 0.7, 1.0))) for i in range(200)}
        table = {t: v for t, v in table.items() if any(v)}
        embedder = FixedEmbedder(table, dim=dim)
        records = [make_record(t, EgoState.ADULT, context=t) for t in table]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        for query in list(table)[:20]:
            for k in (1, 5, len(records)):
                assert_bit_identical_to_oracle(idx, query, k, embedder)

    def test_k_larger_than_index_returns_everything(self):
        embedder = HashEmbedder()
        records = [make_record(f"r{i}", EgoState.ADULT, context=WORDS[i]) for i in range(4)]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        assert len(search_top_k(idx, "report", 50, embedder)) == 4
        assert_bit_identical_to_oracle(idx, "report", 50, embedder)

    def test_results_for_k_are_prefix_of_k_plus_one(self):
        rng = random.Random(5)
        embedder = HashEmbedder(32)
        records = [
            make_record(f"r{i}", EgoState.PARENT, context=" ".join(rng.sample(WORDS, 3)))
            for i in range(20)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.PARENT)
        query = "budget report error"
        for k in range(1, 20):
            smaller = search_top_k(idx, query, k, embedder)
            larger = search_top_k(idx, query, k + 1, embedder)
            assert larger[: len(smaller)] == smaller

    def test_scores_descend_and_stay_in_range(self):
        rng = random.Random(6)
        embedder = HashEmbedder(32)
        records = [
            make_record(f"r{i}", EgoState.CHILD, context=" ".join(rng.sample(WORDS, 3)))
            for i in range(15)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.CHILD)
        hits = search_top_k(idx, "ledger risk audit", 15, embedder)
        scores = [s for _, s in hits]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert scores == sorted(scores, reverse=True)

    def test_equal_scores_break_ties_by_ascending_id(self):
        table = {
            "q": (1.0, 0.0),
            "same1": (0.0, 1.0),
            "same2": (0.0, 1.0),
            "close": (1.0, 0.2),
        }
        embedder = FixedEmbedder(table, dim=2)
        records = [
            make_record("zz", EgoState.ADULT, context="same1"),
            make_record("aa", EgoState.ADULT, context="same2"),
            make_record("mm", EgoState.ADULT, context="close"),
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        hits = search_top_k(idx, "q", 3, embedder)
        assert [rec.id for rec, _ in hits] == ["mm", "aa", "zz"]

    def test_k_must_be_positive(self):
        idx = build_index([], HashEmbedder(), agent="X", ego_state=EgoState.ADULT)
        with pytest.raises(ValueError):
            search_top_k(idx, "q", 0, HashEmbedder())


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_search_equals_oracle_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    embedder = HashEmbedder(16)
    n = data.draw(st.integers(1, 25))
    records = [
        make_record(f"r{i:02d}", EgoState.ADULT, context=" ".join(rng.sample(WORDS, rng.randint(1, 4))))
        for i in range(n)
    ]
    idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
    query = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
    k = data.draw(st.integers(1, 30))
    got = search_top_k(idx, query, k, embedder)
    want = search_oracle(idx, query, k, embedder)
    assert [rec.id for rec, _ in got] == [rid for rid, _ in want]
    assert len(got) == min(k, n)



class TestBatchScorer:
    """Each shape of query support, scored as the dense oracle does. The mixed
    dense and sparse partition is in ``TestSearchTopK``."""

    def search_case(self, query, vectors, k=3):
        table = {"q": query, **{f"e{i:02d}": v for i, v in enumerate(vectors)}}
        embedder = FixedEmbedder(table, dim=len(query))
        records = [make_record(t, EgoState.ADULT, context=t) for t in table if t != "q"]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        assert_bit_identical_to_oracle(idx, "q", k, embedder)
        return idx, embedder

    def test_query_with_one_non_zero_entry(self):
        query = (0.0, 0.0, -0.3, 0.0, 0.0)
        assert len(vec(*query).support[0]) == 1
        vectors = [(1, 0, 2, 0, 0), (0, 1, 0, 0, 0), (0, 0, -5, 0, 1), (3, 1, 1, 1, 1)]
        self.search_case(query, vectors + [(0, 0, 0.1, 0, 0)])

    def test_query_whose_support_covers_every_index(self):
        query = (0.5, -1.0, 2.0, 0.25)
        assert vec(*query).support[0] == range(4)
        self.search_case(query, [(1, 0, 0, 0), (0, 0, 3, 0), (1, 2, 3, 4), (-1, -1, 0, 1)], k=4)

    def test_negative_entries(self):
        rng = random.Random(3)
        vectors = [
            tuple(rng.choice((0.0, rng.uniform(-4, 0))) for _ in range(8)) for _ in range(30)
        ]
        vectors = [v for v in vectors if any(v)]
        query = (-1.0, 0.0, -2.5, 0.0, 0.0, -0.5, 0.0, 0.0)
        idx, embedder = self.search_case(query, vectors, k=5)
        assert all(s >= 0.0 for _, s in search_top_k(idx, "q", len(idx), embedder))
        self.search_case(tuple(-x for x in query), vectors, k=5)

    def test_dense_1536_dimension_vectors(self):
        rng = random.Random(1536)

        def draw() -> tuple[float, ...]:
            return tuple(rng.choice((-1, 1)) * rng.uniform(0.001, 1.0) for _ in range(1536))

        vectors = [draw() for _ in range(50)]
        assert all(all(v) for v in vectors)
        for _ in range(3):
            self.search_case(draw(), vectors, k=7)
