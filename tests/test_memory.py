"""Cosine similarity, index building, and exact top-k retrieval."""

from __future__ import annotations

import copy
import math
import pickle
import random
import types
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WORDS, cosine_oracle, make_record, search_oracle
from test_acceptance import GOLDEN_RUN_SHA256
from transact import memory, orchestrator
from transact.core import EgoState, transcript_hash
from transact.memory import (
    EmbeddingVector,
    MemoryIndex,
    MemoryIndexError,
    build_index,
    cosine_similarity,
    search_top_k,
)
from transact.provider import HashEmbedder, ScriptedProvider


def vec(*values: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(float(v) for v in values))


#: The message for a norm outside the domain every scored vector lies in.
OUTSIDE = r"a vector whose norm lies outside \[2\*\*-400, 2\*\*400\]"


def in_domain(values) -> bool:
    """Whether the norm of ``values``, by its definition, lies in [2**-400, 2**400]."""
    return 2.0**-400 <= math.sqrt(math.fsum(x * x for x in values)) <= 2.0**400


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

    @pytest.mark.parametrize("values", [(1e200, 1e200), (1.2e154, -1.2e154)])
    def test_vector_whose_norm_overflows_rejected(self, values):
        # The squares overflow in the first; their exact sum, in the second.
        big = vec(*values)
        assert big.norm == math.inf
        for a, b in ((big, big), (big, vec(1, 0)), (vec(1, 0), big)):
            with pytest.raises(MemoryIndexError, match="norm is not finite"):
                cosine_similarity(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            # The squares underflow: this pair read 0.6667, not 0.7071.
            ((3e-162, 0.0), (3e-162, 3e-162)),
            ((2.0**450, 0.0), (1.0, 1.0)),
            ((1.0, 1.0), (0.0, 2.0**-401)),
        ],
    )
    def test_vector_whose_norm_lies_outside_the_domain_rejected(self, a, b):
        with pytest.raises(MemoryIndexError, match="cosine similarity is undefined for " + OUTSIDE):
            cosine_similarity(vec(*a), vec(*b))

    def test_domain_includes_its_bounds(self):
        assert cosine_similarity(vec(2.0**-400, 0), vec(2.0**400, 0)) == 1.0

    def test_self_cosine_rounding_above_one_is_clamped(self):
        v = vec(1, 1, 1)
        raw = math.fsum([1.0, 1.0, 1.0]) / (math.sqrt(3.0) * math.sqrt(3.0))
        assert raw == 1.0000000000000002
        assert cosine_similarity(v, v).hex() == (1.0).hex() == cosine_oracle(v.values, v.values).hex()

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
        if in_domain(a) and in_domain(b):
            assert cosine_similarity(vec(*a), vec(*b)).hex() == cosine_oracle(a, b).hex()
        else:
            with pytest.raises(MemoryIndexError):
                cosine_similarity(vec(*a), vec(*b))


    def test_support_lists_a_sparse_vector_and_keeps_a_dense_one_whole(self):
        sparse = vec(0, 2, 0, -0.0, 5)
        assert sparse.support == ([1, 4], array("d", [2.0, 5.0]))
        dense = vec(1, 2, 0, 3)
        assert dense.support == (range(4), dense.values)
        assert dense.support[1] is dense.values

    def test_a_vector_is_immutable(self):
        v = vec(0, 2, 0, 3)
        for name in ("dim", "norm", "support", "values"):
            with pytest.raises(AttributeError, match=f"cannot assign to '{name}'"):
                setattr(v, name, None)
        assert v == vec(0, 2, 0, 3)

    def test_no_attribute_of_a_vector_can_be_deleted(self):
        # Deleting the norm once succeeded, and a later search failed with a bare AttributeError.
        v = vec(0, 2, 0, 0, 3, 0)
        for name in ("dim", "norm", "support", "values", "_values"):
            with pytest.raises(AttributeError, match=f"cannot delete '{name}': .* immutable"):
                delattr(v, name)
        assert v == vec(0, 2, 0, 0, 3, 0)
        assert cosine_similarity(v, v) == 1.0

    def test_a_vector_has_no_instance_dict(self):
        for v in (vec(0, 2, 0, 3), vec(1, 2, 0, 3), HashEmbedder().embed("budget report")):
            assert not hasattr(v, "__dict__")
            v.values  # built on first read, into its slot
            assert not hasattr(v, "__dict__")

    def test_sparse_values_are_c_doubles(self):
        for v in (
            vec(0, 2, 0, 0, 3, 0),
            EmbeddingVector.sparse(6, [1, 4], [2.0, 3.0]),
            HashEmbedder().embed("budget report error"),
        ):
            assert type(v.support[0]) is list
            assert type(v.support[1]) is array and v.support[1].typecode == "d"

    def test_an_int_entry_reads_as_the_equal_float_and_scores_its_bits(self):
        q = vec(0, 1, 0, 0, 1, 0, 0, 7)
        floats = EmbeddingVector.sparse(8, [1, 4], [3.0, -4.0])
        for ints in (
            EmbeddingVector.sparse(8, [1, 4], [3, -4]),
            EmbeddingVector((0, 3, 0, 0, -4, 0, 0, 0)),
        ):
            assert ints == floats
            assert list(map(type, ints.support[1])) == [float, float]
            assert ints.values == floats.values
            assert set(map(type, ints.values)) == {float}
            assert ints.norm.hex() == floats.norm.hex()
            assert cosine_similarity(q, ints).hex() == cosine_similarity(q, floats).hex()
        rows = {"a": (0, 3, 0, 0, -4, 0, 0, 0), "b": (2, 0, 0, 0, 1, 0, 0, 0), "q": q.values}
        records = [make_record(t, EgoState.ADULT, context=t) for t in ("a", "b")]
        hits = {}
        for cast in (int, float):
            table = {t: tuple(map(cast, values)) for t, values in rows.items()}
            embedder = FixedEmbedder(table, dim=8)
            idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
            hits[cast] = hits_hex(search_top_k(idx, "q", 2))
        assert hits[int] == hits[float]

    def test_copies_and_pickles_equal_the_vector(self):
        for v in (vec(0, 2, 0, 0, 3, 0), vec(1, 2, 0, 3), HashEmbedder().embed("budget report")):
            for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert not hasattr(twin, "__dict__")
                assert twin.support == v.support
                assert twin.norm.hex() == v.norm.hex()
                assert twin == v
            assert (v == "x") is False  # a vector equals only a vector

    def test_a_vector_built_from_a_list_keeps_its_own_tuple(self):
        given = [1.0, 2.0, 3.0]
        built = EmbeddingVector(given)
        assert built == vec(1, 2, 3)
        assert hash(built) == hash(vec(1, 2, 3))
        given[0] = 9.0
        assert built.values == (1.0, 2.0, 3.0)
        assert built.support[1] == (1.0, 2.0, 3.0)
        assert built.norm == vec(1, 2, 3).norm

    def test_a_vector_of_no_dimension_is_rejected(self):
        for make in (lambda: EmbeddingVector(()), lambda: EmbeddingVector.sparse(0, [], [])):
            with pytest.raises(MemoryIndexError, match="at least one dimension"):
                make()

    def test_sparse_constructor_equals_the_scanned_vector(self):
        given = EmbeddingVector.sparse(6, [1, 4], [2.0, -5.0])
        scanned = vec(0, 2, 0, 0, -5, 0)
        assert given == scanned
        assert given.support == scanned.support == ([1, 4], array("d", [2.0, -5.0]))
        # More than half of the entries filled: the whole vector, as a scan keeps it.
        dense = EmbeddingVector.sparse(3, [0, 2], [1.0, 2.0])
        assert dense.support == (range(3), dense.values) == vec(1, 0, 2).support
        for indices in ([-1, 2], [1, 6]):
            with pytest.raises(MemoryIndexError, match=r"support indices must lie in \[0, 6\)"):
                EmbeddingVector.sparse(6, indices, [1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_norm_is_set_when_built_with_the_bits_of_its_definition(self, values):
        try:
            definition = math.sqrt(math.fsum(x * x for x in values))
        except OverflowError:  # the squares' exact sum is beyond the float range
            definition = math.inf
        n = len(values)
        built = {
            "init": EmbeddingVector(tuple(values)),
            # At most half of the entries filled: the vector keeps its support.
            "sparse": EmbeddingVector.sparse(2 * n, range(0, 2 * n, 2), values),
            # More than half filled: the whole vector, as ``__init__`` keeps it.
            "dense": EmbeddingVector.sparse(n, range(n), values),
        }
        assert built["sparse"]._values is None
        # A plain slot: reading it runs no code, so each norm below was set at build.
        assert isinstance(EmbeddingVector.norm, types.MemberDescriptorType)
        for form, v in built.items():
            assert v.norm.hex() == definition.hex(), form

    # Each was accepted once: [2, 2] kept the norm of both values but the
    # second value alone, so it read cosine 0.8 with the unit vector at 2.
    @pytest.mark.parametrize(
        "indices, values",
        [([1, 4, 2], [0.5, 1.0, 2.0]), ([2, 2], [0.6, 0.8]), ([1, 4], [2.0]), ([1], [2.0, 3.0])],
        ids=["out-of-order", "duplicated", "fewer-values", "more-values"],
    )
    def test_sparse_support_must_strictly_ascend_with_one_value_each(self, indices, values):
        with pytest.raises(MemoryIndexError, match="strictly ascend, one value each"):
            EmbeddingVector.sparse(8, indices, values)


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
        assert idx.dim == 0
        assert search_top_k(idx, "anything", 3) == []

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
        ok = make_record("ok", EgoState.CHILD)
        wide = make_record("wide", EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match="'wide' embedded to dim 3, index dim is 2"):
            MemoryIndex(
                agent="X",
                ego_state=EgoState.CHILD,
                entries=((ok, vec(0, 1)), (wide, vec(1, 0, 0))),
                embedder=FixedEmbedder({}, dim=2),
            )

    def test_an_entry_with_both_faults_reports_its_dimension(self):
        ok = make_record("ok", EgoState.CHILD)
        bad = make_record("bad", EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match="'bad' embedded to dim 3, index dim is 2"):
            MemoryIndex(
                agent="X",
                ego_state=EgoState.CHILD,
                entries=((ok, vec(0, 1)), (bad, vec(0, 0, 0))),
                embedder=FixedEmbedder({}, dim=2),
            )

    def test_index_rejects_a_zero_norm_entry(self):
        ok = make_record("ok", EgoState.CHILD)
        zero = make_record("zero", EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match="'zero' embedded to a zero-norm vector"):
            MemoryIndex(
                agent="X",
                ego_state=EgoState.CHILD,
                entries=((ok, vec(0, 1)), (zero, vec(0, -0.0))),
                embedder=FixedEmbedder({}, dim=2),
            )

    def test_index_rejects_an_entry_whose_norm_overflows(self):
        ok = make_record("ok", EgoState.CHILD, context="ok")
        huge = make_record("huge", EgoState.CHILD, context="huge")
        embedder = FixedEmbedder({"ok": (0.0, 1.0), "huge": (1e200, 1e200)}, dim=2)
        match = "'huge' embedded to a vector whose norm is not finite"
        with pytest.raises(MemoryIndexError, match=match):
            build_index([ok, huge], embedder, agent="X", ego_state=EgoState.CHILD)
        with pytest.raises(MemoryIndexError, match=match):
            MemoryIndex(
                agent="X",
                ego_state=EgoState.CHILD,
                entries=((ok, vec(0, 1)), (huge, vec(1e200, 1e200))),
                embedder=embedder,
            )

    def test_index_rejects_an_entry_whose_norm_lies_outside_the_domain(self):
        ok = make_record("ok", EgoState.CHILD, context="ok")
        huge = make_record("huge", EgoState.CHILD, context="huge")
        embedder = FixedEmbedder({"ok": (0.0, 1.0), "huge": (2.0**450, 2.0**450)}, dim=2)
        with pytest.raises(MemoryIndexError, match="'huge' embedded to " + OUTSIDE):
            build_index([ok, huge], embedder, agent="X", ego_state=EgoState.CHILD)

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
    got = search_top_k(idx, query, k)
    want = search_oracle(idx, query, k, embedder)
    assert [rec.id for rec, _ in got] == [rid for rid, _ in want]
    assert [s.hex() for _, s in got] == [s.hex() for _, s in want]


def search_each_path(idx: MemoryIndex, query: str, k: int) -> dict[str, list]:
    """The hits of a sparse search through the postings filter and of one that
    scores every entry exactly, each on a new index over ``idx``'s entries."""
    hits = {}
    for path, scan_max in (("filter", 0), ("scan", len(idx))):
        fresh = MemoryIndex(idx.agent, idx.ego_state, idx.entries, idx.embedder)
        with mock.patch.object(memory, "_SCAN_MAX", scan_max):
            hits[path] = search_top_k(fresh, query, k)
    return hits


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
        hits = search_top_k(idx, "mistake in the financial report", 5)
        assert all(rec.id.startswith("p") for rec, _ in hits)

    def test_verbatim_context_scores_one(self):
        embedder = HashEmbedder()
        rec = make_record("hit", EgoState.ADULT, context="an exact verbatim context line")
        idx = build_index([rec], embedder, agent="X", ego_state=EgoState.ADULT)
        [(top, score)] = search_top_k(idx, "an exact verbatim context line", 1)
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
        assert len(search_top_k(idx, "report", 50)) == 4
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
            smaller = search_top_k(idx, query, k)
            larger = search_top_k(idx, query, k + 1)
            assert larger[: len(smaller)] == smaller

    def test_scores_descend_and_stay_in_range(self):
        rng = random.Random(6)
        embedder = HashEmbedder(32)
        records = [
            make_record(f"r{i}", EgoState.CHILD, context=" ".join(rng.sample(WORDS, 3)))
            for i in range(15)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.CHILD)
        hits = search_top_k(idx, "ledger risk audit", 15)
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
        hits = search_top_k(idx, "q", 3)
        assert [rec.id for rec, _ in hits] == ["mm", "aa", "zz"]

    def test_query_whose_norm_overflows_rejected(self):
        embedder = FixedEmbedder({"huge": (1e200, 0.0, 1e200)})
        idx = build_index(
            [make_record("r", EgoState.ADULT, context="r")], embedder, agent="X",
            ego_state=EgoState.ADULT,
        )
        with pytest.raises(MemoryIndexError, match="query embedded to a vector whose norm is not finite"):
            search_top_k(idx, "huge", 1)

    def test_self_cosine_rounding_above_one_is_clamped(self):
        # Raw, (1, 1, 1) against itself is 1.0000000000000002; clamped, it ties
        # with (0, 0, 1), whose raw cosine with itself is exactly 1.0.
        embedder = FixedEmbedder({"ones": (1.0, 1.0, 1.0), "unit": (0.0, 0.0, 1.0)})
        records = [
            make_record("b-ones", EgoState.ADULT, context="ones"),
            make_record("a-ones", EgoState.ADULT, context="ones"),
            make_record("unit", EgoState.ADULT, context="unit"),
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        hits = search_top_k(idx, "ones", 3)
        assert [(rec.id, s.hex()) for rec, s in hits[:2]] == [
            ("a-ones", (1.0).hex()), ("b-ones", (1.0).hex())
        ]
        assert_bit_identical_to_oracle(idx, "ones", 3, embedder)

    def test_entries_sharing_no_dimension_fill_the_tail_in_id_order(self):
        # Two of six entries share a dimension with the query, so k = 5 takes
        # three of the four others, each scoring +0.0, in ascending id order
        # whatever their position.
        table = {
            "q": (0.0, 2.0, 0.0, 0.0, 1.0, 0.0),
            "hit-a": (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            "hit-b": (3.0, 0.0, 0.0, 0.0, 1.0, 0.0),
            "miss-1": (1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            "miss-2": (0.0, 0.0, -4.0, 0.0, 0.0, 0.0),
            "miss-3": (0.0, 0.0, 0.0, 1.0, 0.0, 2.0),
            "miss-4": (1.0, 0.0, 1.0, 1.0, 0.0, 1.0),
        }
        embedder = FixedEmbedder(table, dim=6)
        ids = ["m4", "h-b", "m2", "m9", "h-a", "m1"]
        contexts = ["miss-4", "hit-b", "miss-2", "miss-3", "hit-a", "miss-1"]
        records = [make_record(i, EgoState.ADULT, context=c) for i, c in zip(ids, contexts)]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        hits = search_top_k(idx, "q", 5)
        assert [rec.id for rec, _ in hits] == ["h-a", "h-b", "m1", "m2", "m4"]
        assert all(s > 0.0 for _, s in hits[:2])
        assert all(s == 0.0 and math.copysign(1.0, s) == 1.0 for _, s in hits[2:])
        assert_bit_identical_to_oracle(idx, "q", 5, embedder)

    def test_query_sharing_no_dimension_with_any_entry_scores_all_positive_zero(self):
        embedder = FixedEmbedder({"q": (0.0, 0.0, 1.0, 0.0), "e": (1.0, 0.0, 0.0, 0.0)}, dim=4)
        records = [make_record(f"r{i}", EgoState.ADULT, context="e") for i in (3, 1, 2)]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        hits = search_top_k(idx, "q", 2)
        assert [rec.id for rec, _ in hits] == ["r1", "r2"]
        assert [s.hex() for _, s in hits] == [(0.0).hex()] * 2

    def test_k_must_be_positive(self):
        idx = build_index([], HashEmbedder(), agent="X", ego_state=EgoState.ADULT)
        with pytest.raises(ValueError):
            search_top_k(idx, "q", 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_equals_oracle_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 25))
    k = data.draw(st.integers(1, 30))
    table: dict[str, tuple[float, ...]] = {}
    if data.draw(st.booleans()):
        embedder = HashEmbedder(16)
        contexts = [" ".join(rng.sample(WORDS, rng.randint(1, 4))) for _ in range(n)]
        query = " ".join(rng.sample(WORDS, rng.randint(1, 3)))
    else:
        # Fixed vectors, sparse or dense, so a query of either kind scores both
        # kinds; few distinct entry values, so equal scores are common, and of
        # wide magnitude, so they cancel and naive sums differ from fsum.
        dim = data.draw(st.integers(1, 12))
        pool = (-2.0, -0.5, 0.5, 1.0, 3.0, 1e16, -1e16, 2**-53, 1e-160)

        def draw() -> tuple[float, ...]:
            density = rng.choice((0.1, 0.3, 0.6, 1.0))
            while True:
                v = tuple(
                    rng.choice(pool + (rng.gauss(0.0, 1.0),))
                    if rng.random() < density
                    else 0.0
                    for _ in range(dim)
                )
                if any(v):
                    return v

        table = {f"t{i}": draw() for i in range(rng.randint(1, n) + 1)}
        embedder = FixedEmbedder(table, dim=dim)
        contexts = [rng.choice(list(table)) for _ in range(n)]
        query = rng.choice(list(table))
    # Ids out of position order, so ties are broken by id, not by position.
    ids = [f"r{i:02d}" for i in rng.sample(range(100), n)]
    records = [make_record(i, EgoState.ADULT, context=c) for i, c in zip(ids, contexts)]
    # A vector made only of 1e-160 entries has a norm outside the domain.
    outside = {t for t, v in table.items() if not in_domain(v)}
    if outside & set(contexts):
        with pytest.raises(MemoryIndexError, match=OUTSIDE):
            build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        return
    idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
    if query in outside:
        with pytest.raises(MemoryIndexError, match="query embedded to " + OUTSIDE):
            search_top_k(idx, query, k)
        return
    assert_bit_identical_to_oracle(idx, query, k, embedder)
    assert len(search_top_k(idx, query, k)) == min(k, n)
    hits = search_each_path(idx, query, k)
    assert hits_hex(hits["filter"]) == hits_hex(hits["scan"])
    assert hits_hex(hits["scan"]) == hits_hex(search_top_k(idx, query, k))


class TestBatchScorer:
    """Each shape of query support, scored as the dense oracle does. The mixed
    dense and sparse partition is in ``TestSearchTopK``."""

    def search_case(self, query, vectors, k=3):
        table = {"q": query, **{f"e{i:02d}": v for i, v in enumerate(vectors)}}
        embedder = FixedEmbedder(table, dim=len(query))
        records = [make_record(t, EgoState.ADULT, context=t) for t in table if t != "q"]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        self.assert_each_path_equals_oracle(idx, k, embedder)
        return idx, embedder

    def assert_each_path_equals_oracle(self, idx, k, embedder):
        # Most cases have 16 entries or fewer, so by default they are scanned;
        # each is also filtered through postings, and each larger one scanned.
        want = [(rid, s.hex()) for rid, s in search_oracle(idx, "q", k, embedder)]
        hits = {"default": search_top_k(idx, "q", k), **search_each_path(idx, "q", k)}
        for path, got in hits.items():
            assert hits_hex(got) == want, path

    def test_query_with_one_non_zero_entry(self):
        query = (0.0, 0.0, -0.3, 0.0, 0.0)
        assert len(vec(*query).support[0]) == 1
        vectors = [(1, 0, 2, 0, 0), (0, 1, 0, 0, 0), (0, 0, -5, 0, 1), (3, 1, 1, 1, 1)]
        self.search_case(query, vectors + [(0, 0, 0.1, 0, 0)])

    def test_query_whose_support_covers_every_index(self):
        query = (0.5, -1.0, 2.0, 0.25)
        assert vec(*query).support[0] == range(4)
        self.search_case(query, [(1, 0, 0, 0), (0, 0, 3, 0), (1, 2, 3, 4), (-1, -1, 0, 1)], k=4)

    def test_dense_query_ranks_entries_tied_past_k_by_ascending_id(self):
        # k + 2 equal entries tie at the k-th score, so the dense row walk's one
        # sort must order them by id, which is not their position order.
        k = 3
        table = {
            "q": (1.0, 2.0, 3.0, 4.0),
            "better": (1.0, 2.0, 3.0, 4.5),
            "tied": (4.0, 3.0, 2.0, 1.0),
            "worse": (4.0, -3.0, 2.0, -1.0),
        }
        assert vec(*table["q"]).support[0] == range(4)
        embedder = FixedEmbedder(table, dim=4)
        ids = ["worse", "t4", "t0", "t3", "better", "t1", "t2"]
        records = [
            make_record(rid, EgoState.ADULT, context=rid if rid in table else "tied")
            for rid in ids
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        for n in (k, len(idx)):
            self.assert_each_path_equals_oracle(idx, n, embedder)
        hits = search_top_k(idx, "q", len(idx))
        assert [rec.id for rec, _ in hits] == ["better", "t0", "t1", "t2", "t3", "t4", "worse"]
        assert len({s for _, s in hits[1:6]}) == 1

    def test_negative_entries(self):
        rng = random.Random(3)
        vectors = [
            tuple(rng.choice((0.0, rng.uniform(-4, 0))) for _ in range(8)) for _ in range(30)
        ]
        vectors = [v for v in vectors if any(v)]
        query = (-1.0, 0.0, -2.5, 0.0, 0.0, -0.5, 0.0, 0.0)
        idx, _ = self.search_case(query, vectors, k=5)
        assert all(s >= 0.0 for _, s in search_top_k(idx, "q", len(idx)))
        self.search_case(tuple(-x for x in query), vectors, k=5)

    def test_dense_1536_dimension_vectors(self):
        rng = random.Random(1536)

        def draw() -> tuple[float, ...]:
            return tuple(rng.choice((-1, 1)) * rng.uniform(0.001, 1.0) for _ in range(1536))

        vectors = [draw() for _ in range(50)]
        assert all(all(v) for v in vectors)
        for _ in range(3):
            self.search_case(draw(), vectors, k=7)

    def test_exact_order_decides_where_naive_sums_swap_two_entries(self):
        # Summed in dimension order, 1e16 + 3.0 and 1e16 + 4.9 both round to
        # 1e16 + 4.0, so the naive cosines rank e00 above e01 and the exact ones
        # rank it below; k = 1 falls between them.
        query = (1e16, 1.0, -1e16, 0.0, 0.0, 0.0, 0.0, 0.0)
        vectors = [
            (1.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 4.9, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
        ]

        def naive_cosine(a, b):
            dot = 0.0
            for x, y in zip(a, b):
                dot += x * y
            return dot / (vec(*a).norm * vec(*b).norm)

        assert naive_cosine(query, vectors[0]) > naive_cosine(query, vectors[1])
        assert cosine_oracle(query, vectors[0]) < cosine_oracle(query, vectors[1])
        idx, _ = self.search_case(query, vectors, k=1)
        assert [rec.id for rec, _ in search_top_k(idx, "q", 1)] == ["e01"]

    def test_near_ties_of_scaled_copies_across_the_norm_domain(self):
        # Copies of two vectors, each scaled by a random factor that puts its
        # norm anywhere in [2**-400, 2**400]. Rounding spreads their exact
        # cosines over adjacent floats, so nearly every k-th score has entries
        # one ulp above and one ulp below it, and the norm-scaled postings
        # must keep them all for the exact step.
        rng = random.Random(400)
        bases = [(0.3, -1.2, 0, 0.7, 0, 0, 2.5, 0), (0, -1.1, 0, 0.8, 0, 0.4, 2.4, 0)]

        def scaled(v, exponent: int) -> tuple[float, ...]:
            s = rng.uniform(1.0, 2.0) * 2.0**exponent
            return tuple(x * s for x in v)

        vectors = [scaled(bases[i % 2], rng.randint(-398, 396)) for i in range(120)]
        norms = [vec(*v).norm for v in vectors]
        assert min(norms) < 2.0**-390 and max(norms) > 2.0**390
        for exponent in (-399, 0, 398):
            query = scaled((0, -0.9, 0, 0.4, 0, 0, 1.7, 0), exponent)
            exact = sorted((cosine_oracle(query, v) for v in vectors), reverse=True)
            ks = [
                k
                for k, kth in enumerate(exact, 1)
                if {math.nextafter(kth, 2.0), math.nextafter(kth, -2.0)} <= set(exact)
            ]
            assert len(ks) > len(vectors) // 2
            idx, embedder = self.search_case(query, vectors, k=ks[0])
            for k in ks[1:]:
                self.assert_each_path_equals_oracle(idx, k, embedder)

    def test_subnormal_range_norms_are_rejected(self):
        # Squares of entries near 1e-160 underflow, so such norms lose precision;
        # they lie outside the domain, whether an entry's norm or the query's.
        small = [
            (3e-162, 3e-162, 0, 0), (1e-160, 0, 1e-160, 0), (3e-162, 0, 0, 0), (0, 1e-160, 0, 0)
        ]
        normal = [(1.0, 2.0, 0, 0), (0.5, 0, 1.0, 0), (1.0, 0, 0, 0), (0, 3.0, 0, 0)]
        for v in small:
            embedder = FixedEmbedder({"e": v}, dim=4)
            record = make_record("e", EgoState.ADULT, context="e")
            with pytest.raises(MemoryIndexError, match="'e' embedded to " + OUTSIDE):
                build_index([record], embedder, agent="X", ego_state=EgoState.ADULT)
        for q in [(1e-160, 0.0, 0.0, 1e-160), (3e-162, 0.0, 0.0, 0.0)]:
            with pytest.raises(MemoryIndexError, match="query embedded to " + OUTSIDE):
                self.search_case(q, normal, k=2)


class TestLazyForms:
    """A partition builds only the form of its entries its queries read."""

    def test_sparse_queries_never_build_full_values(self):
        seen: list[EmbeddingVector] = []

        class Recording(HashEmbedder):
            def embed(self, text: str) -> EmbeddingVector:
                seen.append(super().embed(text))
                return seen[-1]

        embedder = Recording()
        records = [
            make_record(f"r{i:02d}", EgoState.ADULT, context=" ".join(WORDS[i : i + 3]))
            for i in range(25)
        ]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        for k in (1, 3, 25):
            search_top_k(idx, "budget report error", k)
        assert "_postings" in vars(idx)
        assert len(seen) == 28
        assert all(v._values is None for v in seen)

    def partition(self, n: int) -> MemoryIndex:
        records = [
            make_record(f"r{i:02d}", EgoState.ADULT, context=" ".join(WORDS[i : i + 3]))
            for i in range(n)
        ]
        return build_index(records, HashEmbedder(), agent="X", ego_state=EgoState.ADULT)

    def test_a_sparse_search_of_at_most_scan_max_entries_builds_no_postings(self):
        idx = self.partition(memory._SCAN_MAX)
        assert_bit_identical_to_oracle(idx, "budget report error", 3, idx.embedder)
        assert "_postings" not in vars(idx)

    def test_a_sparse_search_of_one_entry_more_builds_postings(self):
        idx = self.partition(memory._SCAN_MAX + 1)
        assert_bit_identical_to_oracle(idx, "budget report error", 3, idx.embedder)
        assert "_postings" in vars(idx)

    def test_the_bundled_run_builds_no_postings(self, stupid_scenario, stupid_fixtures):
        built: list[dict] = []
        original = orchestrator.build_indices

        def build_indices(*args):
            built.append(original(*args))
            return built[-1]

        with mock.patch.object(orchestrator, "build_indices", build_indices):
            transcript = orchestrator.run_simulation(
                stupid_scenario, ScriptedProvider(stupid_fixtures), HashEmbedder()
            )
        assert transcript_hash(transcript) == GOLDEN_RUN_SHA256
        (indices,) = built
        assert len(indices) == 6
        assert all(len(idx) <= memory._SCAN_MAX for idx in indices.values())
        assert not any("_postings" in vars(idx) for idx in indices.values())
        assert all(idx._memo for idx in indices.values())

    def test_dense_queries_never_build_postings(self):
        rng = random.Random(11)
        table = {f"t{i}": tuple(rng.uniform(0.1, 1.0) for _ in range(16)) for i in range(30)}
        embedder = FixedEmbedder(table, dim=16)
        records = [make_record(t, EgoState.ADULT, context=t) for t in table]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        for query in list(table)[:3]:
            assert_bit_identical_to_oracle(idx, query, 3, embedder)
        assert "_postings" not in vars(idx)

    def test_mostly_zero_values_keep_only_their_support(self):
        values = (0.0, 0.5, 0.0, 0.0, -2.0, 0.0, 0.0, 0.0)
        vec = EmbeddingVector(values)
        assert vec._values is None
        assert vec.support == ([1, 4], array("d", [0.5, -2.0]))
        assert vec.norm == EmbeddingVector.sparse(8, [1, 4], [0.5, -2.0]).norm
        assert vec._values is None
        assert vec == EmbeddingVector.sparse(8, [1, 4], [0.5, -2.0])
        assert vec.values == values

    def test_denser_values_are_their_own_support(self):
        values = (0.0, 0.5, 1.0, 0.25, -2.0)
        vec = EmbeddingVector(values)
        assert vec._values is values
        assert vec.support == (range(5), values)
        assert vec.support[1] is values
        assert vec == EmbeddingVector.sparse(5, [1, 2, 3, 4], [0.5, 1.0, 0.25, -2.0])


class CountingEmbedder(HashEmbedder):
    """A hash embedder that counts the texts it embeds."""

    def __init__(self, dim: int = 256) -> None:
        super().__init__(dim)
        self.calls: list[str] = []

    def embed(self, text: str) -> EmbeddingVector:
        self.calls.append(text)
        return super().embed(text)


def hits_hex(hits) -> list[tuple[str, str]]:
    return [(rec.id, s.hex()) for rec, s in hits]


class TestSearchMemo:
    """A repeated search is answered from the index's memo: the same hits, with
    the same score bits, and no second embed."""

    def index(self, embedder, n: int = 20) -> MemoryIndex:
        records = [
            make_record(f"r{i:02d}", EgoState.ADULT, context=" ".join(WORDS[i : i + 3]))
            for i in range(n)
        ]
        return build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)

    def test_a_repeated_search_embeds_its_query_once(self):
        embedder = CountingEmbedder()
        idx = self.index(embedder)
        embedder.calls.clear()
        first = search_top_k(idx, "budget report error", 3)
        again = [search_top_k(idx, "budget report error", 3) for _ in range(4)]
        assert embedder.calls == ["budget report error"]
        assert all(hits_hex(hits) == hits_hex(first) for hits in again)
        assert all(a is b for hits in again for (a, _), (b, _) in zip(hits, first))

    def test_each_call_returns_its_own_list(self):
        embedder = HashEmbedder()
        idx = self.index(embedder)
        first = search_top_k(idx, "budget report error", 3)
        want = hits_hex(first)
        first.clear()
        second = search_top_k(idx, "budget report error", 3)
        assert second is not first
        assert hits_hex(second) == want
        second.reverse()
        second.append(second[0])
        assert hits_hex(search_top_k(idx, "budget report error", 3)) == want

    def test_a_failed_embed_is_not_remembered(self):
        class FailsOnce(HashEmbedder):
            failed = False

            def embed(self, text: str) -> EmbeddingVector:
                if text == "q budget" and not self.failed:
                    self.failed = True
                    raise ConnectionError("upstream went away")
                return super().embed(text)

        embedder = FailsOnce()
        idx = self.index(embedder)
        with pytest.raises(ConnectionError):
            search_top_k(idx, "q budget", 3)
        want = [(rid, s.hex()) for rid, s in search_oracle(idx, "q budget", 3, HashEmbedder())]
        assert len(want) == 3
        for _ in range(2):
            assert hits_hex(search_top_k(idx, "q budget", 3)) == want

    def test_a_rejected_query_is_not_remembered(self):
        # The embedder gives the query a zero vector, then one of the wrong
        # dimension, then a good one: each rejection raises, and only the good
        # vector's answer is kept.
        class Drifting(FixedEmbedder):
            queries = iter([(0.0, 0.0, 0.0), (1.0, 0.0), (0.0, 1.0, 0.0)])

            def embed(self, text: str) -> EmbeddingVector:
                if text == "q":
                    return EmbeddingVector(next(self.queries))
                return super().embed(text)

        embedder = Drifting({"a": (1.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0)})
        records = [make_record(t, EgoState.ADULT, context=t) for t in ("a", "b")]
        idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
        with pytest.raises(MemoryIndexError, match="query embedded to a zero-norm vector"):
            search_top_k(idx, "q", 1)
        with pytest.raises(MemoryIndexError, match="query embedded to dim 2, index dim is 3"):
            search_top_k(idx, "q", 1)
        for _ in range(2):
            assert [rec.id for rec, _ in search_top_k(idx, "q", 1)] == ["b"]

    def test_another_k_is_another_search(self):
        embedder = CountingEmbedder()
        idx = self.index(embedder)
        embedder.calls.clear()
        for k in (1, 3, 20, 3, 1):
            assert_bit_identical_to_oracle(idx, "budget report error", k, embedder)
        # The oracle embeds on each of its 5 calls; the search, once per distinct k.
        assert len(embedder.calls) == 5 + 3

    def test_each_index_keeps_its_own_memo(self):
        embedder = CountingEmbedder()
        first, second = self.index(embedder, n=20), self.index(embedder, n=5)
        embedder.calls.clear()
        assert len(search_top_k(first, "budget report error", 10)) == 10
        assert len(search_top_k(second, "budget report error", 10)) == 5
        assert len(embedder.calls) == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_stream_of_repeated_queries_equals_the_oracle_property(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 30))
    embedder = CountingEmbedder(data.draw(st.sampled_from([8, 32, 256])))
    records = [
        make_record(f"r{i:02d}", EgoState.CHILD, context=" ".join(rng.sample(WORDS, 3)))
        for i in rng.sample(range(100), n)
    ]
    idx = build_index(records, embedder, agent="X", ego_state=EgoState.CHILD)
    pool = [" ".join(rng.sample(WORDS, rng.randint(1, 3))) for _ in range(4)]
    stream = data.draw(
        st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1, 3, 40])), max_size=25)
    )
    embedder.calls.clear()
    for query, k in stream:
        got = search_top_k(idx, query, k)
        want = search_oracle(idx, query, k, HashEmbedder(embedder.dim))
        assert hits_hex(got) == [(rid, s.hex()) for rid, s in want]
    assert len(embedder.calls) == len(set(stream))
