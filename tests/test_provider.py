"""Scripted backend, hash embedder, and caller-keyed fixture queues."""

from __future__ import annotations

import math
import random
import threading
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WORDS, hash_embed_oracle
from transact.memory import EmbeddingVector, cosine_similarity
from transact.provider import (
    _BUCKET_MEMO_SIZE,
    CallerInfo,
    ChatMessage,
    HashEmbedder,
    ProviderError,
    Role,
    ScriptedProvider,
    ScriptedQueueUnderrun,
    complete_logged,
    load_fixtures,
)
from transact.runlog import RunLog

SYSTEM = ChatMessage(Role.SYSTEM, "system prompt")
USER = ChatMessage(Role.USER, "go")
CALLER = CallerInfo(agent="Jordan", role="Child", turn=0)


class TestScriptedProvider:
    def test_replays_fixture_verbatim(self):
        provider = ScriptedProvider([("Jordan/Child", "Final Answer:\nText: hello")])
        out = provider.complete([SYSTEM, USER], caller=CALLER)
        assert out == "Final Answer:\nText: hello"

    def test_underrun_names_the_caller(self):
        provider = ScriptedProvider([])
        with pytest.raises(ScriptedQueueUnderrun, match="Jordan/Child at turn 0"):
            provider.complete([SYSTEM, USER], caller=CALLER)

    def test_queues_are_keyed_independently(self):
        provider = ScriptedProvider(
            [
                ("Jordan/Child", "child-1"),
                ("Jordan/Adult", "adult-1"),
                ("Jordan/Child", "child-2"),
            ]
        )
        adult = CallerInfo("Jordan", "Adult", 0)
        assert provider.complete([SYSTEM, USER], caller=adult) == "adult-1"
        assert provider.complete([SYSTEM, USER], caller=CALLER) == "child-1"
        assert provider.complete([SYSTEM, USER], caller=CALLER) == "child-2"

    def test_stop_marker_truncates(self):
        provider = ScriptedProvider([("Jordan/Child", "before\nObservation: fabricated")])
        out = provider.complete([SYSTEM, USER], stop_markers=("Observation:",), caller=CALLER)
        assert out == "before\n"

    def test_first_message_must_be_system(self):
        provider = ScriptedProvider([("Jordan/Child", "x")])
        with pytest.raises(ProviderError, match="System"):
            provider.complete([USER], caller=CALLER)
        with pytest.raises(ProviderError, match="at least one"):
            provider.complete([], caller=CALLER)

    def test_a_message_must_have_content(self):
        with pytest.raises(ValueError, match="user message content must be non-empty"):
            ChatMessage(Role.USER, "")

    def test_caller_required(self):
        provider = ScriptedProvider([("Jordan/Child", "x")])
        with pytest.raises(ProviderError, match="caller"):
            provider.complete([SYSTEM, USER])

    def test_byte_cap_enforced(self, provider_limits):
        provider_limits(RESPONSE_BYTE_CAP=10)
        provider = ScriptedProvider([("Jordan/Child", "x" * 100)])
        with pytest.raises(ProviderError, match="byte cap"):
            provider.complete([SYSTEM, USER], caller=CALLER)

    def test_call_log_records_caller_and_sizes(self):
        provider = ScriptedProvider([("Jordan/Child", "héllo")])
        log = RunLog()
        complete_logged(provider, [SYSTEM, USER], CALLER, log)
        [call] = provider.call_log
        assert call.caller == CALLER
        assert call.messages == (SYSTEM, USER)
        assert call.response == "héllo"
        [event] = log.events
        assert event == {
            "kind": "provider_call", "backend": "scripted",
            "agent": "Jordan", "role": "Child", "turn": 0,
            "request_bytes": len(b"system prompt") + len(b"go"),
            "response_bytes": len("héllo".encode("utf-8")),
        }

    def test_concurrent_pops_are_safe(self):
        n = 200
        provider = ScriptedProvider([("A/Adult", f"r{i}") for i in range(n)])
        results: list[str] = []
        lock = threading.Lock()

        def worker():
            for _ in range(n // 4):
                out = provider.complete([SYSTEM, USER], caller=CallerInfo("A", "Adult", 0))
                with lock:
                    results.append(out)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == sorted(f"r{i}" for i in range(n))
        assert provider.remaining() == 0


class TestFixtureFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('[{"key": "A/Adult", "response": "hi"}]', encoding="utf-8")
        assert load_fixtures(path) == [("A/Adult", "hi")]

    def test_rejects_bad_shapes(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"key": "x"}', encoding="utf-8")
        with pytest.raises(ProviderError, match="array"):
            load_fixtures(path)
        # Each shape fault is located in the file, as a scenario's is.
        for text, located in [
            ('[{"key": 1, "response": "hi"}]', r"\[0\]\.key: expected a string"),
            ('[{"key": "A/Adult", "response": "hi"}, "hi"]', r"\[1\]: expected an object"),
            ('[{"response": "hi"}]', r"\[0\]: missing keys \['key'\]"),
            (
                '[{"key": "A/Adult", "response": "hi", "extra": 1}]',
                r"\[0\]: unknown keys \['extra'\]",
            ),
            ('[{"key": "A/Adult", "response": null}]', r"\[0\]\.response: expected a string"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ProviderError, match=rf"^fixture file does not parse: {located}$"):
                load_fixtures(path)
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ProviderError, match="JSON"):
            load_fixtures(path)
        path.write_bytes('[{"key": "A/Adult", "response": "caf\xe9"}]'.encode("latin-1"))
        with pytest.raises(ProviderError, match="cannot read fixture file"):
            load_fixtures(path)
        with pytest.raises(ProviderError, match="cannot read fixture file"):
            load_fixtures(tmp_path)  # a directory
        with pytest.raises(ProviderError, match="fixture file not found"):
            load_fixtures(tmp_path / "absent.json")


class TestHashEmbedder:
    def test_deterministic_across_instances(self):
        texts = ["Mistake in the financial report!", "weekend BARBECUE plans", "a b c 9"]
        for text in texts:
            assert HashEmbedder().embed(text) == HashEmbedder().embed(text)

    def test_a_dimension_below_one_is_rejected(self):
        for dim in (0, -1):
            with pytest.raises(ValueError, match="dim must be >= 1"):
                HashEmbedder(dim)

    def test_default_dim_and_unit_norm(self):
        v = HashEmbedder().embed("three short tokens")
        assert v.dim == 256
        assert sum(x * x for x in v.values) == pytest.approx(1.0, abs=1e-12)

    def test_shared_token_multiset_similarity_matches_pipeline_oracle(self):
        # Oracle: tokens {financial, report, mistake} vs the same plus
        # {in, the}; all five hash to distinct buckets (checked below), so
        # cosine is 3 / sqrt(3 * 5).
        embedder = HashEmbedder()
        tokens = ["financial", "report", "mistake", "in", "the"]
        assert len({embedder.bucket(t) for t in tokens}) == len(tokens)
        got = cosine_similarity(
            embedder.embed("financial report mistake"),
            embedder.embed("mistake in the financial report"),
        )
        assert got == pytest.approx(3 / math.sqrt(15), abs=1e-9)
        assert got > 0.77

    def test_disjoint_tokens_score_exactly_zero(self):
        embedder = HashEmbedder()
        tokens = ["financial", "report", "mistake", "weekend", "barbecue", "plans"]
        assert len({embedder.bucket(t) for t in tokens}) == len(tokens)
        got = cosine_similarity(
            embedder.embed("financial report mistake"),
            embedder.embed("weekend barbecue plans"),
        )
        assert got == 0.0

    def test_case_and_punctuation_are_normalized(self):
        assert HashEmbedder().embed("Financial, REPORT; mistake?") == HashEmbedder().embed("financial report mistake")

    def test_zero_token_text_is_an_error(self):
        for text in ["", "   ", "!!! --- ???", "_"]:
            with pytest.raises(ValueError, match="token"):
                HashEmbedder().embed(text)

    def test_token_counts_matter(self):
        once = HashEmbedder().embed("report")
        twice = HashEmbedder().embed("report report other")
        assert cosine_similarity(once, twice) < 1.0

    def test_random_texts_all_embed_to_unit_vectors(self):
        rng = random.Random(11)
        alphabet = "abcdefghij "
        for _ in range(50):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            if not any(c.isalnum() for c in text):
                continue
            v = HashEmbedder(32).embed(text)
            assert sum(x * x for x in v.values) == pytest.approx(1.0, abs=1e-12)


def hex_values(values) -> list[str]:
    return [v.hex() for v in values]


#: ASCII words, repeats, and letters of other scripts and cases.
TOKENS = st.sampled_from(
    WORDS[:6] + ["café", "Straße", "naïve", "ÅNGSTRÖM", "日本語", "Ωμέγα", "x9", "Report"]
)
TEXTS = st.one_of(
    st.lists(TOKENS, min_size=1, max_size=30).map(" - ".join),
    st.text(min_size=1, max_size=60),
)


class TestHashEmbedderMatchesDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(dim=st.sampled_from([1, 2, 256]), text=TEXTS)
    def test_embed_equals_the_dense_reference_bit_for_bit(self, dim, text):
        want = hash_embed_oracle(text, dim)
        if not any(want):  # the text has no token
            with pytest.raises(ValueError, match="no alphanumeric tokens"):
                HashEmbedder(dim).embed(text)
            return
        got = HashEmbedder(dim).embed(text)
        assert hex_values(got.values) == hex_values(want)
        # The support the embedder hands over is the one a scan would find.
        assert got.support == EmbeddingVector(got.values).support

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 2**20), token=st.text(max_size=200))
    def test_bucket_equals_the_keyed_constructor_definition(self, dim, token):
        # Tokens up to 800 UTF-8 bytes span several 128-byte blake2b blocks.
        digest = blake2b(token.encode("utf-8"), digest_size=8, key=b"transact-hash-embed-v1")
        assert HashEmbedder(dim).bucket(token) == int.from_bytes(digest.digest(), "big") % dim

    @pytest.mark.parametrize("dim, text", [(1, "anything at all"), (2, "report mistake report")])
    def test_tiny_dims_give_the_dense_support_form(self, dim, text):
        # Every bucket is filled, so the support is the whole vector.
        v = HashEmbedder(dim).embed(text)
        assert v.values.count(0.0) == 0
        assert v.support == (range(dim), v.values)
        assert hex_values(v.values) == hex_values(hash_embed_oracle(text, dim))

    def test_a_warm_embedder_equals_a_fresh_one(self):
        rng = random.Random(8)
        words = WORDS + ["café", "Straße"]
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 12))) for _ in range(300)]
        for dim in (1, 2, 256):
            warm = HashEmbedder(dim)
            for text in texts:
                warm.embed(text)
            for text in texts:
                got = warm.embed(text).values
                assert hex_values(got) == hex_values(HashEmbedder(dim).embed(text).values)
                assert hex_values(got) == hex_values(hash_embed_oracle(text, dim))

    def test_the_bucket_memo_is_bounded_and_per_embedder(self):
        full = HashEmbedder()
        tokens = [f"t{i}" for i in range(_BUCKET_MEMO_SIZE + 10)]
        for start in range(0, len(tokens), 100):
            text = " ".join(tokens[start : start + 100])
            assert hex_values(full.embed(text).values) == hex_values(hash_embed_oracle(text, 256))
        assert full.bucket.cache_info().currsize == _BUCKET_MEMO_SIZE
        assert HashEmbedder().bucket.cache_info().currsize == 0
