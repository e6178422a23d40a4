"""The seeded generators: determinism, validity, and exact agreement with
what the program does on the generated inputs.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, hashembed
from transact.analysis import build_report, detect_game_loops, ego_sequence
from transact.core import (
    fingerprint_scenario,
    parse_scenario,
    parse_transcript,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from transact.memory import EmbeddingVector, cosine_similarity
from transact.orchestrator import run_simulation
from transact.provider import HashEmbedder, ScriptedProvider, load_fixtures


@pytest.fixture(scope="module")
def large():
    return gen.large_memory(7)


@pytest.fixture(scope="module")
def corpus():
    return gen.audit_corpus(7)


def test_same_seed_gives_identical_bytes(large, corpus):
    assert gen.large_memory(7) == large
    assert gen.audit_corpus(7) == corpus
    assert gen.large_memory(8).scenario != large.scenario
    assert gen.audit_corpus(8).transcripts != corpus.transcripts


def test_large_scenario_is_valid_and_canonical(large):
    cfg = parse_scenario(large.scenario)
    assert validate_scenario(cfg) == []
    assert serialize_scenario(cfg) == large.scenario
    sizes = sorted(len(p.memories) for a in cfg.agents for p in a.personas)
    assert sizes == sorted(n for n, _ in gen.LARGE_PARTITIONS.values())
    for agent in cfg.agents:
        for persona in agent.personas:
            for rec in persona.memories:
                assert 5 <= len(rec.context.split()) <= 20


def test_large_fixtures_script_the_run_exactly(large, tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(large.fixtures, encoding="utf-8")
    cfg = parse_scenario(large.scenario)
    provider = ScriptedProvider(load_fixtures(path))
    transcript = run_simulation(cfg, provider, HashEmbedder())
    assert provider.remaining() == 0
    assert serialize_transcript(transcript) == large.expected_transcript
    assert transcript_hash(transcript) == gen.sha256(large.expected_transcript)
    assert transcript.scenario_fingerprint == fingerprint_scenario(cfg)
    assert detect_game_loops(ego_sequence(transcript))


def test_corpus_round_trips_and_has_loops(corpus):
    cfg = parse_scenario(corpus.scenario)
    assert validate_scenario(cfg) == []
    assert sorted(len(json.loads(t)["utterances"]) for t in corpus.transcripts) == list(
        gen.AUDIT_LENGTHS
    )
    for text in corpus.transcripts:
        transcript = parse_transcript(text)
        assert serialize_transcript(transcript) == text
        report = build_report(transcript, budget=cfg.tool_budget)
        assert report["game_loops"]
        assert report["budget_audit"]["violations"] == []


def test_command_writes_inputs_and_expected_hashes(large, corpus, tmp_path):
    root = Path(__file__).resolve().parents[2]
    for name in ("large_memory", "audit_corpus"):
        subprocess.run([sys.executable, "-m", "perfbench.gen", name, "7", str(tmp_path / name)],
                       cwd=root, check=True, timeout=120)
    lm = tmp_path / "large_memory"
    assert (lm / "scenario.json").read_text(encoding="utf-8") == large.scenario
    assert (lm / "fixtures.json").read_text(encoding="utf-8") == large.fixtures
    expected = json.loads((lm / "expected.json").read_text(encoding="utf-8"))
    assert expected == {"transcript": gen.sha256(large.expected_transcript)}
    ac = tmp_path / "audit_corpus"
    assert (ac / "scenario.json").read_text(encoding="utf-8") == corpus.scenario
    expected = json.loads((ac / "expected.json").read_text(encoding="utf-8"))
    texts = [(ac / "corpus" / name).read_text(encoding="utf-8") for name in sorted(expected)]
    assert texts == list(corpus.transcripts)
    assert [expected[name] for name in sorted(expected)] == [gen.sha256(t) for t in texts]


@pytest.mark.parametrize(
    "text, other",
    [
        ("a report full of careless errors", "careless errors in the report"),
        ("Zürich café, naïve façade", "cafe facade"),
        ("one", "one one one two"),
    ],
)
def test_hashembed_matches_the_program_bit_for_bit(text, other):
    embedder = HashEmbedder()
    a, b = embedder.embed(text), embedder.embed(other)
    assert hashembed.dense(text) == list(a.values)
    ours = hashembed.cosine(hashembed.embed(text), hashembed.embed(other))
    assert ours.hex() == cosine_similarity(a, b).hex()
    assert hashembed.embed(text).norm == EmbeddingVector(a.values).norm
