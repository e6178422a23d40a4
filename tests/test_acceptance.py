"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 (live smoke test) only runs when TRANSACT_LIVE=1 and an
API credential are present; it is skipped in normal CI.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

import pytest

from conftest import asset_path
from helpers import (
    WORDS,
    loops_oracle,
    make_agent,
    make_record,
    make_scenario,
    random_scenario,
    random_transcript,
    scores_reply,
    search_oracle,
    search_step,
    select_oracle,
    simple_run_fixtures,
)
from transact.analysis import audit_budgets, detect_game_loops, ego_sequence
from transact.core import (
    CriterionScores,
    DecisionWeights,
    EGO_ORDER,
    EgoScores,
    EgoState,
    MemoryRecord,
    parse_scenario,
    parse_transcript,
    select_ego,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from transact.memory import build_index, search_top_k
from transact.orchestrator import run_simulation
from transact.provider import HashEmbedder, ScriptedProvider, load_fixtures
from transact.runlog import RunLog

# Frozen reference hash of the bundled scenario's scripted run. Identical on
# every run and platform; regenerate deliberately if the bundled assets or
# prompt templates change.
GOLDEN_RUN_SHA256 = "ae9c43e61c77a5028fd13f2e516f92fa03ed4a44b885d7be88217eea2763b144"


def announce(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_retrieval_oracle_equivalence():
    rng = random.Random(20260809)
    embedder = HashEmbedder()
    records = [
        make_record(
            f"r{i:03d}", EgoState.ADULT,
            context=" ".join(rng.sample(WORDS, rng.randint(2, 5))),
        )
        for i in range(100)
    ]
    started = time.perf_counter()
    idx = build_index(records, embedder, agent="X", ego_state=EgoState.ADULT)
    checked = 0
    for _ in range(20):
        query = " ".join(rng.sample(WORDS, rng.randint(1, 4)))
        for k in (1, 3, 10):
            got = search_top_k(idx, query, k, embedder)
            want = search_oracle(idx, query, k, embedder)
            assert [rec.id for rec, _ in got] == [rid for rid, _ in want]
            for (_, gscore), (_, wscore) in zip(got, want):
                assert abs(gscore - wscore) <= 1e-9
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"retrieval check took {elapsed:.3f}s"
    announce(1, f"{checked} searches identical to the naive oracle in {elapsed:.3f}s")


def test_criterion_2_budget_enforcement():
    started = time.perf_counter()
    cfg = make_scenario(max_turns=1, tool_budget=5, first_speaker="Alex")
    fixtures = []
    for ego in EGO_ORDER:
        # An adversary that never stops searching: budget + 1 attempts queued.
        fixtures.extend(
            (f"Alex/{ego.value}", search_step(f"obsessive query {i}")) for i in range(6)
        )
    fixtures.append(("Alex/decision", scores_reply(EgoState.ADULT)))
    provider = ScriptedProvider(fixtures)
    transcript = run_simulation(cfg, provider, HashEmbedder())
    [utterance] = transcript.utterances
    assert all(c.searches_performed == 5 for c in utterance.candidates)
    assert audit_budgets(transcript, 5) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget check took {elapsed:.3f}s"
    announce(2, f"adversarial egos each stopped at exactly 5 searches in {elapsed:.3f}s")


def test_criterion_3_deterministic_replay(stupid_scenario, stupid_fixtures):
    # Shape of the bundled scenario as configured: 2 agents x 3 personas x
    # (5 problem-related + 5 unrelated) memories, budget 5, k 3, max_turns 10.
    assert len(stupid_scenario.agents) == 2
    for agent in stupid_scenario.agents:
        assert len(agent.personas) == 3
        assert all(len(p.memories) == 10 for p in agent.personas)
    assert stupid_scenario.tool_budget == 5
    assert stupid_scenario.k == 3
    assert stupid_scenario.max_turns == 10

    started = time.perf_counter()
    hashes = set()
    for _ in range(3):
        transcript = run_simulation(
            stupid_scenario, ScriptedProvider(stupid_fixtures), HashEmbedder()
        )
        assert len(transcript.utterances) == 10
        hashes.add(transcript_hash(transcript))
    elapsed = time.perf_counter() - started
    assert len(hashes) == 1
    assert hashes == {GOLDEN_RUN_SHA256}, "canonical bytes drifted from the frozen reference"
    assert elapsed < 5.0, f"three replays took {elapsed:.3f}s"
    announce(3, f"three runs, one hash {next(iter(hashes))[:12]}… in {elapsed:.3f}s")


def test_criterion_4_decision_argmax():
    rng = random.Random(4)
    started = time.perf_counter()
    for case in range(1000):
        scores = EgoScores(
            *(CriterionScores(*(rng.randint(0, 10) for _ in range(4))) for _ in EGO_ORDER)
        )
        if case % 5 == 0:  # force tie-break cases regularly
            scores = dataclasses.replace(scores, parent=scores.adult)
        if case % 11 == 0:
            value = CriterionScores(*(rng.randint(0, 10),) * 4)
            scores = EgoScores(value, value, value)
        raw = [rng.random() + 0.01 for _ in range(4)]
        total = sum(raw)
        weights = DecisionWeights(*(w / total for w in raw))
        assert select_ego(scores, weights) is select_oracle(scores, weights)
    equal = EgoScores(*[CriterionScores(6, 6, 6, 6)] * 3)
    for trial in range(50):
        raw = [rng.random() + 0.01 for _ in range(4)]
        total = sum(raw)
        assert select_ego(equal, DecisionWeights(*(w / total for w in raw))) is EgoState.ADULT
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"argmax check took {elapsed:.3f}s"
    announce(4, f"1000 tables + 50 all-equal cases match the enumerator in {elapsed:.3f}s")


def test_criterion_5_game_loop_detection(golden_transcript):
    reports = detect_game_loops(ego_sequence(golden_transcript))
    assert len(reports) == 1, f"expected one minimal-period report, got {reports}"
    [report] = reports
    assert report.period == 2
    assert report.pattern == (("Jordan", EgoState.CHILD), ("Alex", EgoState.PARENT))
    assert report.repetitions >= 4

    rng = random.Random(5)
    speakers = ["Jordan", "Alex"]
    for _ in range(500):
        n = rng.randint(0, 12)
        seq = tuple((speakers[rng.randint(0, 1)], rng.choice(list(EgoState))) for _ in range(n))
        got = [(r.period, tuple(r.pattern), r.repetitions, r.span) for r in detect_game_loops(seq)]
        assert got == loops_oracle(seq), f"oracle disagreement on {seq}"
    announce(5, "golden rescue loop found once; oracle agrees on 500 random sequences")


def _twelve_invalid_fixtures():
    base = make_scenario()
    jordan, alex = base.agents

    def with_agents(*agents):
        return dataclasses.replace(base, agents=tuple(agents))

    def broken_personas():
        child = jordan.persona(EgoState.CHILD)
        return dataclasses.replace(
            jordan, personas=(jordan.persona(EgoState.PARENT), child, child)
        )

    def with_memory(record: MemoryRecord):
        persona = dataclasses.replace(
            jordan.persona(EgoState.CHILD), memories=(jordan.persona(EgoState.CHILD).memories[0], record)
        )
        patched = dataclasses.replace(
            jordan,
            personas=(jordan.persona(EgoState.PARENT), jordan.persona(EgoState.ADULT), persona),
        )
        return with_agents(patched, alex)

    dup_id = jordan.persona(EgoState.CHILD).memories[0].id
    return [
        (dataclasses.replace(base, opening_prompt="  "), "opening_prompt"),
        (dataclasses.replace(base, first_speaker="Nobody"), "first_speaker"),
        (dataclasses.replace(base, k=0), "k"),
        (dataclasses.replace(base, tool_budget=0), "tool_budget"),
        (dataclasses.replace(base, max_turns=0), "max_turns"),
        (dataclasses.replace(base, seed=-5), "seed"),
        (dataclasses.replace(base, decision_weights=DecisionWeights(0.5, 0.5, 0.5, 0.5)),
         "decision_weights"),
        (with_agents(jordan), "agents"),
        (with_agents(jordan, dataclasses.replace(alex, name="Jordan")), "agents[1].name"),
        (with_agents(broken_personas(), alex), "agents[Jordan].personas"),
        (with_memory(make_record(dup_id, EgoState.CHILD)),
         "agents[Jordan].personas[Child].memories[1].id"),
        (with_memory(make_record("fresh-id", EgoState.PARENT)),
         "agents[Jordan].personas[Child].memories[1].ego_state"),
    ]


def test_criterion_6_round_trip_and_curated_rejections():
    rng = random.Random(6)
    for _ in range(1000):
        cfg = random_scenario(rng)
        assert parse_scenario(serialize_scenario(cfg)) == cfg
    for _ in range(1000):
        t = random_transcript(rng)
        assert parse_transcript(serialize_transcript(t)) == t

    fixtures = _twelve_invalid_fixtures()
    assert len(fixtures) == 12
    for cfg, expected_path in fixtures:
        paths = [v.path for v in validate_scenario(cfg)]
        assert expected_path in paths, f"expected {expected_path}, got {paths}"
    announce(6, "1000+1000 round trips exact; 12 curated invalid configs rejected at the right path")


def test_criterion_7_partition_isolation():
    rng = random.Random(7)
    checked = 0
    for _ in range(20):
        cfg = random_scenario(rng)
        partitions = {
            (agent.name, persona.ego_state): {m.id for m in persona.memories}
            for agent in cfg.agents
            for persona in agent.personas
        }
        provider = ScriptedProvider(simple_run_fixtures(cfg, rng, searches_per_ego=2))
        transcript = run_simulation(cfg, provider, HashEmbedder())
        for utterance in transcript.utterances:
            for event in utterance.retrieval_log:
                allowed = partitions[(utterance.speaker, event.ego_state)]
                assert set(event.hit_ids) <= allowed, (
                    f"{utterance.speaker}/{event.ego_state.value} retrieved {event.hit_ids} "
                    f"outside its partition"
                )
                checked += 1
    assert checked > 0
    announce(7, f"{checked} retrieval events all stayed inside their (agent, ego) partition")


needs_live = pytest.mark.skipif(
    os.environ.get("TRANSACT_LIVE") != "1" or not os.environ.get("TRANSACT_API_KEY"),
    reason="live smoke test requires TRANSACT_LIVE=1 and TRANSACT_API_KEY",
)


@needs_live
def test_criterion_8_live_smoke():
    from transact.provider import CachingEmbedder, ProviderConfig, RemoteEmbedder, HttpProvider

    config = ProviderConfig(
        kind="http",
        base_url=os.environ.get("TRANSACT_BASE_URL", ProviderConfig.base_url),
        model=os.environ.get("TRANSACT_MODEL", ProviderConfig.model),
        embedder=os.environ.get("TRANSACT_EMBEDDER", ProviderConfig.embedder),
    )
    api_key = os.environ["TRANSACT_API_KEY"]
    cfg = parse_scenario(asset_path("stupid.json").read_text(encoding="utf-8"))
    log = RunLog()
    transcript = run_simulation(
        cfg,
        HttpProvider(config, api_key),
        CachingEmbedder(RemoteEmbedder(config, api_key)),
        run_log=log,
    )
    assert len(transcript.utterances) == 10
    turns_with_fallbacks = {
        e["turn"] for e in log.events if e["kind"] == "react_step" and e["action"] == "malformed"
    } | {e["turn"] for e in log.events if e["kind"] == "decision_malformed"}
    assert len(turns_with_fallbacks) <= 2, f"malformed fallbacks in turns {turns_with_fallbacks}"
    assert parse_transcript(serialize_transcript(transcript)) == transcript
    assert audit_budgets(transcript, cfg.tool_budget) == []
    announce(8, f"live run clean in {10 - len(turns_with_fallbacks)}/10 turns")
