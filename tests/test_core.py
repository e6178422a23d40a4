"""Domain types, validation, canonical serialization, and fingerprints."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    drop_first_score,
    make_agent,
    make_scenario,
    random_scenario,
    random_transcript,
)
from transact.core import (
    AgentProfile,
    CriterionScores,
    DecisionRecord,
    DecisionWeights,
    EGO_ORDER,
    EgoPersona,
    EgoState,
    MemoryRecord,
    RetrievalEvent,
    ScenarioFormatError,
    TranscriptFormatError,
    Utterance,
    canonical_json,
    fingerprint_scenario,
    parse_scenario,
    parse_transcript,
    serialize_scenario,
    serialize_transcript,
    validate_scenario,
)


def test_ego_state_is_a_closed_three_value_set():
    assert {e.value for e in EgoState} == {"Parent", "Adult", "Child"}
    with pytest.raises(ValueError):
        EgoState("Grandparent")


class TestValidateScenario:
    def test_wellformed_scenario_has_no_violations(self, stupid_scenario):
        assert validate_scenario(stupid_scenario) == []

    def test_empty_opening_prompt(self):
        cfg = dataclasses.replace(make_scenario(), opening_prompt="   ")
        violations = validate_scenario(cfg)
        assert [v.path for v in violations] == ["opening_prompt"]

    def test_duplicate_child_and_missing_adult_persona(self):
        jordan = make_agent("Jordan")
        child = jordan.persona(EgoState.CHILD)
        broken = dataclasses.replace(
            jordan,
            personas=(jordan.persona(EgoState.PARENT), child, dataclasses.replace(child)),
        )
        cfg = dataclasses.replace(make_scenario(), agents=(broken, make_agent("Alex")))
        violations = validate_scenario(cfg)
        assert [v.path for v in violations] == ["agents[Jordan].personas"]

    def test_unknown_first_speaker(self):
        cfg = dataclasses.replace(make_scenario(), first_speaker="Nobody")
        assert [v.path for v in validate_scenario(cfg)] == ["first_speaker"]

    def test_nan_decision_weight(self):
        weights = DecisionWeights(float("nan"), 0.25, 0.25, 0.25)
        cfg = dataclasses.replace(make_scenario(), decision_weights=weights)
        assert [v.path for v in validate_scenario(cfg)] == ["decision_weights"]

    def test_all_bounds_checked(self):
        cfg = dataclasses.replace(make_scenario(), k=0, tool_budget=0, max_turns=0, seed=-1)
        paths = {v.path for v in validate_scenario(cfg)}
        assert {"k", "tool_budget", "max_turns", "seed"} <= paths

    def test_memory_violations_carry_full_paths(self):
        rec_blank = MemoryRecord(
            id="m1", context="  ", reaction="r", emotions=(), tone="t", ego_state=EgoState.CHILD
        )
        rec_alien = MemoryRecord(
            id="m1", context="fine", reaction="r", emotions=("x",), tone="t",
            ego_state=EgoState.PARENT,
        )
        persona = EgoPersona(EgoState.CHILD, "child side", (rec_blank, rec_alien))
        jordan = AgentProfile(
            "Jordan",
            "script",
            (
                EgoPersona(EgoState.PARENT, "p"),
                EgoPersona(EgoState.ADULT, "a"),
                persona,
            ),
        )
        cfg = dataclasses.replace(make_scenario(), agents=(jordan, make_agent("Alex")))
        paths = {v.path for v in validate_scenario(cfg)}
        assert "agents[Jordan].personas[Child].memories[0].context" in paths
        assert "agents[Jordan].personas[Child].memories[0].emotions" in paths
        assert "agents[Jordan].personas[Child].memories[1].ego_state" in paths
        assert "agents[Jordan].personas[Child].memories[1].id" in paths


class TestUtteranceInvariants:
    def test_text_must_match_chosen_candidate(self):
        t = random_transcript(random.Random(1), max_utterances=1)
        while not t.utterances:
            t = random_transcript(random.Random(random.randrange(10**6)), max_utterances=1)
        u = t.utterances[0]
        with pytest.raises(ValueError, match="chosen candidate"):
            dataclasses.replace(u, text=u.text + " tampered")

    def test_candidates_must_cover_all_three_egos(self):
        rng = random.Random(2)
        t = random_transcript(rng, max_utterances=2)
        while not t.utterances:
            t = random_transcript(rng, max_utterances=2)
        u = t.utterances[0]
        with pytest.raises(ValueError, match="three ego states"):
            dataclasses.replace(u, candidates=(u.candidates[0],) * 3)

    def test_transcript_rejects_non_alternating_speakers(self):
        rng = random.Random(3)
        t = random_transcript(rng, max_utterances=3)
        while len(t.utterances) < 2:
            t = random_transcript(rng, max_utterances=3)
        u0, u1 = t.utterances[0], t.utterances[1]
        same = dataclasses.replace(u1, speaker=u0.speaker)
        with pytest.raises(ValueError, match="alternate"):
            dataclasses.replace(t, utterances=(u0, same) + t.utterances[2:])


class TestSerialization:
    def test_empty_transcript_document(self):
        t = random_transcript(random.Random(0), max_utterances=0)
        doc = serialize_transcript(t)
        assert '"utterances": []' in doc
        assert t.scenario_fingerprint in doc
        assert doc.endswith("\n")

    def test_round_trip_identity_on_random_transcripts(self):
        rng = random.Random(42)
        for _ in range(100):
            t = random_transcript(rng)
            assert parse_transcript(serialize_transcript(t)) == t

    def test_round_trip_identity_on_random_scenarios(self):
        rng = random.Random(43)
        for _ in range(100):
            cfg = random_scenario(rng)
            assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_score_perturbation_changes_bytes(self):
        rng = random.Random(44)
        t = random_transcript(rng)
        while not any(u.retrieval_log and u.retrieval_log[0].hit_ids for u in t.utterances):
            t = random_transcript(rng)
        u = next(u for u in t.utterances if u.retrieval_log and u.retrieval_log[0].hit_ids)
        ev = u.retrieval_log[0]
        bumped = dataclasses.replace(ev, scores=(ev.scores[0] + 1e-12,) + ev.scores[1:])
        u2 = dataclasses.replace(u, retrieval_log=(bumped,) + u.retrieval_log[1:])
        t2 = dataclasses.replace(
            t, utterances=tuple(u2 if x.turn == u.turn else x for x in t.utterances)
        )
        assert serialize_transcript(t2) != serialize_transcript(t)

    def test_parse_rejects_unknown_keys_and_bad_json(self):
        with pytest.raises(ScenarioFormatError):
            parse_scenario("{not json")
        tree = json.loads(serialize_scenario(make_scenario()))
        tree["surprise"] = 1
        with pytest.raises(ScenarioFormatError, match="unknown keys"):
            parse_scenario(json.dumps(tree))

    def test_decision_weights_block_is_optional_and_defaults_to_equal(self):
        tree = json.loads(serialize_scenario(make_scenario()))
        del tree["decision_weights"]
        cfg = parse_scenario(json.dumps(tree))
        assert cfg.decision_weights == DecisionWeights()
        assert cfg.decision_weights.relevance == 0.25

    def test_parse_transcript_rejects_inconsistent_decision(self):
        t = random_transcript(random.Random(7), max_utterances=2)
        while not t.utterances:
            t = random_transcript(random.Random(random.randrange(10**6)), max_utterances=2)
        tree = json.loads(serialize_transcript(t))
        decision = tree["utterances"][0]["decision"]
        decision["scores"]["Parent"] = {
            "relevance": 10, "progress": 10, "social_appropriateness": 10, "script_alignment": 10,
        }
        decision["scores"]["Adult"] = {
            "relevance": 0, "progress": 0, "social_appropriateness": 0, "script_alignment": 0,
        }
        decision["scores"]["Child"] = dict(decision["scores"]["Adult"])
        decision["chosen"] = "Adult"
        with pytest.raises(TranscriptFormatError, match="inconsistent"):
            parse_transcript(json.dumps(tree))

    def test_hits_and_scores_length_mismatch_is_a_located_format_error(
        self, golden_transcript
    ):
        tree = json.loads(serialize_transcript(golden_transcript))
        where = drop_first_score(tree)
        with pytest.raises(TranscriptFormatError) as info:
            parse_transcript(json.dumps(tree))
        assert str(info.value).startswith(f"{where}: ")

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_decision_weight_is_a_format_error(self, golden_transcript, weight):
        tree = json.loads(serialize_transcript(golden_transcript))
        tree["utterances"][0]["decision"]["weights"]["relevance"] = weight
        with pytest.raises(TranscriptFormatError, match=r"^utterances\[0\]\.decision: weights"):
            parse_transcript(json.dumps(tree))


# ---------------------------------------------------------------------------
# The writer emits text directly; its output must be exactly canonical_json
# (json.dumps with sorted keys, indent 2, no ASCII escaping) of the same tree.
# ---------------------------------------------------------------------------

ODD_TEXT = 'quote " backslash \\ nul \x00 unit \x1f del \x7f tab \t nl \n line \u2028 clef \U0001d11e 😀'


def _assert_canonical(value, serialize, parse):
    text = serialize(value)
    assert text == canonical_json(json.loads(text))
    again = parse(text)
    if "NaN" in text:  # NaN != NaN, so only the bytes can show this round trip
        assert serialize(again) == text
    else:
        assert again == value
    return text


def _assert_scenario_canonical(cfg):
    text = _assert_canonical(cfg, serialize_scenario, parse_scenario)
    tree_bytes = canonical_json(json.loads(text)).encode("utf-8")
    assert fingerprint_scenario(cfg) == hashlib.sha256(tree_bytes).hexdigest()


def _edge_transcripts():
    rng = random.Random(11)
    t = random_transcript(rng, max_utterances=3)
    while len(t.utterances) < 2:
        t = random_transcript(rng, max_utterances=3)
    u = t.utterances[0]
    zero = {ego: CriterionScores(0, 0, 0, 0) for ego in EGO_ORDER}
    int_weights = DecisionRecord(  # all-zero marks: Adult wins whatever the weights
        scores=zero, weights=DecisionWeights(1, 0, 0, 0), chosen=EgoState.ADULT, rationale=ODD_TEXT
    )
    event = RetrievalEvent(
        ego_state=EgoState.CHILD,
        query=ODD_TEXT,
        hit_ids=("m1", "m2", "m3", "m4"),
        scores=(float("nan"), float("inf"), float("-inf"), -0.0),
    )
    no_hits = RetrievalEvent(ego_state=EgoState.PARENT, query="q", hit_ids=(), scores=())
    yield "non-finite-scores", dataclasses.replace(
        t, utterances=(dataclasses.replace(u, retrieval_log=(event,)),) + t.utterances[1:]
    )
    yield "empty-hits-and-log", dataclasses.replace(
        t,
        utterances=(
            dataclasses.replace(u, retrieval_log=(no_hits,)),
            dataclasses.replace(t.utterances[1], retrieval_log=()),
        )
        + t.utterances[2:],
    )
    yield "int-weights-odd-text", dataclasses.replace(
        t,
        scenario_fingerprint=ODD_TEXT,
        utterances=(dataclasses.replace(u, decision=int_weights),) + t.utterances[1:],
        termination_reason=None,
    )
    yield "no-utterances", dataclasses.replace(t, utterances=(), termination_reason=None)


def _edge_scenarios():
    cfg = make_scenario(n_memories=1)
    agent = cfg.agents[0]
    persona = agent.personas[0]
    odd = dataclasses.replace(persona.memories[0], context=ODD_TEXT, emotions=())
    yield "int-weights-odd-text", dataclasses.replace(
        cfg,
        opening_prompt=ODD_TEXT,
        decision_weights=DecisionWeights(0, 1, 0, 0),
        agents=(
            dataclasses.replace(
                agent,
                life_script=ODD_TEXT,
                personas=(dataclasses.replace(persona, memories=(odd,)),) + agent.personas[1:],
            ),
        )
        + cfg.agents[1:],
    )
    yield "no-memories-no-personas", dataclasses.replace(
        make_scenario(n_memories=0),
        agents=(dataclasses.replace(agent, personas=()),) + cfg.agents[1:],
    )


class TestCanonicalWriter:
    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), text=st.text())
    def test_random_transcripts(self, rng, text):
        t = random_transcript(rng, max_utterances=5)
        _assert_canonical(t, serialize_transcript, parse_transcript)
        _assert_canonical(
            dataclasses.replace(t, scenario_fingerprint=text), serialize_transcript, parse_transcript
        )

    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False), text=st.text())
    def test_random_scenarios(self, rng, text):
        cfg = random_scenario(rng)
        _assert_scenario_canonical(cfg)
        _assert_scenario_canonical(dataclasses.replace(cfg, opening_prompt=text))

    @pytest.mark.parametrize("name", [name for name, _ in _edge_transcripts()])
    def test_edge_transcripts(self, name):
        t = dict(_edge_transcripts())[name]
        text = _assert_canonical(t, serialize_transcript, parse_transcript)
        if name == "non-finite-scores":
            assert "NaN,\n" in text and "Infinity,\n" in text and "-Infinity,\n" in text
            assert math.isnan(parse_transcript(text).utterances[0].retrieval_log[0].scores[0])
        if name == "int-weights-odd-text":
            assert '"relevance": 1,\n' in text  # an int in a float field stays an int

    @pytest.mark.parametrize("name", [name for name, _ in _edge_scenarios()])
    def test_edge_scenarios(self, name):
        _assert_scenario_canonical(dict(_edge_scenarios())[name])

    def test_bundled_scenario(self, stupid_scenario):
        _assert_scenario_canonical(stupid_scenario)


# ---------------------------------------------------------------------------
# Mutation table for the strict readers: every single-node edit of a valid
# document either parses or raises that document's format error, located once.
# ---------------------------------------------------------------------------

REPLACEMENTS = (None, True, 1, 1.5, "x", [], {})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    names = {type(None): "null", int: "int", float: "float", str: "string", list: "array"}
    return names.get(type(value), "object")


def _where(path: tuple) -> str:
    out = ""
    for segment in path:
        if isinstance(segment, int):
            out += f"[{segment}]"
        else:
            out += f".{segment}" if out else segment
    return out


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutations(tree):
    """(kind, path, original node, mutated tree) for every single-node edit."""
    for path, node in _nodes(tree):
        if isinstance(node, dict):
            mutated = copy.deepcopy(tree)
            _at(mutated, path)["surprise"] = 1
            yield "add", path, node, mutated
        if not path:
            continue
        mutated = copy.deepcopy(tree)
        del _at(mutated, path[:-1])[path[-1]]
        yield "delete", path, node, mutated
        for value in REPLACEMENTS:
            mutated = copy.deepcopy(tree)
            _at(mutated, path[:-1])[path[-1]] = value
            yield value, path, node, mutated


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _document(root: str):
    """A valid document tree with its parser and that parser's error type."""
    if root == "scenario":
        tree = json.loads(serialize_scenario(make_scenario(n_memories=1)))
        return tree, parse_scenario, ScenarioFormatError
    rng = random.Random(5)
    t = random_transcript(rng, max_utterances=2)
    while not any(ev.hit_ids for u in t.utterances for ev in u.retrieval_log):
        t = random_transcript(rng, max_utterances=2)
    return json.loads(serialize_transcript(t)), parse_transcript, TranscriptFormatError


@pytest.mark.parametrize("root", ["scenario", "transcript"])
def test_mutation_table_for_the_strict_readers(root):
    tree, parse, error = _document(root)
    checked = 0
    for kind, path, original, mutated in _mutations(tree):
        label = f"{kind!r} at {_where(path) or root}"
        try:
            parse(json.dumps(mutated))
            accepted = True
        except error as e:
            accepted = False
            where, _, detail = str(e).partition(": ")
            ancestors = {_where(path[:n]) for n in range(1, len(path) + 1)}
            assert where == root or where in ancestors, f"{label}: located at {str(e)!r}"
            assert where == root or where not in detail, f"{label}: doubled location {str(e)!r}"
        if kind == "add":
            assert not accepted, f"{label}: unknown key accepted"
        elif kind == "delete" and isinstance(path[-1], str):
            assert accepted == (path == ("decision_weights",)), f"{label}: wrong decision"
        elif kind != "delete":
            allowed = (
                _json_type(kind) == _json_type(original)
                or (_json_type(kind), _json_type(original)) == ("int", "float")
                or (kind is None and path == ("termination_reason",))
            )
            assert allowed or not accepted, f"{label}: replaced {original!r} accepted"
        checked += 1
    assert checked > 500


class TestFingerprint:
    def test_same_config_same_fingerprint(self, stupid_scenario):
        doc = serialize_scenario(stupid_scenario)
        again = parse_scenario(doc)
        assert fingerprint_scenario(again) == fingerprint_scenario(stupid_scenario)

    def test_edited_tone_changes_fingerprint(self, stupid_scenario):
        agent = stupid_scenario.agents[0]
        persona = agent.personas[0]
        record = dataclasses.replace(persona.memories[0], tone="entirely different")
        cfg = dataclasses.replace(
            stupid_scenario,
            agents=(
                dataclasses.replace(
                    agent,
                    personas=(
                        dataclasses.replace(persona, memories=(record,) + persona.memories[1:]),
                    )
                    + agent.personas[1:],
                ),
            )
            + stupid_scenario.agents[1:],
        )
        assert fingerprint_scenario(cfg) != fingerprint_scenario(stupid_scenario)

    def test_memory_order_is_significant(self):
        cfg = make_scenario(n_memories=3)
        agent = cfg.agents[0]
        persona = agent.personas[0]
        swapped = dataclasses.replace(
            persona, memories=(persona.memories[1], persona.memories[0]) + persona.memories[2:]
        )
        cfg2 = dataclasses.replace(
            cfg,
            agents=(dataclasses.replace(agent, personas=(swapped,) + agent.personas[1:]),)
            + cfg.agents[1:],
        )
        assert fingerprint_scenario(cfg2) != fingerprint_scenario(cfg)

    def test_fingerprint_is_hex256(self, stupid_scenario):
        fp = fingerprint_scenario(stupid_scenario)
        assert len(fp) == 64
        int(fp, 16)


def test_decision_scores_bounds():
    with pytest.raises(ValueError):
        CriterionScores(11, 0, 0, 0)
    with pytest.raises(ValueError):
        CriterionScores(-1, 0, 0, 0)
    CriterionScores(0, 10, 5, 7)
