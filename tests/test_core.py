"""Domain types, validation, canonical serialization, and fingerprints."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LONG_INTEGER,
    drop_first_score,
    make_agent,
    make_scenario,
    random_scenario,
    random_transcript,
    needs_int_digit_limit,
)
from transact import analysis, core, ego_agent, memory, provider
from transact.core import (
    AgentProfile,
    CriterionScores,
    DecisionRecord,
    DecisionWeights,
    EgoPersona,
    EgoScores,
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
        with pytest.raises(KeyError, match="Jordan has no Adult persona"):
            broken.persona(EgoState.ADULT)

    def test_a_one_agent_scenario_has_no_other_agent(self):
        cfg = make_scenario()
        alone = dataclasses.replace(cfg, agents=cfg.agents[1:])
        assert [str(v) for v in validate_scenario(alone)] == [
            "agents: exactly 2 agents required, got 1"
        ]
        with pytest.raises(KeyError, match="scenario has no second agent"):
            alone.other_agent(cfg.first_speaker)

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

    @pytest.mark.parametrize(
        "edit, violation",
        [
            (
                lambda cfg: dataclasses.replace(
                    cfg, agents=(dataclasses.replace(cfg.agents[0], name=" "), cfg.agents[1])
                ),
                "agents[0].name: agent name must be non-empty",
            ),
            (
                lambda cfg: dataclasses.replace(
                    cfg,
                    agents=(dataclasses.replace(cfg.agents[0], life_script=" "), cfg.agents[1]),
                ),
                "agents[Jordan].life_script: life script must be non-empty",
            ),
            (
                lambda cfg: dataclasses.replace(
                    cfg, decision_weights=DecisionWeights(-0.25, 0.75, 0.25, 0.25)
                ),
                "decision_weights: weights must be non-negative",
            ),
        ],
        ids=["blank-agent-name", "blank-life-script", "negative-weight-summing-to-one"],
    )
    def test_one_violation_with_its_path(self, edit, violation):
        assert [str(v) for v in validate_scenario(edit(make_scenario()))] == [violation]

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

    def test_faults_at_every_level_in_one_ordered_pass(self):
        jordan = make_agent("Jordan")
        child = jordan.persona(EgoState.CHILD)
        stray = MemoryRecord(
            id=child.memories[0].id, context=" ", reaction="r", emotions=(), tone="t",
            ego_state=EgoState.PARENT,
        )
        broken = dataclasses.replace(
            jordan,
            life_script="  ",
            personas=(
                jordan.persona(EgoState.PARENT),
                dataclasses.replace(child, memories=child.memories + (stray,)),
                EgoPersona(EgoState.CHILD, "another child"),
            ),
        )
        cfg = dataclasses.replace(make_scenario(k=0), agents=(broken, make_agent("Alex")))
        memory = "agents[Jordan].personas[Child].memories[2]"
        assert [str(v) for v in validate_scenario(cfg)] == [
            "agents[Jordan].life_script: life script must be non-empty",
            "agents[Jordan].personas: exactly one persona required per ego state "
            "(found ['Parent', 'Child', 'Child'])",
            f"{memory}.context: memory context must be non-empty",
            f"{memory}.emotions: at least one emotion label required",
            f"{memory}.ego_state: record belongs to Parent, persona is Child",
            f"{memory}.id: duplicate memory id 'jordan-child-0' in partition",
            "k: retrieval fan-out k must be >= 1",
        ]

    def test_a_second_persona_of_one_ego_state_is_located_by_its_index(self):
        jordan = make_agent("Jordan")
        child = jordan.persona(EgoState.CHILD)
        blank = dataclasses.replace(child.memories[0], context=" ")
        second = dataclasses.replace(child, memories=(blank,))
        broken = dataclasses.replace(
            jordan, personas=(jordan.persona(EgoState.PARENT), second, second)
        )
        cfg = dataclasses.replace(make_scenario(), agents=(broken, make_agent("Alex")))
        assert [str(v) for v in validate_scenario(cfg)] == [
            "agents[Jordan].personas: exactly one persona required per ego state "
            "(found ['Parent', 'Child', 'Child'])",
            "agents[Jordan].personas[Child].memories[0].context: memory context must be non-empty",
            "agents[Jordan].personas[2].memories[0].context: memory context must be non-empty",
        ]

    def test_text_beyond_ascii_that_utf8_encodes_is_valid(self):
        cfg = make_scenario()
        jordan = dataclasses.replace(
            cfg.agents[0], name="Jos\u00e9", life_script="caf\u00e9 \U0001f600 \u4e2d\u6587"
        )
        cfg = dataclasses.replace(
            cfg, agents=(jordan, cfg.agents[1]), opening_prompt="na\u00efve \U0001f600"
        )
        assert validate_scenario(cfg) == []


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

    def test_chosen_ego_must_be_the_decision_choice(self, golden_transcript):
        tree = json.loads(serialize_transcript(golden_transcript))
        u = tree["utterances"][0]
        other = next(c for c in u["candidates"] if c["ego_state"] != u["decision"]["chosen"])
        u["chosen_ego"], u["text"] = other["ego_state"], other["text"]
        with pytest.raises(TranscriptFormatError) as info:
            parse_transcript(json.dumps(tree))
        assert str(info.value) == (
            "utterances[0]: chosen_ego must equal the decision's chosen ego state"
        )

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

    def test_a_type_without_a_json_form_has_no_codec(self):
        @dataclasses.dataclass(frozen=True)
        class NullableIds:
            ids: tuple[int, ...] | None

        for tp in (dict[str, int], NullableIds):
            with pytest.raises(TypeError, match="no JSON codec for"):
                core._codec(tp)

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.pop("Child"), "decision.scores: missing keys ['Child']"),
            (lambda s: s.update(Grandparent={}), "decision.scores: unknown keys ['Grandparent']"),
            (
                lambda s: s["Adult"].update(relevance=True),
                "decision.scores.Adult.relevance: expected an integer",
            ),
            (lambda s: s.update(Parent=[], Child=[]), "decision.scores.Parent: expected an object"),
        ],
        ids=["missing", "unknown", "bool-mark", "first-broken-member"],
    )
    def test_decision_scores_messages(self, golden_transcript, edit, message):
        tree = json.loads(serialize_transcript(golden_transcript))
        edit(tree["utterances"][0]["decision"]["scores"])
        with pytest.raises(TranscriptFormatError) as info:
            parse_transcript(json.dumps(tree))
        assert str(info.value) == f"utterances[0].{message}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda t: t["utterances"][0]["candidates"][0].update(text="  "),
                "utterances[0].candidates[0]: candidate text must be non-empty",
            ),
            (
                lambda t: t["utterances"][0]["candidates"][2].update(searches_performed=-1),
                "utterances[0].candidates[2]: searches_performed must be non-negative",
            ),
            (
                lambda t: t["utterances"][2].update(speaker="Sam"),
                "transcript: a transcript has at most two speakers",
            ),
        ],
        ids=["blank-candidate", "negative-searches", "three-speakers"],
    )
    def test_transcript_rules_are_located_format_errors(self, golden_transcript, edit, message):
        tree = json.loads(serialize_transcript(golden_transcript))
        edit(tree)
        with pytest.raises(TranscriptFormatError) as info:
            parse_transcript(json.dumps(tree))
        assert str(info.value) == message

    def test_an_integer_score_reads_as_a_float(self, golden_transcript):
        tree = json.loads(serialize_transcript(golden_transcript))
        where = next(
            (i, j)
            for i, u in enumerate(tree["utterances"])
            for j, event in enumerate(u["retrieval_log"])
            if len(event["hits"]) >= 2
        )
        event = tree["utterances"][where[0]]["retrieval_log"][where[1]]
        event["hits"], event["scores"] = event["hits"][:2], [1, 0.5]
        parsed = parse_transcript(json.dumps(tree))
        scores = parsed.utterances[where[0]].retrieval_log[where[1]].scores
        assert scores == (1.0, 0.5)
        assert [type(s) for s in scores] == [float, float]

    @pytest.mark.parametrize("root", ["scenario", "transcript"])
    def test_an_unpaired_surrogate_escape_is_a_format_error(
        self, stupid_scenario, golden_transcript, root
    ):
        # json.dumps writes a lone surrogate as the escape, which no UTF-8 text holds.
        if root == "scenario":
            tree = json.loads(serialize_scenario(stupid_scenario))
            tree["opening_prompt"] += "\ud800"
            parse, error = parse_scenario, ScenarioFormatError
        else:
            tree = json.loads(serialize_transcript(golden_transcript))
            tree["scenario_fingerprint"] += "\udc00"
            parse, error = parse_transcript, TranscriptFormatError
        text = json.dumps(tree)
        at = text.index("\\ud")
        with pytest.raises(error) as info:
            parse(text)
        assert str(info.value) == (
            f"unpaired surrogate escape {text[at : at + 6]}: line 1 column {at + 1} (char {at})"
        )

    @needs_int_digit_limit
    @pytest.mark.parametrize("root", ["scenario", "transcript"])
    def test_an_integer_past_the_digit_limit_is_a_format_error(
        self, stupid_scenario, golden_transcript, root
    ):
        if root == "scenario":
            tree = json.loads(serialize_scenario(stupid_scenario))
            tree["seed"] = "LONG"
            parse, error = parse_scenario, ScenarioFormatError
        else:
            tree = json.loads(serialize_transcript(golden_transcript))
            tree["utterances"][0]["turn"] = "LONG"
            parse, error = parse_transcript, TranscriptFormatError
        text = json.dumps(tree).replace('"LONG"', LONG_INTEGER)
        at = text.index(LONG_INTEGER)
        with pytest.raises(error) as info:
            parse(text)
        assert str(info.value) == (
            f"not valid JSON: integer of more than {sys.get_int_max_str_digits()} digits: "
            f"line 1 column {at + 1} (char {at})"
        )

    @needs_int_digit_limit
    def test_the_long_integer_is_located_past_long_strings_and_floats(self, stupid_scenario):
        cfg = dataclasses.replace(stupid_scenario, opening_prompt=LONG_INTEGER)
        text = serialize_scenario(cfg)
        weight = '"relevance": ' + json.dumps(cfg.decision_weights.relevance)
        seed = f'"seed": {cfg.seed}'
        assert text.index(weight) < text.index(LONG_INTEGER) < text.index(seed)
        text = text.replace(weight, '"relevance": 0.' + LONG_INTEGER)
        text = text.replace(seed, '"seed": -' + LONG_INTEGER)
        at = text.index('"seed": -') + len('"seed": ')
        line = text.count("\n", 0, at) + 1
        column = at - text.rindex("\n", 0, at)
        with pytest.raises(ScenarioFormatError) as info:
            parse_scenario(text)
        assert str(info.value) == (
            f"not valid JSON: integer of more than {sys.get_int_max_str_digits()} digits: "
            f"line {line} column {column} (char {at})"
        )

    def test_an_escaped_surrogate_pair_parses(self, stupid_scenario):
        tree = json.loads(serialize_scenario(stupid_scenario))
        tree["opening_prompt"] += "\U0001f600"
        text = json.dumps(tree)
        assert "\\ud83d\\ude00" in text
        assert parse_scenario(text).opening_prompt.endswith("\U0001f600")

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
    zero = EgoScores(*[CriterionScores(0, 0, 0, 0)] * 3)
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

REPLACEMENTS = (None, True, 1, 1.5, "x", [], {}, 10**400)


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
        # A second emotion, so a wrong-typed one is located at [1], past an item that passed.
        tree["agents"][0]["personas"][0]["memories"][0]["emotions"].append("wary")
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
            # A node of the wrong JSON type is reported at that node, not at an ancestor.
            assert allowed or where == _where(path), f"{label}: located at {str(e)!r}"
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
    with pytest.raises(ValueError):  # a bool is written as true, which no reader takes back
        CriterionScores(True, 0, 0, 0)
    CriterionScores(0, 10, 5, 7)


def _one_of_each_record(scenario, transcript) -> list:
    """One instance of every frozen record type in ``transact``."""
    utterance = next(u for u in transcript.utterances if u.retrieval_log)
    event = utterance.retrieval_log[0]
    agent = scenario.agents[0]
    caller = provider.CallerInfo("Jordan", "Adult", 0)
    return [
        scenario,
        agent,
        agent.personas[0],
        agent.personas[0].memories[0],
        transcript,
        transcript.provider,
        utterance,
        utterance.candidates[0],
        utterance.decision,
        utterance.decision.scores,
        utterance.decision.scores.adult,
        utterance.decision.weights,
        event,
        core.Violation("opening_prompt", "must be non-empty"),
        provider.ChatMessage(provider.Role.USER, "hi"),
        caller,
        provider.ProviderCall(caller, (provider.ChatMessage(provider.Role.USER, "hi"),), "ok"),
        provider.ProviderConfig(),
        ego_agent.SearchMemories("the budget", None),
        ego_agent.FinalAnswer("Fine.", "calm", "level"),
        ego_agent.EgoTurnContext("Hello", (("Jordan", "Hi"),), "calm", 5, 3),
        ego_agent.EgoTurnOutcome(utterance.candidates[0], (event,), 0),
        analysis.detect_game_loops(analysis.ego_sequence(transcript))[0],
        analysis.BudgetViolation(1, "Jordan", EgoState.CHILD, 6),
    ]


class TestRecordLayout:
    """Every frozen record but ``MemoryIndex``, which caches its postings in its
    ``__dict__``, keeps its fields in slots and behaves as a frozen dataclass."""

    def test_every_frozen_record_but_the_index_is_slotted(self, stupid_scenario, golden_transcript):
        frozen = {
            obj
            for module in (core, provider, ego_agent, analysis, memory)
            for obj in vars(module).values()
            if isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
            and obj.__dataclass_params__.frozen
        }
        records = _one_of_each_record(stupid_scenario, golden_transcript)
        assert {type(r) for r in records} == frozen - {memory.MemoryIndex}
        assert all("__slots__" in vars(type(r)) for r in records)

    def test_slotted_records_stay_frozen_and_copy_replace_and_pickle(
        self, stupid_scenario, golden_transcript
    ):
        for record in _one_of_each_record(stupid_scenario, golden_transcript):
            assert not hasattr(record, "__dict__"), type(record).__name__
            name = dataclasses.fields(record)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
            assert dataclasses.replace(record) == record
