"""Step grammar, observation formatting, and the budgeted retrieval loop."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import WORDS, final_step, make_record, search_step
from transact.core import EgoState
from transact.ego_agent import (
    EgoTurnContext,
    FinalAnswer,
    MalformedStepError,
    SearchMemories,
    format_observation,
    parse_react_step,
    run_ego_turn,
)
from transact.memory import build_index
from transact.provider import HashEmbedder, ProviderError, ScriptedProvider
from transact.runlog import RunLog


class TestParseReactStep:
    def test_search_action_happy_path(self):
        raw = (
            "Thought: I've seen this before.\n"
            "Action: search_memories\n"
            "Action Input: criticized for report errors"
        )
        step = parse_react_step(raw)
        assert step.thought == "I've seen this before."
        assert step == SearchMemories("criticized for report errors", "I've seen this before.")

    def test_final_answer_block(self):
        raw = (
            "Final Answer:\n"
            "Text: Everything is spinning and I cannot fix this alone!\n"
            "Emotion: panic\n"
            "Tone: helpless"
        )
        step = parse_react_step(raw)
        assert step == FinalAnswer(
            "Everything is spinning and I cannot fix this alone!", "panic", "helpless"
        )

    def test_missing_emotion_and_tone_default(self):
        step = parse_react_step("Final Answer:\nText: fine.")
        assert step == FinalAnswer("fine.", "unspecified", "unspecified")

    def test_multiline_text_block(self):
        raw = "Final Answer:\nText: first line\nsecond line\nEmotion: calm\nTone: dry"
        assert parse_react_step(raw) == FinalAnswer(
            "first line\nsecond line", "calm", "dry"
        )

    def test_inline_final_answer_remainder(self):
        step = parse_react_step("Final Answer: just this sentence")
        assert step == FinalAnswer("just this sentence", "unspecified", "unspecified")

    def test_prose_without_markers_degrades_to_final_answer(self):
        raw = "I suppose the totals worry me, honestly."
        assert parse_react_step(raw) == FinalAnswer(raw, "unspecified", "unspecified")

    def test_final_answer_without_text_says_the_thought_else_the_raw_text(self):
        raw = "Thought: I should own it.\nFinal Answer:\nEmotion: calm"
        assert parse_react_step(raw) == FinalAnswer("I should own it.", "calm", "unspecified")
        raw = "Final Answer:\nEmotion: calm\nTone: dry"
        assert parse_react_step(raw) == FinalAnswer(raw, "calm", "dry")

    def test_fuzz_marker_free_strings_always_parse_to_fallback(self):
        rng = random.Random(12)
        alphabet = "abcdefghijklmnop qrstuvwxyz.,!?\n"
        for _ in range(1000):
            raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            step = parse_react_step(raw)
            assert step == FinalAnswer(raw, "unspecified", "unspecified")

    def test_missing_action_input_is_malformed(self):
        with pytest.raises(MalformedStepError):
            parse_react_step("Action: search_memories")
        with pytest.raises(MalformedStepError):
            parse_react_step("Action: search_memories\nAction Input:   ")

    def test_query_without_a_letter_or_digit_is_malformed(self):
        for query in ("???", "...", "-- !", "_"):
            with pytest.raises(MalformedStepError):
                parse_react_step(f"Action: search_memories\nAction Input: {query}")
        assert parse_react_step("Action: search_memories\nAction Input: ?x?") == (
            SearchMemories("?x?", None)
        )

    # Control and line-break characters are left out: they would end the line.
    @settings(max_examples=300, deadline=None)
    @given(query=st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=4))
    def test_a_query_is_a_search_exactly_when_it_can_be_hash_embedded(self, query):
        try:
            HashEmbedder().embed(query)
            embeddable = True
        except ValueError:
            embeddable = False
        try:
            parse_react_step(f"Action: search_memories\nAction Input: {query}")
        except MalformedStepError:
            assert not embeddable
        else:
            assert embeddable

    def test_prefixes_are_case_sensitive_and_line_anchored(self):
        raw = "thought: lower\naction: search_memories\nSee Final Answer: inline mention"
        assert parse_react_step(raw) == FinalAnswer(raw, "unspecified", "unspecified")
        step = parse_react_step("thought: lower\nAction: search_memories\nAction Input: q")
        assert step.thought is None
        assert step == SearchMemories("q", None)

    def test_first_directive_wins(self):
        raw = (
            "Final Answer:\nText: answered\n"
            "Action: search_memories\nAction Input: too late"
        )
        assert isinstance(parse_react_step(raw), FinalAnswer)

    def test_unknown_action_degrades_to_final_answer(self):
        raw = "Action: web_search\nAction Input: nope"
        assert parse_react_step(raw) == FinalAnswer(raw, "unspecified", "unspecified")


class TestFormatObservation:
    def test_empty_hits(self):
        assert format_observation([]) == "no memories found"

    def test_score_formatting(self):
        rec = make_record("m1", EgoState.CHILD, context="ctx", reaction="rx",
                          emotions=("panic", "shame"), tone="helpless")
        block = format_observation([(rec, 1.0)])
        assert "score: 1.0000" in block
        assert block.splitlines()[0] == "1. context: ctx"
        assert "emotions: panic, shame" in block

    def test_three_hits_are_numbered_and_byte_stable(self):
        recs = [
            make_record(f"m{i}", EgoState.CHILD, context=f"ctx {i}", reaction=f"rx {i}")
            for i in range(3)
        ]
        hits = [(recs[0], 0.9), (recs[1], 0.5), (recs[2], 0.123456)]
        once = format_observation(hits)
        again = format_observation(hits)
        assert once == again
        assert [line for line in once.splitlines() if line[:1].isdigit()] == [
            "1. context: ctx 0",
            "2. context: ctx 1",
            "3. context: ctx 2",
        ]
        assert "score: 0.1235" in once


def make_ctx(budget: int = 5, k: int = 3, history=()) -> EgoTurnContext:
    return EgoTurnContext(
        turn=0,
        opening_prompt="Alex points at a crucial mistake in the financial report.",
        history=tuple(history),
        descriptor="a panicked Child voice",
        tool_budget=budget,
        k=k,
    )


def child_index(n: int = 6, embedder=None):
    embedder = embedder or HashEmbedder()
    records = [
        make_record(f"m{i}", EgoState.CHILD, context=f"mistake report {WORDS[i]}")
        for i in range(n)
    ]
    return build_index(records, embedder, agent="Jordan", ego_state=EgoState.CHILD)


class TestRunEgoTurn:
    def test_one_search_then_final(self):
        idx = child_index()
        provider = ScriptedProvider(
            [
                ("Jordan/Child", search_step("mistake in the report")),
                ("Jordan/Child", final_step("I cannot deal with this.", "panic", "helpless")),
            ]
        )
        log = RunLog()
        outcome = run_ego_turn(make_ctx(), idx, provider, log)
        r = outcome.response
        assert r.searches_performed == 1
        assert r.text == "I cannot deal with this."
        assert r.emotion == "panic" and r.tone == "helpless"
        assert len(r.memories_used) == 3  # k hits from one search
        assert set(r.memories_used) <= set(idx.record_ids)
        assert outcome.retrieval[0].query == "mistake in the report"
        assert log.count("provider_call") == 2

    def test_adversarial_ego_is_capped_at_budget(self):
        idx = child_index()
        provider = ScriptedProvider(
            [("Jordan/Child", search_step(f"attempt {i}")) for i in range(12)]
        )
        log = RunLog()
        outcome = run_ego_turn(make_ctx(budget=5), idx, provider, log)
        assert outcome.response.searches_performed == 5
        assert len(outcome.retrieval) == 5
        # Budget searches, then one coerced finalization call.
        assert log.count("provider_call") == 6
        assert provider.remaining() == 6

    def test_empty_index_observation_then_original_answer(self):
        embedder = HashEmbedder()
        empty = build_index([], embedder, agent="Jordan", ego_state=EgoState.CHILD)
        provider = ScriptedProvider(
            [
                ("Jordan/Child", search_step("anything at all")),
                ("Jordan/Child", final_step("I will just say what I feel.", "worry", "soft")),
            ]
        )
        outcome = run_ego_turn(make_ctx(), empty, provider, RunLog())
        assert outcome.response.memories_used == ()
        assert outcome.response.text == "I will just say what I feel."
        observation = provider.call_log[1].messages[-1].content
        assert "no memories found" in observation

    def test_malformed_step_retries_once_then_succeeds(self):
        idx = child_index()
        provider = ScriptedProvider(
            [
                ("Jordan/Child", "Action: search_memories\nAction Input:"),
                ("Jordan/Child", final_step("Recovered.", "calm", "even")),
            ]
        )
        outcome = run_ego_turn(make_ctx(), idx, provider, RunLog())
        assert outcome.response.text == "Recovered."
        assert outcome.malformed_steps == 1
        retry_note = provider.call_log[1].messages[-1].content
        assert "malformed" in retry_note

    def test_two_malformed_steps_force_fallback(self):
        idx = child_index()
        provider = ScriptedProvider(
            [
                ("Jordan/Child", "Action: search_memories\nAction Input:"),
                ("Jordan/Child", "Action: search_memories\nAction Input:  "),
            ]
        )
        log = RunLog()
        outcome = run_ego_turn(make_ctx(), idx, provider, log)
        assert outcome.response.searches_performed == 0
        assert outcome.response.text  # non-empty fallback
        assert outcome.malformed_steps == 2
        assert log.count("provider_call") == 2

    def test_termination_bound_holds_in_all_scripted_paths(self):
        idx = child_index()
        budget = 3
        scripts = [
            [search_step(f"q{i}") for i in range(10)],
            ["Action: search_memories\nAction Input:"] + [search_step(f"q{i}") for i in range(10)],
            [final_step("quick answer")],
        ]
        for script in scripts:
            provider = ScriptedProvider([("Jordan/Child", s) for s in script])
            log = RunLog()
            outcome = run_ego_turn(make_ctx(budget=budget), idx, provider, log)
            assert log.count("provider_call") <= budget + 2
            assert outcome.response.searches_performed <= budget

    def test_identical_inputs_give_identical_responses(self):
        idx = child_index()
        script = [
            ("Jordan/Child", search_step("mistake report")),
            ("Jordan/Child", final_step("Deterministic line.", "calm", "flat")),
        ]
        first, second = (
            run_ego_turn(make_ctx(), idx, ScriptedProvider(script), RunLog())
            for _ in range(2)
        )
        assert first.response == second.response
        assert first.retrieval == second.retrieval

    def test_provider_error_propagates(self):
        idx = child_index()
        provider = ScriptedProvider([])  # immediate underrun
        with pytest.raises(ProviderError):
            run_ego_turn(make_ctx(), idx, provider, RunLog())

    def test_observations_accumulate_in_the_scratchpad(self):
        idx = child_index()
        provider = ScriptedProvider(
            [
                ("Jordan/Child", search_step("first query")),
                ("Jordan/Child", search_step("second query")),
                ("Jordan/Child", final_step("done")),
            ]
        )
        run_ego_turn(make_ctx(), idx, provider, RunLog())
        final_call_messages = provider.call_log[2].messages
        observations = [m.content for m in final_call_messages if m.content.startswith("Observation:")]
        assert len(observations) == 2

    def test_budget_directive_appears_after_last_allowed_search(self):
        idx = child_index()
        provider = ScriptedProvider(
            [
                ("Jordan/Child", search_step("q1")),
                ("Jordan/Child", search_step("q2")),
                ("Jordan/Child", final_step("closing line")),
            ]
        )
        outcome = run_ego_turn(make_ctx(budget=2), idx, provider, RunLog())
        assert outcome.response.searches_performed == 2
        last_prompt = provider.call_log[2].messages
        assert any("budget exhausted" in m.content.lower() for m in last_prompt)


_PHRASE = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)
#: One drawn reply: its kind, the words of its query or text, its thought
#: line (None for no line), and whether a final answer carries a Text: line.
_REPLY = st.tuples(
    st.sampled_from(("search", "malformed", "final", "prose")),
    _PHRASE,
    st.none() | _PHRASE,
    st.booleans(),
)


def render_reply(kind: str, words: str, thought: str | None, with_text: bool) -> str:
    head = f"Thought: {thought}\n" if thought is not None else ""
    if kind == "search":
        return f"{head}Action: search_memories\nAction Input: {words}"
    if kind == "malformed":
        return f"{head}Action: search_memories\nAction Input:"
    if kind == "final":
        text = f"Text: {words}\n" if with_text else ""
        return f"{head}Final Answer:\n{text}Emotion: calm\nTone: dry"
    return words


def ego_turn_oracle(replies, budget: int):
    """What one ego turn must do with these replies, walked from the protocol
    alone: (calls, queries, malformed steps, react_step actions with the search
    count after each, and the final (text, emotion, tone))."""
    queries: list[str] = []
    actions: list[tuple[str, int]] = []
    malformed = 0
    for calls, (kind, words, thought, with_text) in enumerate(replies, start=1):
        raw = render_reply(kind, words, thought, with_text)
        if kind == "malformed":
            malformed += 1
            actions.append(("malformed", len(queries)))
            if malformed == 2:  # the second malformed step ends the turn on its raw text
                final = (raw.strip(), "unspecified", "unspecified")
                break
        elif kind == "search" and len(queries) < budget:
            queries.append(words)
            actions.append(("search", len(queries)))
        elif kind == "search":  # over budget: the thought, else the raw text
            actions.append(("coerced_final", len(queries)))
            final = (thought or raw.strip(), "unspecified", "unspecified")
            break
        elif kind == "final":
            actions.append(("final_answer", len(queries)))
            final = (words if with_text else thought or raw.strip(), "calm", "dry")
            break
        else:
            actions.append(("final_answer", len(queries)))
            final = (raw, "unspecified", "unspecified")
            break
    else:
        raise AssertionError("no reply ended the turn")
    return calls, queries, malformed, actions, final


class TestRunEgoTurnProperty:
    INDEX = child_index()

    @settings(max_examples=300, deadline=None)
    @given(
        budget=st.integers(1, 4),
        k=st.integers(1, 3),
        replies=st.lists(_REPLY, min_size=7, max_size=7),
    )
    def test_any_replies_end_within_budget_as_the_oracle_predicts(self, budget, k, replies):
        provider = ScriptedProvider(
            [("Jordan/Child", render_reply(*reply)) for reply in replies]
        )
        log = RunLog()
        outcome = run_ego_turn(make_ctx(budget=budget, k=k), self.INDEX, provider, log)
        calls, queries, malformed, actions, final = ego_turn_oracle(replies, budget)
        assert calls <= budget + 2
        assert log.count("provider_call") == calls
        assert provider.remaining() == len(replies) - calls
        r = outcome.response
        assert (r.text, r.emotion, r.tone) == final
        assert r.searches_performed == len(queries) <= budget
        assert outcome.malformed_steps == malformed
        assert [e.query for e in outcome.retrieval] == queries
        assert all(len(e.hit_ids) == k for e in outcome.retrieval)
        hits = [rid for e in outcome.retrieval for rid in e.hit_ids]
        assert r.memories_used == tuple(dict.fromkeys(hits))
        steps = [e for e in log.events if e["kind"] == "react_step"]
        assert [(e["action"], e["searches"]) for e in steps] == actions
        assert [(e["query"], e["hits"]) for e in steps if e["action"] == "search"] == [
            (q, k) for q in queries
        ]
