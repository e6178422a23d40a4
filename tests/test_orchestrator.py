"""Turn loop, termination, determinism, and information hiding."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from helpers import final_step, make_scenario, scores_reply, search_step, simple_run_fixtures
from test_acceptance import GOLDEN_RUN_SHA256
from transact.core import (
    EGO_ORDER,
    EgoState,
    TerminationReason,
    fingerprint_scenario,
    parse_transcript,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from transact.memory import MemoryIndexError
from transact.orchestrator import (
    InvalidScenarioError,
    SimulationError,
    build_indices,
    run_simulation,
    step_turn,
)
from transact.provider import CallerInfo, HashEmbedder, ProviderStopSignal, ScriptedProvider
from transact.runlog import RunLog


class TestStepTurn:
    def test_turn_zero_uses_first_speaker_and_flips(self):
        cfg = make_scenario(max_turns=2, first_speaker="Jordan")
        indices = build_indices(cfg, HashEmbedder())
        provider = ScriptedProvider(simple_run_fixtures(cfg))
        utterances = []
        first = step_turn(cfg, utterances, provider, indices, RunLog())
        assert utterances == []  # the caller keeps the utterance, not step_turn
        assert (first.turn, first.speaker) == (0, "Jordan")
        second = step_turn(cfg, [first], provider, indices, RunLog())
        assert (second.turn, second.speaker) == (1, "Alex")

    def test_rejected_when_turn_counter_at_limit(self):
        cfg = make_scenario(max_turns=1)
        indices = build_indices(cfg, HashEmbedder())
        provider = ScriptedProvider(simple_run_fixtures(cfg))
        done = [step_turn(cfg, [], provider, indices, RunLog())]
        calls = len(provider.call_log)
        with pytest.raises(ValueError, match="max_turns"):
            step_turn(cfg, done, provider, indices, RunLog())
        assert len(provider.call_log) == calls

    def test_candidates_cover_all_egos_and_retrieval_is_logged(self):
        cfg = make_scenario(max_turns=1)
        provider = ScriptedProvider(simple_run_fixtures(cfg))
        u = step_turn(cfg, [], provider, build_indices(cfg, HashEmbedder()), RunLog())
        assert sorted(c.ego_state.value for c in u.candidates) == ["Adult", "Child", "Parent"]
        assert len(u.retrieval_log) == 3  # one search per ego in the simple fixtures
        assert u.decision.chosen is u.chosen_ego

    def test_logs_every_provider_call_in_the_callers_log(self):
        cfg = make_scenario(max_turns=1)
        provider = ScriptedProvider(simple_run_fixtures(cfg))
        log = RunLog()
        step_turn(cfg, [], provider, build_indices(cfg, HashEmbedder()), log)
        assert log.count("provider_call") == len(provider.call_log) == 7


def _with_alex_child_memory(cfg, **changes):
    """``cfg``, whose second agent is Alex, with the first memory of Alex's Child changed."""
    alex = cfg.agent("Alex")
    child = alex.persona(EgoState.CHILD)
    memories = (dataclasses.replace(child.memories[0], **changes), *child.memories[1:])
    personas = tuple(
        dataclasses.replace(p, memories=memories) if p is child else p for p in alex.personas
    )
    agents = (cfg.agents[0], dataclasses.replace(alex, personas=personas))
    return dataclasses.replace(cfg, agents=agents)


class TestRunSimulation:
    def test_invalid_config_is_rejected_up_front(self):
        cfg = dataclasses.replace(make_scenario(), opening_prompt=" ")
        with pytest.raises(InvalidScenarioError):
            run_simulation(cfg, ScriptedProvider([]), HashEmbedder())

    @pytest.mark.parametrize(
        "edit, path",
        [
            (
                lambda cfg: dataclasses.replace(cfg, opening_prompt=cfg.opening_prompt + "\ud800"),
                "opening_prompt",
            ),
            (
                lambda cfg: _with_alex_child_memory(cfg, context="a \udc80 in the report"),
                "agents[Alex].personas[Child].memories[0]",
            ),
            (
                lambda cfg: dataclasses.replace(
                    cfg, agents=(dataclasses.replace(cfg.agents[0], name="Jor\udbffdan"),
                                 cfg.agents[1]),
                ),
                "agents[0].name",
            ),
        ],
        ids=["opening-prompt", "memory-context", "agent-name"],
    )
    def test_text_utf8_cannot_encode_is_refused_before_any_call(
        self, stupid_scenario, edit, path
    ):
        cfg = edit(stupid_scenario)
        violation = f"{path}: text holds a surrogate code point, which UTF-8 cannot encode"
        assert [str(v) for v in validate_scenario(cfg)] == [violation]
        provider = ScriptedProvider([])
        with pytest.raises(InvalidScenarioError) as caught:
            run_simulation(cfg, provider, HashEmbedder())
        assert [str(v) for v in caught.value.violations] == [violation]
        assert provider.call_log == []

    def test_query_with_no_letter_or_digit_is_malformed_and_the_run_completes(self):
        cfg = make_scenario(max_turns=2)
        fixtures = simple_run_fixtures(cfg)
        # Queues are per caller: Alex's Child asks "???" first, then as scripted.
        fixtures.insert(0, ("Alex/Child", search_step("???")))
        provider = ScriptedProvider(fixtures)
        log = RunLog()
        t = run_simulation(cfg, provider, HashEmbedder(), run_log=log)
        assert t.termination_reason is TerminationReason.MAX_TURNS
        assert len(t.utterances) == 2
        malformed = [
            (e["agent"], e["ego"], e["turn"])
            for e in log.events
            if e["kind"] == "react_step" and e["action"] == "malformed"
        ]
        assert malformed == [("Alex", "Child", 0)]
        assert [e["malformed_steps"] for e in log.events if e["kind"] == "utterance"] == [1, 0]
        # The retry note follows the "???" step, and the scripted search after it runs.
        child_calls = [c for c in provider.call_log if c.caller == CallerInfo("Alex", "Child", 0)]
        assert "that step was malformed" in child_calls[1].messages[-1].content
        child = [e for e in t.utterances[0].retrieval_log if e.ego_state is EgoState.CHILD]
        assert len(child) == 1 and child[0].query != "???"

    def test_minimal_run(self):
        cfg = make_scenario(max_turns=1, first_speaker="Jordan")
        t = run_simulation(cfg, ScriptedProvider(simple_run_fixtures(cfg)), HashEmbedder())
        assert len(t.utterances) == 1
        assert t.utterances[0].speaker == "Jordan"
        assert t.termination_reason is TerminationReason.MAX_TURNS

    def test_speakers_alternate_for_the_whole_run(self):
        cfg = make_scenario(max_turns=4)
        t = run_simulation(cfg, ScriptedProvider(simple_run_fixtures(cfg)), HashEmbedder())
        speakers = [u.speaker for u in t.utterances]
        assert speakers == ["Alex", "Jordan", "Alex", "Jordan"]

    def test_identical_runs_have_identical_canonical_bytes(self):
        cfg = make_scenario(max_turns=3)
        hashes = {
            transcript_hash(
                run_simulation(cfg, ScriptedProvider(simple_run_fixtures(cfg)), HashEmbedder())
            )
            for _ in range(3)
        }
        assert len(hashes) == 1

    def test_run_fingerprints_its_scenario_once(self, monkeypatch):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return fingerprint_scenario(cfg)

        monkeypatch.setattr("transact.orchestrator.fingerprint_scenario", counting)
        cfg = make_scenario(max_turns=2)
        t = run_simulation(cfg, ScriptedProvider(simple_run_fixtures(cfg)), HashEmbedder())
        assert len(calls) == 1
        assert t.scenario_fingerprint == fingerprint_scenario(cfg)

    def test_provider_call_budget_per_turn(self):
        cfg = make_scenario(max_turns=2, tool_budget=2)
        provider = ScriptedProvider(simple_run_fixtures(cfg, searches_per_ego=2))
        run_simulation(cfg, provider, HashEmbedder())
        per_turn: dict[int, int] = {}
        for call in provider.call_log:
            per_turn[call.caller.turn] = per_turn.get(call.caller.turn, 0) + 1
        limit = 3 * (cfg.tool_budget + 2) + 2
        assert per_turn and all(count <= limit for count in per_turn.values())

    def test_history_contains_only_chosen_texts(self):
        cfg = make_scenario(max_turns=2, first_speaker="Alex")
        fixtures = []
        rival = "RIVAL-CANDIDATE-TEXT-NEVER-CHOSEN"
        for ego in ("Parent", "Adult", "Child"):
            text = "the chosen adult line" if ego == "Adult" else f"{rival} {ego}"
            fixtures.append((f"Alex/{ego}", final_step(text)))
        fixtures.append(("Alex/decision", scores_reply(EgoState.ADULT)))
        for ego in ("Parent", "Adult", "Child"):
            fixtures.append((f"Jordan/{ego}", final_step(f"jordan {ego} line")))
        fixtures.append(("Jordan/decision", scores_reply(EgoState.CHILD)))
        provider = ScriptedProvider(fixtures)
        run_simulation(cfg, provider, HashEmbedder())
        jordan_prompts = [
            m.content
            for call in provider.call_log
            if call.caller.agent == "Jordan"
            for m in call.messages
        ]
        assert jordan_prompts
        assert all(rival not in p for p in jordan_prompts)
        assert any("the chosen adult line" in p for p in jordan_prompts)

    def test_mid_run_failure_carries_partial_transcript(self):
        cfg = make_scenario(max_turns=3)
        # Fixtures for the first turn only; turn 1 underruns.
        fixtures = simple_run_fixtures(dataclasses.replace(cfg, max_turns=1))
        with pytest.raises(SimulationError) as exc_info:
            run_simulation(cfg, ScriptedProvider(fixtures), HashEmbedder())
        partial = exc_info.value.transcript
        assert len(partial.utterances) == 1
        assert partial.termination_reason is None

    def test_index_build_failure_aborts_before_turn_zero(self):
        cfg = make_scenario()
        agent = cfg.agents[0]
        persona = agent.personas[0]
        bad = dataclasses.replace(persona.memories[0], context="!!! ???")
        cfg = dataclasses.replace(
            cfg,
            agents=(
                dataclasses.replace(
                    agent,
                    personas=(dataclasses.replace(persona, memories=(bad,) + persona.memories[1:]),)
                    + agent.personas[1:],
                ),
            )
            + cfg.agents[1:],
        )
        provider = ScriptedProvider([])
        with pytest.raises(SimulationError, match="index build failed: .*no alphanumeric") as err:
            run_simulation(cfg, provider, HashEmbedder())
        assert isinstance(err.value.__cause__, MemoryIndexError)
        partial = err.value.transcript
        assert partial.utterances == ()
        assert partial.termination_reason is None
        assert parse_transcript(serialize_transcript(partial)) == partial
        assert provider.call_log == []

    def test_provider_stop_signal_ends_run_cleanly(self):
        cfg = make_scenario(max_turns=5)

        class StopAfterOneTurn(ScriptedProvider):
            def complete(self, messages, stop_markers=(), caller=None):
                if caller.turn >= 1:
                    raise ProviderStopSignal("enough")
                return super().complete(messages, stop_markers, caller)

        provider = StopAfterOneTurn(simple_run_fixtures(dataclasses.replace(cfg, max_turns=1)))
        t = run_simulation(cfg, provider, HashEmbedder())
        assert len(t.utterances) == 1
        assert t.termination_reason is TerminationReason.PROVIDER_STOP

    def test_stop_raised_by_on_utterance_keeps_that_turn(self):
        cfg = make_scenario(max_turns=3)

        def stop(u) -> None:
            raise ProviderStopSignal("seen one")

        t = run_simulation(
            cfg, ScriptedProvider(simple_run_fixtures(cfg)), HashEmbedder(), on_utterance=stop
        )
        assert [u.turn for u in t.utterances] == [0]
        assert t.termination_reason is TerminationReason.PROVIDER_STOP

    def test_run_log_has_a_record_per_provider_call_and_react_step(self):
        cfg = make_scenario(max_turns=1)
        provider = ScriptedProvider(simple_run_fixtures(cfg))
        log = RunLog()
        run_simulation(cfg, provider, HashEmbedder(), run_log=log)
        react_steps = log.count("react_step")
        # Each ego: one search step + one final-answer step.
        assert react_steps == 6
        assert log.count("decision") == 1
        assert log.count("utterance") == 1
        # One structured line per provider call, matching the provider's own log.
        assert log.count("provider_call") == len(provider.call_log) == 7
        sample = next(e for e in log.events if e["kind"] == "provider_call")
        assert {"backend", "agent", "role", "turn", "request_bytes", "response_bytes"} <= set(sample)

    def test_bundled_run_embeds_each_distinct_query_once_and_logs_every_search(
        self, stupid_scenario, stupid_fixtures
    ):
        embedded: list[str] = []

        class Counting(HashEmbedder):
            def embed(self, text):
                embedded.append(text)
                return super().embed(text)

        log = RunLog()
        t = run_simulation(
            stupid_scenario, ScriptedProvider(stupid_fixtures), Counting(), run_log=log
        )
        assert transcript_hash(t) == GOLDEN_RUN_SHA256
        records = sum(len(p.memories) for a in stupid_scenario.agents for p in a.personas)
        events = [e for u in t.utterances for e in u.retrieval_log]
        assert (records, len(events)) == (60, 30)
        # Each partition repeats its cue: 6 distinct (partition, query) pairs.
        cues = {(u.speaker, e.ego_state, e.query) for u in t.utterances for e in u.retrieval_log}
        assert len(cues) == 6
        assert len(embedded) == records + 6
        searches = [e for e in log.events if e["kind"] == "react_step" and e["action"] == "search"]
        assert [(e["query"], e["hits"]) for e in searches] == [
            (e.query, len(e.hit_ids)) for e in events
        ]

class MeetingProvider(ScriptedProvider):
    """A scripted provider that reports the network backend. Each ego state's
    first call of a turn waits until all three have made theirs, so a turn
    only completes when its ego states run at the same time."""

    kind = "http"

    def __init__(self, fixtures) -> None:
        super().__init__(fixtures)
        self.barrier = threading.Barrier(len(EGO_ORDER), timeout=5)
        self.ego_threads: set[threading.Thread] = set()

    def complete(self, messages, stop_markers=(), caller=None):
        if caller.role != "decision":
            self.ego_threads.add(threading.current_thread())
            if len(messages) == 2:
                self.barrier.wait()
        return super().complete(messages, stop_markers, caller)


class TestConcurrentEgoStates:
    def test_network_backend_runs_a_turns_ego_states_at_once(self):
        cfg = make_scenario(max_turns=3)
        scripted, scripted_log = ScriptedProvider(simple_run_fixtures(cfg)), RunLog()
        reference = run_simulation(cfg, scripted, HashEmbedder(), run_log=scripted_log)
        provider, log = MeetingProvider(simple_run_fixtures(cfg)), RunLog()
        threads = threading.active_count()
        t = run_simulation(cfg, provider, HashEmbedder(), run_log=log)
        assert threading.active_count() == threads
        assert threading.current_thread() not in provider.ego_threads
        assert t.utterances == reference.utterances
        # Merged in EGO_ORDER once all three finish: the sequential run's log.
        assert [{**e, "backend": "scripted"} if "backend" in e else e for e in log.events] == (
            scripted_log.events
        )

    def test_scripted_backend_runs_on_the_calling_thread(self):
        cfg = make_scenario(max_turns=2)
        provider = MeetingProvider(simple_run_fixtures(cfg))
        provider.kind = "scripted"
        provider.barrier = threading.Barrier(1)  # nothing to wait for
        run_simulation(cfg, provider, HashEmbedder())
        assert provider.ego_threads == {threading.current_thread()}

    def test_every_ego_state_finishes_before_the_first_failure_is_raised(self):
        cfg = make_scenario(max_turns=1)
        fixtures = simple_run_fixtures(cfg)
        # Parent and Child get their search step but no answer; Adult gets both.
        short = {f"{cfg.first_speaker}/Parent", f"{cfg.first_speaker}/Child"}
        provider = MeetingProvider(
            [f for f in fixtures if f[0] not in short]
            + [next(f for f in fixtures if f[0] == key) for key in sorted(short)]
        )
        threads = threading.active_count()
        first = f"turn 0 .*exhausted for {cfg.first_speaker}/Parent"
        with pytest.raises(SimulationError, match=first) as err:
            run_simulation(cfg, provider, HashEmbedder())
        assert threading.active_count() == threads
        assert err.value.transcript.utterances == ()
        answered = [c.caller.role for c in provider.call_log]
        assert sorted(answered) == ["Adult", "Adult", "Child", "Parent"]


class TestHumanAgent:
    def test_human_plays_one_side(self):
        cfg = make_scenario(max_turns=2, first_speaker="Jordan")
        lines = iter(["We can fix the totals together."])

        def read(prompt: str) -> str:
            try:
                return next(lines)
            except StopIteration:
                raise EOFError

        provider = ScriptedProvider(
            simple_run_fixtures(dataclasses.replace(cfg, max_turns=2, first_speaker="Alex"))
        )
        t = run_simulation(
            cfg, provider, HashEmbedder(), human_agent="Jordan", input_fn=read
        )
        assert len(t.utterances) == 2
        human, engine = t.utterances[0], t.utterances[1]
        assert human.speaker == "Jordan"
        assert human.chosen_ego is EgoState.ADULT
        assert human.decision.human is True
        assert human.text == "We can fix the totals together."
        assert all(c.text == human.text for c in human.candidates)
        assert engine.speaker == "Alex"
        assert engine.decision.human is False

    def test_eof_at_turn_zero_gives_empty_provider_stop_transcript(self):
        cfg = make_scenario(max_turns=3, first_speaker="Jordan")

        def read(prompt: str) -> str:
            raise EOFError

        t = run_simulation(
            cfg, ScriptedProvider([]), HashEmbedder(), human_agent="Jordan", input_fn=read
        )
        assert t.utterances == ()
        assert t.termination_reason is TerminationReason.PROVIDER_STOP

    def test_blank_lines_are_reprompted(self):
        cfg = make_scenario(max_turns=1, first_speaker="Jordan")
        lines = iter(["", "   ", "a real line"])

        def read(prompt: str) -> str:
            return next(lines)

        t = run_simulation(
            cfg, ScriptedProvider([]), HashEmbedder(), human_agent="Jordan", input_fn=read
        )
        assert t.utterances[0].text == "a real line"

    def test_unknown_human_agent_rejected(self):
        cfg = make_scenario()
        with pytest.raises(KeyError):
            run_simulation(
                cfg, ScriptedProvider([]), HashEmbedder(),
                human_agent="Nobody", input_fn=lambda p: "x",
            )


def test_validated_scenarios_run_without_engine_panics():
    """Soundness fuzz: any config validate_scenario accepts must execute."""
    import random as _random

    from helpers import random_scenario

    rng = _random.Random(1234)
    for _ in range(25):
        cfg = random_scenario(rng)
        assert validate_scenario(cfg) == []
        provider = ScriptedProvider(simple_run_fixtures(cfg, rng))
        t = run_simulation(cfg, provider, HashEmbedder())
        assert len(t.utterances) == cfg.max_turns
