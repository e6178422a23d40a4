"""Distribution counting, loop detection against the exhaustive oracle, audits."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from helpers import loops_oracle, random_transcript
from transact.analysis import (
    GameLoopReport,
    audit_budgets,
    build_report,
    detect_game_loops,
    ego_distribution,
    ego_sequence,
    render_report,
)
from transact.core import EgoState

J_CHILD = ("Jordan", EgoState.CHILD)
J_ADULT = ("Jordan", EgoState.ADULT)
A_PARENT = ("Alex", EgoState.PARENT)
A_ADULT = ("Alex", EgoState.ADULT)
A_CHILD = ("Alex", EgoState.CHILD)


def reports_as_tuples(reports: list[GameLoopReport]):
    return [(r.period, tuple(r.pattern), r.repetitions, r.span) for r in reports]


class TestEgoDistribution:
    def test_four_out_of_five_child_is_eighty_percent(self):
        rng = random.Random(31)
        t = random_transcript(rng, max_utterances=0)
        # Build a 10-turn transcript by hand: Jordan picks Child 4 of 5 times.
        from helpers import make_candidates

        utterances = []
        jordan_egos = [EgoState.CHILD] * 4 + [EgoState.ADULT]
        for turn in range(10):
            speaker = "Jordan" if turn % 2 == 0 else "Alex"
            wanted = jordan_egos[turn // 2] if speaker == "Jordan" else EgoState.PARENT
            utterances.append(
                _utterance(turn, speaker, _decision_for(wanted), make_candidates(rng, turn))
            )
        transcript = dataclasses.replace(t, utterances=tuple(utterances))
        dist = ego_distribution(transcript)
        assert dist["Jordan"][EgoState.CHILD] == 4
        assert sum(dist["Jordan"].values()) == 5
        report = build_report(transcript, budget=5)
        assert report["ego_distribution"]["Jordan"]["percentages"]["Child"] == 80.0

    def test_empty_transcript_has_zero_counts(self):
        t = random_transcript(random.Random(32), max_utterances=0)
        assert ego_distribution(t) == {}
        report = build_report(t, budget=5)
        assert report["utterance_count"] == 0

    def test_counts_equal_a_naive_tally(self):
        rng = random.Random(33)
        for _ in range(25):
            t = random_transcript(rng, max_utterances=6)
            naive: Counter = Counter((u.speaker, u.chosen_ego) for u in t.utterances)
            dist = ego_distribution(t)
            for (speaker, ego), count in naive.items():
                assert dist[speaker][ego] == count
            assert sum(sum(c.values()) for c in dist.values()) == len(t.utterances)


def _decision_for(wanted: EgoState):
    from transact.core import (
        CriterionScores, DecisionRecord, DecisionWeights, EGO_ORDER, EgoScores,
    )

    scores = EgoScores(
        *(
            CriterionScores(10, 10, 10, 10) if ego is wanted else CriterionScores(0, 0, 0, 0)
            for ego in EGO_ORDER
        )
    )
    return DecisionRecord(
        scores=scores, weights=DecisionWeights(), chosen=wanted, rationale="fixed", human=False
    )


def _utterance(turn, speaker, decision, candidates):
    from transact.core import Utterance

    return Utterance(
        turn=turn,
        speaker=speaker,
        chosen_ego=decision.chosen,
        text=next(c.text for c in candidates if c.ego_state is decision.chosen),
        candidates=candidates,
        decision=decision,
        retrieval_log=(),
    )


class TestDetectGameLoops:
    def test_rescue_cycle_times_four(self):
        seq = (J_CHILD, A_PARENT) * 4
        reports = detect_game_loops(seq)
        assert reports_as_tuples(reports) == [(2, (J_CHILD, A_PARENT), 4, (0, 7))]

    def test_all_distinct_sequence_has_no_loops(self):
        seq = (J_CHILD, A_PARENT, J_ADULT, A_ADULT, ("Jordan", EgoState.PARENT), A_CHILD)
        assert detect_game_loops(seq) == []

    def test_period_one_suppresses_period_two_over_same_span(self):
        seq = (J_CHILD,) * 6
        reports = detect_game_loops(seq)
        assert reports_as_tuples(reports) == [(1, (J_CHILD,), 6, (0, 5))]

    def test_partial_tail_is_included_in_span(self):
        seq = (J_CHILD, A_PARENT, J_CHILD, A_PARENT, J_CHILD)
        reports = detect_game_loops(seq)
        assert reports_as_tuples(reports) == [(2, (J_CHILD, A_PARENT), 2, (0, 4))]

    def test_two_separate_loops_sorted_by_start(self):
        seq = (J_CHILD, A_PARENT) * 2 + (J_ADULT,) + (A_CHILD, J_ADULT) * 2
        reports = detect_game_loops(seq)
        tuples = reports_as_tuples(reports)
        assert tuples[0][3][0] <= tuples[-1][3][0]
        assert any(r[1] == (J_CHILD, A_PARENT) for r in tuples)

    def test_min_repetitions_threshold(self):
        seq = (J_CHILD, A_PARENT) * 2
        assert detect_game_loops(seq, min_repetitions=2) != []
        assert detect_game_loops(seq, min_repetitions=3) == []
        with pytest.raises(ValueError):
            detect_game_loops(seq, min_repetitions=1)

    def test_depends_only_on_the_ego_sequence(self, golden_transcript):
        # Relabeling utterance texts cannot change the reports.
        seq = ego_sequence(golden_transcript)
        direct = detect_game_loops(seq)
        relabeled = tuple((s, e) for s, e in seq)
        assert detect_game_loops(relabeled) == direct

    def test_matches_exhaustive_oracle_on_random_sequences(self):
        rng = random.Random(37)
        speakers = ["Jordan", "Alex"]
        for _ in range(300):
            n = rng.randint(0, 12)
            seq = tuple(
                (speakers[rng.randint(0, 1)], rng.choice(list(EgoState))) for _ in range(n)
            )
            got = reports_as_tuples(detect_game_loops(seq))
            want = loops_oracle(seq)
            assert got == want, f"sequence: {seq}"

    def test_every_report_is_self_verifying(self):
        rng = random.Random(38)
        speakers = ["Jordan", "Alex"]
        for _ in range(200):
            n = rng.randint(0, 12)
            seq = tuple(
                (speakers[rng.randint(0, 1)], rng.choice(list(EgoState))) for _ in range(n)
            )
            for r in detect_game_loops(seq):
                start = r.span[0]
                for rep in range(r.repetitions):
                    begin = start + rep * r.period
                    assert seq[begin : begin + r.period] == r.pattern
                assert r.repetitions * r.period <= len(seq)


class TestAuditBudgets:
    def test_engine_transcript_is_clean(self, golden_transcript):
        assert audit_budgets(golden_transcript, 5) == []

    def test_injected_breach_is_reported(self):
        rng = random.Random(41)
        t = random_transcript(rng, max_utterances=3)
        while not t.utterances:
            t = random_transcript(rng, max_utterances=3)
        u = t.utterances[0]
        breached = dataclasses.replace(u.candidates[0], searches_performed=6)
        u2 = dataclasses.replace(u, candidates=(breached,) + u.candidates[1:])
        t2 = dataclasses.replace(
            t, utterances=(u2,) + t.utterances[1:]
        )
        violations = audit_budgets(t2, 5)
        assert len(violations) == len(
            [c for uu in t2.utterances for c in uu.candidates if c.searches_performed > 5]
        )
        assert any(
            v.turn == u.turn and v.ego_state is breached.ego_state for v in violations
        )

    def test_budget_zero_flags_every_searching_candidate(self):
        rng = random.Random(42)
        t = random_transcript(rng, max_utterances=4)
        searching = [
            (u.turn, c.ego_state)
            for u in t.utterances
            for c in u.candidates
            if c.searches_performed > 0
        ]
        violations = audit_budgets(t, 0)
        assert [(v.turn, v.ego_state) for v in violations] == searching


class TestRescuePattern:
    def test_golden_loop_is_a_rescue_pattern(self, golden_transcript):
        from transact.analysis import rescue_patterns

        reports = detect_game_loops(ego_sequence(golden_transcript))
        assert rescue_patterns(reports) == reports  # the only loop is the rescue cycle

    def test_same_speaker_or_other_egos_do_not_count(self):
        from transact.analysis import is_rescue_pattern

        not_rescue = GameLoopReport(
            period=2, pattern=(J_ADULT, A_ADULT), repetitions=2, span=(0, 3)
        )
        assert not is_rescue_pattern(not_rescue)
        same_speaker = GameLoopReport(
            period=2,
            pattern=(("Jordan", EgoState.CHILD), ("Jordan", EgoState.PARENT)),
            repetitions=2,
            span=(0, 3),
        )
        assert not is_rescue_pattern(same_speaker)
        rescue = GameLoopReport(period=2, pattern=(J_CHILD, A_PARENT), repetitions=3, span=(0, 5))
        assert is_rescue_pattern(rescue)

    @pytest.mark.parametrize("pattern", [(J_CHILD,), (J_CHILD, A_PARENT) * 2])
    def test_a_loop_whose_period_is_not_two_is_not_a_rescue(self, pattern):
        from transact.analysis import is_rescue_pattern

        period = len(pattern)
        loop = GameLoopReport(period, pattern, repetitions=2, span=(0, 2 * period - 1))
        assert not is_rescue_pattern(loop)


class TestGameLoopReport:
    @pytest.mark.parametrize(
        "period, pattern, repetitions, span, message",
        [
            (2, (J_CHILD,), 2, (0, 3), "pattern length must equal the period"),
            (2, (J_CHILD, A_PARENT), 1, (0, 1), "a loop repeats at least twice"),
            (2, (J_CHILD, A_PARENT), 3, (0, 4), "span too short for the claimed repetitions"),
        ],
        ids=["pattern-length", "one-repetition", "short-span"],
    )
    def test_an_inconsistent_report_is_rejected(self, period, pattern, repetitions, span, message):
        with pytest.raises(ValueError, match=message):
            GameLoopReport(period, pattern, repetitions, span)


class TestReport:
    def test_report_regeneration_is_identical(self, golden_transcript):
        from transact.core import canonical_json

        once = canonical_json(build_report(golden_transcript, budget=5))
        again = canonical_json(build_report(golden_transcript, budget=5))
        assert once == again

    def test_rendered_text_mentions_the_loop(self, golden_transcript):
        text = render_report(build_report(golden_transcript, budget=5))
        assert "Jordan as Child -> Alex as Parent" in text
        assert "budget audit (limit 5): clean" in text
