"""Decision prompts, score parsing, and the weighted argmax."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from helpers import scores_reply, select_oracle
from transact.core import (
    CriterionScores,
    DecisionWeights,
    EGO_ORDER,
    EgoResponse,
    EgoScores,
    EgoState,
    select_ego,
)
from transact.decision import (
    FALLBACK_RATIONALE,
    MalformedDecisionError,
    decide,
    parse_scores,
    render_decision_prompt,
)
from transact.provider import ScriptedProvider
from transact.runlog import RunLog


def three_candidates() -> tuple[EgoResponse, ...]:
    return tuple(
        EgoResponse(
            ego_state=ego,
            text=f"candidate line from {ego.value}",
            emotion="calm",
            tone="even",
        )
        for ego in EGO_ORDER
    )


LIFE_SCRIPT = "Jordan needs others to solve his problems and leans on external help."


class TestRenderDecisionPrompt:
    def test_life_script_appears_verbatim(self):
        messages = render_decision_prompt(
            three_candidates(), (), "the report is wrong", LIFE_SCRIPT, "Jordan"
        )
        assert LIFE_SCRIPT in messages[0].content

    def test_empty_history_uses_opening_prompt_as_situation(self):
        messages = render_decision_prompt(
            three_candidates(), (), "the report is wrong", LIFE_SCRIPT, "Jordan"
        )
        body = messages[0].content
        assert "the report is wrong" in body
        assert "(no conversation yet)" in body

    def test_candidates_listed_in_fixed_ego_order(self):
        body = render_decision_prompt(
            three_candidates(), (), "situation", LIFE_SCRIPT, "Jordan"
        )[0].content
        parent = body.index("Parent (calm, even): candidate line from Parent")
        adult = body.index("Adult (calm, even): candidate line from Adult")
        child = body.index("Child (calm, even): candidate line from Child")
        assert parent < adult < child

    def test_prompt_bytes_are_stable(self):
        args = (three_candidates(), (("Alex", "prior line"),), "situation", LIFE_SCRIPT, "Jordan")
        assert render_decision_prompt(*args) == render_decision_prompt(*args)

    def test_incomplete_candidate_set_rejected(self):
        with pytest.raises(ValueError, match="three ego states"):
            render_decision_prompt(
                three_candidates()[:2], (), "situation", LIFE_SCRIPT, "Jordan"
            )


class TestParseScores:
    def test_happy_path(self):
        raw = (
            "SCORES Parent: relevance=7 progress=5 social=6 script=3\n"
            "SCORES Adult: relevance=8 progress=8 social=7 script=4\n"
            "SCORES Child: relevance=4 progress=2 social=3 script=9\n"
            "RATIONALE: the adult moves things forward"
        )
        scores, rationale = parse_scores(raw)
        assert scores.adult == CriterionScores(8, 8, 7, 4)
        assert rationale == "the adult moves things forward"

    def test_out_of_range_values_clamp_with_warning(self, caplog):
        raw = (
            "SCORES Parent: relevance=15 progress=5 social=-2 script=3\n"
            "SCORES Adult: relevance=1 progress=1 social=1 script=1\n"
            "SCORES Child: relevance=0 progress=0 social=0 script=0\n"
            "RATIONALE: r"
        )
        with caplog.at_level("WARNING"):
            scores, _ = parse_scores(raw)
        assert scores.parent.relevance == 10
        assert scores.parent.social_appropriateness == 0
        assert any("clamped" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "score, value",
        [("9" * 5000, 10), ("-" + "9" * 5000, 0), ("0" * 4999 + "7", 7)],
        ids=["nines", "negative-nines", "zero-padded-seven"],
    )
    def test_a_score_of_more_digits_than_int_converts_clamps_by_its_value(
        self, caplog, score, value
    ):
        raw = (
            f"SCORES Parent: relevance={score} progress=5 social=6 script=3\n"
            "SCORES Adult: relevance=1 progress=1 social=1 script=1\n"
            "SCORES Child: relevance=0 progress=0 social=0 script=0\n"
        )
        with caplog.at_level("WARNING"):
            scores, _ = parse_scores(raw)
        assert scores.parent == CriterionScores(value, 5, 6, 3)
        # Out of range is clamped with the warning; a zero-padded 7 is in range.
        assert [r.getMessage() for r in caplog.records] == ([] if value == 7 else [
            f"decision score out of range: Parent relevance={score} clamped to {value}"
        ])

    def test_missing_ego_line_is_malformed(self):
        raw = (
            "SCORES Parent: relevance=7 progress=5 social=6 script=3\n"
            "SCORES Adult: relevance=8 progress=8 social=7 script=4\n"
            "RATIONALE: no child line"
        )
        with pytest.raises(MalformedDecisionError, match="Child"):
            parse_scores(raw)

    def test_missing_rationale_degrades_to_empty(self):
        raw = "\n".join(
            f"SCORES {ego.value}: relevance=1 progress=1 social=1 script=1" for ego in EGO_ORDER
        )
        _, rationale = parse_scores(raw)
        assert rationale == ""

    def test_first_duplicate_line_wins(self):
        raw = (
            "SCORES Parent: relevance=1 progress=1 social=1 script=1\n"
            "SCORES Parent: relevance=9 progress=9 social=9 script=9\n"
            "SCORES Adult: relevance=2 progress=2 social=2 script=2\n"
            "SCORES Child: relevance=3 progress=3 social=3 script=3\n"
            "RATIONALE: r"
        )
        scores, _ = parse_scores(raw)
        assert scores.parent == CriterionScores(1, 1, 1, 1)


def table(parent, adult, child) -> EgoScores:
    return EgoScores(CriterionScores(*parent), CriterionScores(*adult), CriterionScores(*child))


EQUAL = DecisionWeights()


class TestSelect:
    def test_three_way_tie_goes_to_adult(self):
        scores = table((5, 5, 5, 5), (5, 5, 5, 5), (5, 5, 5, 5))
        assert select_ego(scores, EQUAL) is EgoState.ADULT

    def test_single_criterion_weights(self):
        scores = table((5, 5, 5, 5), (5, 5, 5, 5), (2, 1, 3, 9))
        weights = DecisionWeights(0.0, 0.0, 0.0, 1.0)
        assert select_ego(scores, weights) is EgoState.CHILD

    def test_parent_child_tie_goes_to_parent(self):
        scores = table((9, 9, 9, 9), (0, 0, 0, 0), (9, 9, 9, 9))
        assert select_ego(scores, EQUAL) is EgoState.PARENT

    def test_matches_brute_force_enumerator_on_random_tables(self):
        rng = random.Random(17)
        for _ in range(1000):
            scores = EgoScores(
                *(CriterionScores(*(rng.randint(0, 10) for _ in range(4))) for _ in EGO_ORDER)
            )
            if rng.random() < 0.2:  # force exact ties regularly
                scores = dataclasses.replace(scores, parent=scores.child)
            raw = [rng.random() + 0.01 for _ in range(4)]
            total = sum(raw)
            weights = DecisionWeights(*(w / total for w in raw))
            assert select_ego(scores, weights) is select_oracle(scores, weights)

    def test_invariant_under_power_of_two_weight_free_rescaling(self):
        # Power-of-two scaling is exact in binary floating point, so the
        # argmax must be bit-for-bit invariant.
        rng = random.Random(23)
        for _ in range(200):
            base = {ego: tuple(rng.randint(0, 10) for _ in range(4)) for ego in EGO_ORDER}
            raw = [rng.random() + 0.01 for _ in range(4)]
            total = sum(raw)
            weights = DecisionWeights(*(w / total for w in raw))

            def pick(scale: float) -> EgoState:
                totals = {
                    ego: sum(
                        w * (s * scale)
                        for w, s in zip(
                            (
                                weights.relevance,
                                weights.progress,
                                weights.social_appropriateness,
                                weights.script_alignment,
                            ),
                            base[ego],
                        )
                    )
                    for ego in EGO_ORDER
                }
                best = max(totals.values())
                for ego in (EgoState.ADULT, EgoState.PARENT, EgoState.CHILD):
                    if totals[ego] == best:
                        return ego
                raise AssertionError

            reference = select_ego(
                EgoScores(*(CriterionScores(*base[ego]) for ego in EGO_ORDER)), weights
            )
            for scale in (0.5, 1.0, 2.0, 4.0, 8.0):
                assert pick(scale) is reference

    def test_strict_dominance_wins_for_every_weight_vector(self):
        dominant = (7, 8, 9, 7)
        scores = table((6, 7, 8, 6), dominant, (2, 2, 2, 2))
        quarters = [i / 4 for i in range(5)]
        for a, b, c in itertools.product(quarters, repeat=3):
            d = 1.0 - a - b - c
            if d < -1e-12:
                continue
            weights = DecisionWeights(a, b, c, max(d, 0.0))
            assert select_ego(scores, weights) is EgoState.ADULT

    def test_bad_weights_rejected(self):
        scores = table((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1))
        with pytest.raises(ValueError, match="non-negative"):
            select_ego(scores, DecisionWeights(-0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="sum"):
            select_ego(scores, DecisionWeights(0.5, 0.5, 0.5, 0.5))


class TestDecide:
    def test_well_formed_reply_selects_scored_winner(self):
        provider = ScriptedProvider([("Jordan/decision", scores_reply(EgoState.CHILD))])
        record = decide(
            three_candidates(), (), "situation", LIFE_SCRIPT, EQUAL, "Jordan", provider,
            RunLog(),
        )
        assert record.chosen is EgoState.CHILD
        assert record.rationale == "picked by the test"
        assert not record.human

    def test_one_malformed_reply_is_retried(self):
        for malformed in ("gibberish with no score lines", ""):
            provider = ScriptedProvider(
                [
                    ("Jordan/decision", malformed),
                    ("Jordan/decision", scores_reply(EgoState.PARENT)),
                ]
            )
            log = RunLog()
            record = decide(
                three_candidates(), (), "situation", LIFE_SCRIPT, EQUAL, "Jordan", provider, log
            )
            assert record.chosen is EgoState.PARENT
            assert log.count("decision_malformed") == 1
            retry_messages = provider.call_log[1].messages
            assert any("missing required lines" in m.content for m in retry_messages)

    def test_double_malformed_falls_back_to_adult(self, caplog):
        for replies in (("still gibberish", "more gibberish"), ("", "")):
            provider = ScriptedProvider([("Jordan/decision", reply) for reply in replies])
            log = RunLog()
            caplog.clear()
            with caplog.at_level("WARNING"):
                record = decide(
                    three_candidates(), (), "situation", LIFE_SCRIPT, EQUAL, "Jordan", provider,
                    log,
                )
            assert record.chosen is EgoState.ADULT
            assert log.count("decision_malformed") == 2
            assert record.rationale == FALLBACK_RATIONALE
            assert record.scores == EgoScores(*[CriterionScores(0, 0, 0, 0)] * 3)
            assert any("fallback" in r.message for r in caplog.records)
