"""Pick one of the three ego candidates: model-scored, engine-selected.

The model judges each candidate on four criteria; the weighted argmax and
its tie-break live in the engine, so every choice in a transcript can be
recomputed and audited after the fact.
"""

from __future__ import annotations

import logging
import re
from typing import Sequence

from . import templates
from .core import (
    CriterionScores,
    DecisionRecord,
    DecisionWeights,
    EGO_ORDER,
    EgoResponse,
    EgoScores,
    EgoState,
    _ZERO_SCORES,
    _covers_each_ego_once,
    select_ego,
)
from .ego_agent import render_history
from .provider import CallerInfo, ChatMessage, Role, complete_logged
from .runlog import RunLog

logger = logging.getLogger(__name__)

FALLBACK_RATIONALE = "decision fallback"

_SCORES_RE = re.compile(
    r"^SCORES (Parent|Adult|Child):\s*"
    r"relevance=(-?\d+)\s+progress=(-?\d+)\s+social=(-?\d+)\s+script=(-?\d+)\s*$"
)
_RETRY_NOTE = (
    "Your reply was missing required lines. Send exactly three SCORES lines, "
    "one per ego state, and one RATIONALE line, in the required format."
)
_KICKOFF = "Score the candidates now, in the required format."


class MalformedDecisionError(ValueError):
    """The scoring reply is missing a SCORES line for some ego state."""


def render_decision_prompt(
    candidates: Sequence[EgoResponse],
    history: tuple[tuple[str, str], ...],
    opening_prompt: str,
    life_script: str,
    agent: str,
) -> list[ChatMessage]:
    """Build the scoring prompt: situation, history, verbatim life script, and
    the three candidates in fixed Parent, Adult, Child order."""
    if not _covers_each_ego_once(c.ego_state for c in candidates):
        raise ValueError("candidates must cover all three ego states exactly once")
    by_ego = {c.ego_state: c for c in candidates}
    blocks = [
        f"{ego.value} ({by_ego[ego].emotion}, {by_ego[ego].tone}): {by_ego[ego].text}"
        for ego in EGO_ORDER
    ]
    system = templates.load("decision").format(
        agent=agent,
        situation=opening_prompt,
        history=render_history(history),
        life_script=life_script,
        candidates="\n".join(blocks),
    )
    return [ChatMessage(Role.SYSTEM, system), ChatMessage(Role.USER, _KICKOFF)]


def parse_scores(raw: str) -> tuple[EgoScores, str]:
    """Extract the three SCORES lines and the RATIONALE from a scoring reply.

    Out-of-range integers, however many digits long, clamp to [0, 10] with
    a logged warning. A missing SCORES line for any ego state raises
    MalformedDecisionError; a missing RATIONALE degrades to an empty string.
    """
    scores: dict[EgoState, CriterionScores] = {}
    rationale = ""
    for line in raw.splitlines():
        m = _SCORES_RE.match(line)
        if m:
            ego = EgoState(m.group(1))
            if ego not in scores:
                scores[ego] = CriterionScores(
                    relevance=_clamp(m.group(2), ego, "relevance"),
                    progress=_clamp(m.group(3), ego, "progress"),
                    social_appropriateness=_clamp(m.group(4), ego, "social"),
                    script_alignment=_clamp(m.group(5), ego, "script"),
                )
            continue
        if line.startswith("RATIONALE:") and not rationale:
            rationale = line[len("RATIONALE:"):].strip()
    missing = [ego.value for ego in EGO_ORDER if ego not in scores]
    if missing:
        raise MalformedDecisionError(f"missing SCORES line for {', '.join(missing)}")
    return EgoScores(*(scores[ego] for ego in EGO_ORDER)), rationale


def _clamp(text: str, ego: EgoState, criterion: str) -> int:
    """The integer ``text`` clamped to [0, 10], with a logged warning when it
    is out of range. It is read by its sign and first three significant
    digits, which tell any value past 99 from one in range however long it
    is."""
    significant = text.lstrip("-").lstrip("0")
    value = int(significant[:3] or "0") * (-1 if text[0] == "-" else 1)
    if 0 <= value <= 10:
        return value
    clamped = min(10, max(0, value))
    logger.warning(
        "decision score out of range: %s %s=%s clamped to %d", ego.value, criterion, text, clamped
    )
    return clamped


def decide(
    candidates: Sequence[EgoResponse],
    history: tuple[tuple[str, str], ...],
    opening_prompt: str,
    life_script: str,
    weights: DecisionWeights,
    agent: str,
    provider,
    run_log: RunLog,
) -> DecisionRecord:
    """One full decision round for turn ``len(history)``: prompt, score, select.

    A malformed scoring reply earns one retry with an error note; a second
    failure falls back to the Adult state (all-zero scores keep the record
    consistent with the selection rule) with a logged "decision fallback"
    rationale.
    """
    turn = len(history)
    caller = CallerInfo(agent=agent, role="decision", turn=turn)
    messages = render_decision_prompt(candidates, history, opening_prompt, life_script, agent)
    scores: EgoScores | None = None
    rationale = ""
    for attempt in range(2):
        raw = complete_logged(provider, messages, caller, run_log)
        try:
            scores, rationale = parse_scores(raw)
            break
        except MalformedDecisionError as e:
            run_log.record(
                "decision_malformed", agent=agent, turn=turn, attempt=attempt, error=str(e)
            )
            logger.warning("malformed decision reply for %s turn %d: %s", agent, turn, e)
            messages = messages + [
                ChatMessage(Role.ASSISTANT, raw),
                ChatMessage(Role.USER, _RETRY_NOTE),
            ]
    if scores is None:
        scores = _ZERO_SCORES
        rationale = FALLBACK_RATIONALE
        logger.warning("decision fallback to Adult for %s turn %d", agent, turn)
    chosen = select_ego(scores, weights)
    run_log.record("decision", agent=agent, turn=turn, chosen=chosen.value)
    return DecisionRecord(
        scores=scores, weights=weights, chosen=chosen, rationale=rationale, human=False
    )
