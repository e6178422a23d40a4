"""One ego state's turn: a ReAct loop over the memory-search tool.

The loop is line-oriented and budgeted. Each completion parses into a step;
searches run against the ego's own memory partition and come back as
Observation blocks in a cumulative scratchpad. A hard budget caps searches,
one malformed step earns one retry, and every path ends in a final answer
within ``tool_budget + 2`` provider calls.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import templates
from .core import EgoResponse, RetrievalEvent
from .memory import MemoryIndex, search_top_k
from .provider import CallerInfo, ChatMessage, Role, complete_logged
from .runlog import RunLog

logger = logging.getLogger(__name__)

NO_MEMORIES = "no memories found"
STOP_MARKERS = ("Observation:",)
UNSPECIFIED = "unspecified"

_BUDGET_EXHAUSTED_NOTE = "Search budget exhausted. Give your Final Answer now."
_MALFORMED_NOTE = (
    "Observation: that step was malformed. Action Input must carry a non-empty "
    "query. Search again correctly, or give your Final Answer."
)
_KICKOFF = "Take your turn now, following the protocol."
_EMPTY_FALLBACK = "(no response)"


class MalformedStepError(ValueError):
    """A search action without a usable Action Input line."""


@dataclass(frozen=True)
class SearchMemories:
    query: str
    thought: str | None  # the answer, should the spent budget force one here


@dataclass(frozen=True)
class FinalAnswer:
    text: str
    emotion: str
    tone: str


@dataclass(frozen=True)
class EgoTurnContext:
    """Everything one ego turn may see besides its memory partition, which
    names the agent and ego state. The life script is deliberately absent: it
    enters only at the decision step."""

    turn: int
    opening_prompt: str
    history: tuple[tuple[str, str], ...]  # (speaker, chosen text), oldest first
    descriptor: str
    tool_budget: int
    k: int


@dataclass(frozen=True)
class EgoTurnOutcome:
    response: EgoResponse
    retrieval: tuple[RetrievalEvent, ...]
    malformed_steps: int


def parse_react_step(raw: str) -> SearchMemories | FinalAnswer:
    """Parse one completion into a step.

    Grammar, all prefixes case-sensitive at start of line: an optional
    "Thought:" line; either "Action: search_memories" followed by
    "Action Input: <query>", or "Final Answer:" followed by "Text:",
    "Emotion:", "Tone:" lines (missing emotion or tone defaults to
    "unspecified"; a final answer with no text says the thought, else the raw
    text). Text with neither directive degrades gracefully to a final answer
    carrying the whole raw text.

    Raises MalformedStepError for a search action without an Action Input
    that holds a letter or digit: a query with none has nothing to search by.
    """
    lines = raw.splitlines()
    thought: str | None = None
    for line in lines:
        if line.startswith("Thought:"):
            thought = line[len("Thought:"):].strip()
            break
    for i, line in enumerate(lines):
        if line.startswith("Final Answer:"):
            text, emotion, tone = _parse_final_answer(lines, i)
            return FinalAnswer(text or thought or raw, emotion, tone)
        if line.startswith("Action:") and line[len("Action:"):].strip() == "search_memories":
            for later in lines[i + 1 :]:
                if later.startswith("Action Input:"):
                    query = later[len("Action Input:"):].strip()
                    if any(map(str.isalnum, query)):
                        return SearchMemories(query, thought)
                    break
            raise MalformedStepError(
                "Action: search_memories requires an Action Input with a letter or digit"
            )
    return FinalAnswer(raw, UNSPECIFIED, UNSPECIFIED)


def _parse_final_answer(lines: list[str], start: int) -> tuple[str, str, str]:
    inline = lines[start][len("Final Answer:"):].strip()
    text_parts: list[str] | None = None
    collecting = False
    emotion = ""
    tone = ""
    for line in lines[start + 1 :]:
        if line.startswith("Text:"):
            text_parts = [line[len("Text:"):].strip()]
            collecting = True
        elif line.startswith("Emotion:"):
            emotion = line[len("Emotion:"):].strip()
            collecting = False
        elif line.startswith("Tone:"):
            tone = line[len("Tone:"):].strip()
            collecting = False
        elif collecting:
            assert text_parts is not None
            text_parts.append(line)
    if text_parts is not None:
        text = "\n".join(text_parts).strip()
    else:
        # No Text: line; fall back to the inline remainder, then the bare block.
        body = [line for line in lines[start + 1 :] if not line.startswith(("Emotion:", "Tone:"))]
        text = inline or "\n".join(body).strip()
    return text, emotion or UNSPECIFIED, tone or UNSPECIFIED


def format_observation(hits: list) -> str:
    """Render search hits as a stable observation block.

    One numbered entry per hit with context / reaction / emotions / tone and
    the score to four decimals; no hits renders the literal "no memories
    found". Byte-stable for identical input.
    """
    if not hits:
        return NO_MEMORIES
    blocks = []
    for n, (rec, score) in enumerate(hits, start=1):
        blocks.append(
            f"{n}. context: {rec.context}\n"
            f"   reaction: {rec.reaction}\n"
            f"   emotions: {', '.join(rec.emotions)}\n"
            f"   tone: {rec.tone}\n"
            f"   score: {score:.4f}"
        )
    return "\n".join(blocks)


def render_history(history: tuple[tuple[str, str], ...]) -> str:
    if not history:
        return "(no conversation yet)"
    return "\n".join(f"{speaker}: {text}" for speaker, text in history)


def _system_prompt(ctx: EgoTurnContext, agent: str) -> str:
    return templates.load("ego_turn").format(
        agent=agent,
        descriptor=ctx.descriptor,
        situation=ctx.opening_prompt,
        history=render_history(ctx.history),
        budget=ctx.tool_budget,
        k=ctx.k,
    )


def run_ego_turn(
    ctx: EgoTurnContext, index: MemoryIndex, provider, run_log: RunLog
) -> EgoTurnOutcome:
    """Run the budgeted search-then-answer loop for the agent and ego state
    whose memory partition ``index`` holds.

    Searches hit only that partition. After ``tool_budget`` searches the
    prompt gains an exhaustion directive and any further search attempt is
    coerced into a final answer built from the best available draft. One
    malformed step per turn earns a retry observation; a second forces
    finalization. Always returns within ``tool_budget + 2`` provider calls.
    """
    agent, ego = index.agent, index.ego_state
    caller = CallerInfo(agent=agent, role=ego.value, turn=ctx.turn)
    messages: list[ChatMessage] = [
        ChatMessage(Role.SYSTEM, _system_prompt(ctx, agent)),
        ChatMessage(Role.USER, _KICKOFF),
    ]
    retrieval: list[RetrievalEvent] = []
    malformed = 0

    def record(action: str, **fields: object) -> None:
        run_log.record(
            "react_step", agent=agent, ego=ego.value, turn=ctx.turn,
            action=action, searches=len(retrieval), **fields,
        )

    def finish(text: str, emotion: str = UNSPECIFIED, tone: str = UNSPECIFIED) -> EgoTurnOutcome:
        response = EgoResponse(
            ego_state=ego,
            text=text.strip() or _EMPTY_FALLBACK,
            emotion=emotion,
            tone=tone,
            memories_used=tuple(dict.fromkeys(rid for e in retrieval for rid in e.hit_ids)),
            searches_performed=len(retrieval),
        )
        assert response.searches_performed <= ctx.tool_budget
        return EgoTurnOutcome(response, tuple(retrieval), malformed)

    for _ in range(ctx.tool_budget + 2):
        raw = complete_logged(provider, messages, caller, run_log, stop_markers=STOP_MARKERS)
        try:
            step = parse_react_step(raw)
        except MalformedStepError as e:
            malformed += 1
            record("malformed")
            if malformed >= 2:
                return finish(raw)
            logger.warning("malformed step for %s/%s: %s", agent, ego.value, e)
            messages.append(ChatMessage(Role.ASSISTANT, raw))
            messages.append(ChatMessage(Role.USER, _MALFORMED_NOTE))
            continue

        if isinstance(step, FinalAnswer):
            record("final_answer")
            return finish(step.text, step.emotion, step.tone)
        if len(retrieval) >= ctx.tool_budget:
            # Budget spent and the directive was ignored: coerce to an answer.
            record("coerced_final")
            return finish(step.thought or raw)

        hits = search_top_k(index, step.query, ctx.k)
        retrieval.append(
            RetrievalEvent(
                ego_state=ego,
                query=step.query,
                hit_ids=tuple(rec.id for rec, _ in hits),
                scores=tuple(score for _, score in hits),
            )
        )
        record("search", query=step.query, hits=len(hits))
        messages.append(ChatMessage(Role.ASSISTANT, raw))
        messages.append(ChatMessage(Role.USER, f"Observation:\n{format_observation(hits)}"))
        if len(retrieval) == ctx.tool_budget:
            messages.append(ChatMessage(Role.USER, _BUDGET_EXHAUSTED_NOTE))

    raise AssertionError("ego turn failed to finalize within tool_budget + 2 calls")
