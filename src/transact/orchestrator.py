"""Drives the conversation: alternating turns of three ego runs plus a decision.

Each turn the current speaker's Parent, Adult, and Child run their retrieval
loops over that speaker's own memory partitions, a decision round picks one
candidate, and only the chosen text enters the shared history. Agents never
see each other's life scripts, memories, or losing candidates.
"""

from __future__ import annotations

import logging
from typing import Callable, Mapping, Sequence

from .core import (
    DecisionRecord,
    EGO_ORDER,
    EgoResponse,
    EgoState,
    ProviderId,
    ScenarioConfig,
    TerminationReason,
    Transcript,
    Utterance,
    Violation,
    _zero_scores,
    fingerprint_scenario,
    validate_scenario,
)
from .decision import decide
from .ego_agent import EgoTurnContext, run_ego_turn
from .memory import Embedder, MemoryIndex, build_index
from .provider import ProviderStopSignal
from .runlog import RunLog

logger = logging.getLogger(__name__)

PartitionKey = tuple[str, EgoState]

HUMAN_RATIONALE = "human input"


class InvalidScenarioError(ValueError):
    """run_simulation was handed a config that validate_scenario rejects."""

    def __init__(self, violations: list[Violation]) -> None:
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


class SimulationError(RuntimeError):
    """A turn failed mid-run; carries the partial transcript (no termination reason)."""

    def __init__(self, message: str, transcript: Transcript, cause: Exception) -> None:
        super().__init__(message)
        self.transcript = transcript
        self.cause = cause


def build_indices(cfg: ScenarioConfig, embedder: Embedder) -> dict[PartitionKey, MemoryIndex]:
    """Build all six partition indices."""
    indices: dict[PartitionKey, MemoryIndex] = {}
    for agent in cfg.agents:
        for persona in agent.personas:
            indices[(agent.name, persona.ego_state)] = build_index(
                persona.memories, embedder, agent=agent.name, ego_state=persona.ego_state
            )
    return indices


def _speaker_at(cfg: ScenarioConfig, turn: int) -> str:
    """The first speaker takes turn 0; the two agents alternate after that."""
    first = cfg.first_speaker
    return first if turn % 2 == 0 else cfg.other_agent(first).name


def step_turn(
    cfg: ScenarioConfig,
    utterances: Sequence[Utterance],
    provider,
    embedder: Embedder,
    indices: Mapping[PartitionKey, MemoryIndex],
    run_log: RunLog,
) -> Utterance:
    """Run the next turn, ``len(utterances)``, and return its utterance.

    The speaker follows from the turn number. The three ego turns run in
    EGO_ORDER and share only immutable context. ``utterances`` is not changed.
    """
    turn = len(utterances)
    if turn >= cfg.max_turns:
        raise ValueError(f"turn {turn} has reached max_turns")
    agent = cfg.agent(_speaker_at(cfg, turn))
    history = tuple((u.speaker, u.text) for u in utterances)

    outcomes = []
    for ego in EGO_ORDER:
        ctx = EgoTurnContext(
            agent=agent.name,
            turn=turn,
            opening_prompt=cfg.opening_prompt,
            history=history,
            descriptor=agent.persona(ego).descriptor,
            tool_budget=cfg.tool_budget,
            k=cfg.k,
        )
        outcomes.append(
            run_ego_turn(ctx, ego, indices[(agent.name, ego)], provider, embedder, run_log)
        )

    candidates = tuple(o.response for o in outcomes)
    decision = decide(
        candidates,
        history,
        cfg.opening_prompt,
        agent.life_script,
        cfg.decision_weights,
        agent.name,
        turn,
        provider,
        run_log,
    )
    chosen_text = next(c.text for c in candidates if c.ego_state is decision.chosen)
    utterance = Utterance(
        turn=turn,
        speaker=agent.name,
        chosen_ego=decision.chosen,
        text=chosen_text,
        candidates=candidates,
        decision=decision,
        retrieval_log=tuple(ev for o in outcomes for ev in o.retrieval),
    )
    run_log.record(
        "utterance", turn=turn, speaker=agent.name, chosen=decision.chosen.value,
        malformed_steps=sum(o.malformed_steps for o in outcomes),
    )
    return utterance


def _human_turn(
    cfg: ScenarioConfig,
    utterances: Sequence[Utterance],
    input_fn: Callable[[str], str],
    run_log: RunLog,
) -> Utterance:
    """Read one line as the human-played agent's utterance for the next turn.

    The schema stays uniform: the typed line becomes all three candidates,
    the decision is a synthetic all-zero record flagged human=true, and the
    chosen ego is Adult (consistent with the selection tie-break).
    """
    turn = len(utterances)
    speaker = _speaker_at(cfg, turn)
    while True:
        line = input_fn(f"{speaker}> ")  # EOFError propagates to the run loop
        text = line.strip()
        if text:
            break
    candidates = tuple(
        EgoResponse(ego_state=ego, text=text, emotion="unspecified", tone="unspecified")
        for ego in EGO_ORDER
    )
    decision = DecisionRecord(
        scores=_zero_scores(),
        weights=cfg.decision_weights,
        chosen=EgoState.ADULT,
        rationale=HUMAN_RATIONALE,
        human=True,
    )
    utterance = Utterance(
        turn=turn,
        speaker=speaker,
        chosen_ego=EgoState.ADULT,
        text=text,
        candidates=candidates,
        decision=decision,
        retrieval_log=(),
    )
    run_log.record("utterance", turn=turn, speaker=speaker, chosen="Adult", human=True)
    return utterance


def run_simulation(
    cfg: ScenarioConfig,
    provider,
    embedder: Embedder,
    *,
    run_log: RunLog | None = None,
    human_agent: str | None = None,
    input_fn: Callable[[str], str] | None = None,
    on_utterance: Callable[[Utterance], None] | None = None,
) -> Transcript:
    """Run a whole scenario and return its transcript.

    Stops at max_turns (MaxTurns) or when the provider layer raises
    ProviderStopSignal (ProviderStop, e.g. end of interactive input). Any
    other mid-run failure raises SimulationError carrying the partial
    transcript with no termination reason.
    """
    violations = validate_scenario(cfg)
    if violations:
        raise InvalidScenarioError(violations)
    if human_agent is not None:
        cfg.agent(human_agent)  # KeyError for an unknown name
        if input_fn is None:
            raise ValueError("human_agent requires an input_fn")

    log = run_log or RunLog()
    fingerprint = fingerprint_scenario(cfg)
    indices = build_indices(cfg, embedder)
    provider_id = ProviderId(kind=provider.kind, model=provider.model, embedder=embedder.id)
    utterances: list[Utterance] = []

    def snapshot(reason: TerminationReason | None) -> Transcript:
        return Transcript(
            scenario_fingerprint=fingerprint,
            provider=provider_id,
            seed=cfg.seed,
            utterances=tuple(utterances),
            termination_reason=reason,
        )

    while len(utterances) < cfg.max_turns:
        turn = len(utterances)
        speaker = _speaker_at(cfg, turn)
        log.record("turn_start", turn=turn, speaker=speaker)
        try:
            if speaker == human_agent:
                utterance = _human_turn(cfg, utterances, input_fn, log)
            else:
                utterance = step_turn(cfg, utterances, provider, embedder, indices, log)
            # Kept before the callback, so a stop raised there keeps this turn.
            utterances.append(utterance)
            if on_utterance is not None:
                on_utterance(utterance)
        except (ProviderStopSignal, EOFError):
            logger.info("provider layer stopped the run at turn %d", turn)
            return snapshot(TerminationReason.PROVIDER_STOP)
        except Exception as e:
            raise SimulationError(
                f"turn {turn} ({speaker}) failed: {e}", snapshot(None), e
            ) from e
    return snapshot(TerminationReason.MAX_TURNS)
