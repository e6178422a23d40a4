"""Drives the conversation: alternating turns of three ego runs plus a decision.

Each turn the current speaker's Parent, Adult, and Child run their retrieval
loops over that speaker's own memory partitions, a decision round picks one
candidate, and only the chosen text enters the shared history. Agents never
see each other's life scripts, memories, or losing candidates.
"""

from __future__ import annotations

import logging
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import nullcontext
from functools import partial
from typing import Callable, Mapping, Sequence, TypeVar

from .core import (
    DecisionRecord,
    EGO_ORDER,
    EgoResponse,
    EgoState,
    ProviderId,
    RetrievalEvent,
    ScenarioConfig,
    TerminationReason,
    Transcript,
    Utterance,
    Violation,
    _ZERO_SCORES,
    fingerprint_scenario,
    select_ego,
    validate_scenario,
)
from .decision import decide
from .ego_agent import UNSPECIFIED, EgoTurnContext, run_ego_turn
from .memory import Embedder, MemoryIndex, build_index
from .provider import ProviderStopSignal
from .runlog import RunLog

logger = logging.getLogger(__name__)

T = TypeVar("T")

PartitionKey = tuple[str, EgoState]

HUMAN_RATIONALE = "human input"


class InvalidScenarioError(ValueError):
    """run_simulation was handed a config that validate_scenario rejects, text
    that UTF-8 cannot encode included; raised before any index build or call."""

    def __init__(self, violations: list[Violation]) -> None:
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = violations


class SimulationError(RuntimeError):
    """The index build or a turn failed; carries the partial transcript (no
    termination reason), with no utterance if the build failed. The failure
    is its ``__cause__``."""

    def __init__(self, message: str, transcript: Transcript) -> None:
        super().__init__(message)
        self.transcript = transcript


def _gather(executor: Executor | None, jobs: Sequence[Callable[[], T]]) -> list[T]:
    """Each job's result, in job order.

    Without an executor the jobs run one after another on this thread. With
    one they run concurrently, and every job finishes before the first
    failure, in job order, is raised.
    """
    if executor is None:
        return [job() for job in jobs]
    futures = [executor.submit(job) for job in jobs]
    wait(futures)
    return [f.result() for f in futures]


def build_indices(
    cfg: ScenarioConfig, embedder: Embedder, executor: Executor | None = None
) -> dict[PartitionKey, MemoryIndex]:
    """Build all six partition indices, concurrently on ``executor`` if given,
    each keyed by its own ``(agent, ego_state)``."""
    jobs = [
        partial(build_index, p.memories, embedder, agent=agent.name, ego_state=p.ego_state)
        for agent in cfg.agents for p in agent.personas
    ]
    return {(index.agent, index.ego_state): index for index in _gather(executor, jobs)}


def _speaker_at(cfg: ScenarioConfig, turn: int) -> str:
    """The first speaker takes turn 0; the two agents alternate after that."""
    first = cfg.first_speaker
    return first if turn % 2 == 0 else cfg.other_agent(first).name


def _utterance(
    turn: int, speaker: str, candidates: tuple[EgoResponse, ...], decision: DecisionRecord,
    run_log: RunLog, retrieval_log: tuple[RetrievalEvent, ...] = (), **event_fields: object,
) -> Utterance:
    """The turn's utterance, with the text of the candidate the decision chose.
    Its ``utterance`` event is recorded with ``event_fields`` added."""
    chosen = decision.chosen
    text = next(c.text for c in candidates if c.ego_state is chosen)
    utterance = Utterance(turn, speaker, chosen, text, candidates, decision, retrieval_log)
    run_log.record("utterance", turn=turn, speaker=speaker, chosen=chosen.value, **event_fields)
    return utterance


def step_turn(
    cfg: ScenarioConfig,
    utterances: Sequence[Utterance],
    provider,
    indices: Mapping[PartitionKey, MemoryIndex],
    run_log: RunLog,
    executor: Executor | None = None,
) -> Utterance:
    """Run the next turn, ``len(utterances)``, and return its utterance.

    The speaker follows from the turn number. The three ego turns share only
    immutable context and each records into its own log. They run in
    EGO_ORDER, or concurrently on ``executor`` if given; either way their
    events are appended to ``run_log`` in EGO_ORDER once they have finished,
    so the log reads as a sequential run's would, and the first failure in
    EGO_ORDER is raised. ``utterances`` is not changed.
    """
    turn = len(utterances)
    if turn >= cfg.max_turns:
        raise ValueError(f"turn {turn} has reached max_turns")
    agent = cfg.agent(_speaker_at(cfg, turn))
    history = tuple((u.speaker, u.text) for u in utterances)

    ego_logs = [RunLog() for _ in EGO_ORDER]
    jobs = [
        partial(
            run_ego_turn,
            EgoTurnContext(
                opening_prompt=cfg.opening_prompt,
                history=history,
                descriptor=agent.persona(ego).descriptor,
                tool_budget=cfg.tool_budget,
                k=cfg.k,
            ),
            indices[(agent.name, ego)],
            provider,
            ego_log,
        )
        for ego, ego_log in zip(EGO_ORDER, ego_logs)
    ]
    try:
        outcomes = _gather(executor, jobs)
    finally:
        for ego_log in ego_logs:
            run_log.extend(ego_log)

    candidates = tuple(o.response for o in outcomes)
    decision = decide(
        candidates,
        history,
        cfg.opening_prompt,
        agent.life_script,
        cfg.decision_weights,
        agent.name,
        provider,
        run_log,
    )
    return _utterance(
        turn, agent.name, candidates, decision, run_log,
        retrieval_log=tuple(ev for o in outcomes for ev in o.retrieval),
        malformed_steps=sum(o.malformed_steps for o in outcomes),
    )


def _human_turn(
    cfg: ScenarioConfig,
    utterances: Sequence[Utterance],
    input_fn: Callable[[str], str],
    run_log: RunLog,
) -> Utterance:
    """Read one line as the human-played agent's utterance for the next turn.

    The schema stays uniform: the typed line becomes all three candidates,
    with unspecified emotion and tone, and the decision is an all-zero record
    flagged human=true whose choice ``select_ego`` makes, as for any decision.
    """
    turn = len(utterances)
    speaker = _speaker_at(cfg, turn)
    while True:
        line = input_fn(f"{speaker}> ")  # EOFError propagates to the run loop
        text = line.strip()
        if text:
            break
    candidates = tuple(
        EgoResponse(ego_state=ego, text=text, emotion=UNSPECIFIED, tone=UNSPECIFIED)
        for ego in EGO_ORDER
    )
    decision = DecisionRecord(
        scores=_ZERO_SCORES,
        weights=cfg.decision_weights,
        chosen=select_ego(_ZERO_SCORES, cfg.decision_weights),
        rationale=HUMAN_RATIONALE,
        human=True,
    )
    return _utterance(turn, speaker, candidates, decision, run_log, human=True)


def run_simulation(
    cfg: ScenarioConfig,
    provider,
    embedder: Embedder,
    *,
    run_log: RunLog | None = None,
    human_agent: str | None = None,
    input_fn: Callable[[str], str] = input,
    on_utterance: Callable[[Utterance], None] | None = None,
) -> Transcript:
    """Run a whole scenario and return its transcript.

    Stops at max_turns (MaxTurns), or with ProviderStop when a turn or
    ``on_utterance`` raises ProviderStopSignal or the human player's input
    ends (``input_fn``, ``input`` by default, raises EOFError). Any other
    failure, in the index build or in a turn, raises SimulationError
    carrying the partial transcript with no termination reason.
    """
    violations = validate_scenario(cfg)
    if violations:
        raise InvalidScenarioError(violations)
    if human_agent is not None:
        cfg.agent(human_agent)  # KeyError for an unknown name

    log = run_log or RunLog()
    fingerprint = fingerprint_scenario(cfg)
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

    # Over the network the index builds and a turn's ego states spend their
    # time waiting on round trips, so they overlap, one worker per partition.
    # Scripted runs are pure Python under the GIL: threads only slow them.
    partitions = sum(len(agent.personas) for agent in cfg.agents)
    with (
        ThreadPoolExecutor(partitions, thread_name_prefix="transact-partition")
        if provider.kind == "http"
        else nullcontext()
    ) as pool:
        try:
            indices = build_indices(cfg, embedder, pool)
        except Exception as e:
            raise SimulationError(f"index build failed: {e}", snapshot(None)) from e
        while len(utterances) < cfg.max_turns:
            turn = len(utterances)
            speaker = _speaker_at(cfg, turn)
            log.record("turn_start", turn=turn, speaker=speaker)
            try:
                if speaker == human_agent:
                    utterance = _human_turn(cfg, utterances, input_fn, log)
                else:
                    utterance = step_turn(cfg, utterances, provider, indices, log, pool)
                # Kept before the callback, so a stop raised there keeps this turn.
                utterances.append(utterance)
                if on_utterance is not None:
                    on_utterance(utterance)
            except (ProviderStopSignal, EOFError):
                logger.info("provider layer stopped the run at turn %d", turn)
                return snapshot(TerminationReason.PROVIDER_STOP)
            except Exception as e:
                raise SimulationError(f"turn {turn} ({speaker}) failed: {e}", snapshot(None)) from e
    return snapshot(TerminationReason.MAX_TURNS)
