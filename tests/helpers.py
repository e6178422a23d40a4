"""Factories, fixture builders, and independent oracles shared by the tests.

The oracles here deliberately recompute results from definitions (full sorts,
exhaustive enumeration) rather than calling back into the code under test.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from hashlib import blake2b
from typing import Sequence

import pytest

from transact.core import (
    AgentProfile,
    CriterionScores,
    DecisionRecord,
    DecisionWeights,
    EGO_ORDER,
    EgoPersona,
    EgoResponse,
    EgoScores,
    EgoState,
    MemoryRecord,
    ProviderId,
    RetrievalEvent,
    ScenarioConfig,
    TerminationReason,
    Transcript,
    Utterance,
)
from transact.memory import MemoryIndex

WORDS = (
    "report budget ledger total figure error mistake deadline review meeting "
    "coffee garden bicycle holiday music river window journal sketch puzzle "
    "quarter summary entry column checksum audit invoice forecast margin risk"
).split()


# ---------------------------------------------------------------------------
# Scenario factories.
# ---------------------------------------------------------------------------


#: An integer literal of more digits than ``int()`` converts under Python's
#: default limit of 4,300, which Pythons before 3.10.7 do not have.
LONG_INTEGER = "9" * 5000
needs_int_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_INTEGER),
    reason="int() converts an integer of any length here",
)


def make_record(
    rid: str,
    ego: EgoState,
    context: str = "a mistake was found in the report",
    reaction: str = "I said something in character.",
    emotions: tuple[str, ...] = ("calm",),
    tone: str = "even",
) -> MemoryRecord:
    return MemoryRecord(
        id=rid, context=context, reaction=reaction, emotions=emotions, tone=tone, ego_state=ego
    )


def make_persona(ego: EgoState, agent: str, n_memories: int = 2) -> EgoPersona:
    memories = tuple(
        make_record(
            f"{agent.lower()}-{ego.value.lower()}-{i}",
            ego,
            context=f"{WORDS[i % len(WORDS)]} trouble number {i}",
        )
        for i in range(n_memories)
    )
    return EgoPersona(ego_state=ego, descriptor=f"the {ego.value} side of {agent}", memories=memories)


def make_agent(name: str, n_memories: int = 2) -> AgentProfile:
    return AgentProfile(
        name=name,
        life_script=f"{name} repeats an old pattern no matter the situation.",
        personas=tuple(make_persona(ego, name, n_memories) for ego in EGO_ORDER),
    )


def make_scenario(
    max_turns: int = 2,
    tool_budget: int = 5,
    k: int = 3,
    seed: int = 0,
    n_memories: int = 2,
    first_speaker: str = "Alex",
) -> ScenarioConfig:
    return ScenarioConfig(
        agents=(make_agent("Jordan", n_memories), make_agent("Alex", n_memories)),
        opening_prompt="Alex has found a crucial mistake in the financial report Jordan wrote.",
        first_speaker=first_speaker,
        k=k,
        tool_budget=tool_budget,
        max_turns=max_turns,
        seed=seed,
    )


def random_scenario(rng: random.Random) -> ScenarioConfig:
    names = rng.sample(["Jordan", "Alex", "Sam", "Robin", "Kit", "Noor"], 2)
    agents = tuple(make_agent(name, n_memories=rng.randint(0, 4)) for name in names)
    raw = [rng.random() + 0.01 for _ in range(4)]
    total = sum(raw)
    weights = DecisionWeights(*(w / total for w in raw))
    return ScenarioConfig(
        agents=agents,
        opening_prompt=" ".join(rng.sample(WORDS, 5)),
        first_speaker=rng.choice(names),
        k=rng.randint(1, 4),
        tool_budget=rng.randint(1, 5),
        max_turns=rng.randint(1, 4),
        seed=rng.randint(0, 2**32 - 1),
        decision_weights=weights,
    )


# ---------------------------------------------------------------------------
# Scripted fixture builders (the completion grammar, assembled by hand).
# ---------------------------------------------------------------------------


def search_step(query: str, thought: str = "checking my memories") -> str:
    return f"Thought: {thought}\nAction: search_memories\nAction Input: {query}"


def final_step(text: str, emotion: str = "calm", tone: str = "even") -> str:
    return f"Final Answer:\nText: {text}\nEmotion: {emotion}\nTone: {tone}"


def scores_reply(
    winner: EgoState | None = None,
    rows: dict[EgoState, tuple[int, int, int, int]] | None = None,
    rationale: str = "picked by the test",
) -> str:
    if rows is None:
        rows = {ego: (5, 5, 5, 5) for ego in EGO_ORDER}
        if winner is not None:
            rows[winner] = (9, 9, 9, 9)
    lines = [
        f"SCORES {ego.value}: relevance={r} progress={p} social={s} script={c}"
        for ego, (r, p, s, c) in rows.items()
    ]
    lines.append(f"RATIONALE: {rationale}")
    return "\n".join(lines)


def simple_run_fixtures(
    cfg: ScenarioConfig,
    rng: random.Random | None = None,
    searches_per_ego: int = 1,
) -> list[tuple[str, str]]:
    """Enough fixture entries for a full run: each ego searches then answers,
    each turn ends with a well-formed decision reply."""
    rng = rng or random.Random(0)
    fixtures: list[tuple[str, str]] = []
    speaker = cfg.first_speaker
    for turn in range(cfg.max_turns):
        for ego in EGO_ORDER:
            for s in range(searches_per_ego):
                query = " ".join(rng.sample(WORDS, 3))
                fixtures.append((f"{speaker}/{ego.value}", search_step(query)))
            fixtures.append(
                (
                    f"{speaker}/{ego.value}",
                    final_step(f"{speaker} speaking as {ego.value} on turn {turn}."),
                )
            )
        winner = rng.choice(EGO_ORDER)
        fixtures.append((f"{speaker}/decision", scores_reply(winner)))
        speaker = next(a.name for a in cfg.agents if a.name != speaker)
    return fixtures


# ---------------------------------------------------------------------------
# Transcript factory.
# ---------------------------------------------------------------------------


def make_candidates(rng: random.Random, turn: int) -> tuple[EgoResponse, ...]:
    return tuple(
        EgoResponse(
            ego_state=ego,
            text=f"line {turn} from {ego.value}: " + " ".join(rng.sample(WORDS, 3)),
            emotion=rng.choice(["calm", "panic", "stern", "warm"]),
            tone=rng.choice(["even", "helpless", "cold", "bright"]),
            memories_used=tuple(f"m{rng.randint(0, 9)}" for _ in range(rng.randint(0, 3))),
            searches_performed=rng.randint(0, 5),
        )
        for ego in EGO_ORDER
    )


def random_decision(rng: random.Random) -> DecisionRecord:
    from transact.core import select_ego

    scores = EgoScores(
        *(CriterionScores(*(rng.randint(0, 10) for _ in range(4))) for _ in EGO_ORDER)
    )
    raw = [rng.random() + 0.01 for _ in range(4)]
    total = sum(raw)
    weights = DecisionWeights(*(w / total for w in raw))
    return DecisionRecord(
        scores=scores,
        weights=weights,
        chosen=select_ego(scores, weights),
        rationale=" ".join(rng.sample(WORDS, 4)),
        human=False,
    )


def random_transcript(rng: random.Random, max_utterances: int = 4) -> Transcript:
    speakers = rng.sample(["Jordan", "Alex", "Sam", "Robin"], 2)
    first = rng.randint(0, 1)
    utterances = []
    for turn in range(rng.randint(0, max_utterances)):
        candidates = make_candidates(rng, turn)
        decision = random_decision(rng)
        chosen = decision.chosen
        def rand_event() -> RetrievalEvent:
            n = rng.randint(0, 3)
            return RetrievalEvent(
                ego_state=rng.choice(EGO_ORDER),
                query=" ".join(rng.sample(WORDS, 2)),
                hit_ids=tuple(f"m{i}" for i in range(n)),
                scores=tuple(sorted((rng.uniform(-1, 1) for _ in range(n)), reverse=True)),
            )

        events = tuple(rand_event() for _ in range(rng.randint(0, 2)))
        utterances.append(
            Utterance(
                turn=turn,
                speaker=speakers[(first + turn) % 2],
                chosen_ego=chosen,
                text=next(c.text for c in candidates if c.ego_state is chosen),
                candidates=candidates,
                decision=decision,
                retrieval_log=events,
            )
        )
    return Transcript(
        scenario_fingerprint=f"{rng.getrandbits(256):064x}",
        provider=ProviderId(kind="scripted", model="scripted", embedder="hash-v1-256"),
        seed=rng.randint(0, 2**32 - 1),
        utterances=tuple(utterances),
        termination_reason=rng.choice([TerminationReason.MAX_TURNS, TerminationReason.PROVIDER_STOP, None]),
    )


def assert_run_log_ends_in_failed_turn(path, turn: int) -> None:
    """The ``.log`` of a run that failed at ``turn`` shows that turn start and
    every earlier turn's utterance, but no utterance for ``turn``."""
    events = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    starts = [e["turn"] for e in events if e["kind"] == "turn_start"]
    uttered = [e["turn"] for e in events if e["kind"] == "utterance"]
    assert starts == list(range(turn + 1))
    assert uttered == list(range(turn))


def drop_first_score(tree: dict) -> str:
    """Remove one score from the first retrieval event that has any, so its
    hits and scores differ in length; return that event's location."""
    for i, u in enumerate(tree["utterances"]):
        for j, event in enumerate(u["retrieval_log"]):
            if event["scores"]:
                event["scores"].pop()
                return f"utterances[{i}].retrieval_log[{j}]"
    raise AssertionError("transcript has no retrieval event with hits")


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------


def cosine_oracle(a: Sequence[float], b: Sequence[float]) -> float:
    # Exactly rounded sums: the definitional value of the cosine formula.
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return max(-1.0, min(1.0, dot / (na * nb)))


def hash_embed_oracle(text: str, dim: int) -> tuple[float, ...]:
    """The hash embedding by its definition, dense: a count per bucket for all
    ``dim`` buckets, then division by the ``fsum`` norm of all ``dim`` squares.
    All zeros for a text with no token."""
    counts = [0.0] * dim
    for token in re.findall(r"[^\W_]+", text.lower()):
        digest = blake2b(token.encode("utf-8"), digest_size=8, key=b"transact-hash-embed-v1")
        counts[int.from_bytes(digest.digest(), "big") % dim] += 1.0
    norm = math.sqrt(math.fsum(c * c for c in counts))
    return tuple(c / norm if c else 0.0 for c in counts)


def search_oracle(idx: MemoryIndex, query: str, k: int, embedder) -> list[tuple[str, float]]:
    """Score every entry with the definitional cosine, fully sort, slice to k."""
    q = embedder.embed(query)
    scored = [
        (rec.id, cosine_oracle(q.values, vec.values)) for rec, vec in idx.entries
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def select_oracle(scores: EgoScores, weights: DecisionWeights) -> EgoState:
    """Enumerate all three totals, find the max, then apply the tie-break."""
    w = (
        weights.relevance,
        weights.progress,
        weights.social_appropriateness,
        weights.script_alignment,
    )
    totals = {
        ego: sum(
            wi * si
            for wi, si in zip(
                w,
                (s.relevance, s.progress, s.social_appropriateness, s.script_alignment),
            )
        )
        for ego, s in zip(EGO_ORDER, (scores.parent, scores.adult, scores.child))
    }
    best = max(totals.values())
    for ego in (EgoState.ADULT, EgoState.PARENT, EgoState.CHILD):
        if totals[ego] == best:
            return ego
    raise AssertionError("unreachable")


def loops_oracle(seq, min_repetitions: int = 2, max_period: int = 6):
    """Exhaustive loop detector: test every (start, end, period) triple directly.

    An interval [i, j] is p-periodic when seq[t] == seq[t + p] for every t in
    [i, j - p]; it is reported when maximal (extending either end breaks
    periodicity) and it holds at least min_repetitions whole repetitions.
    Smaller-period candidates over the same or a wider span suppress larger
    ones. Returns (period, pattern, repetitions, span) tuples.
    """
    n = len(seq)

    def periodic(i: int, j: int, p: int) -> bool:
        return all(seq[t] == seq[t + p] for t in range(i, j - p + 1))

    candidates = []
    for p in range(1, max_period + 1):
        for i in range(n):
            for j in range(i + p, n):
                if not periodic(i, j, p):
                    continue
                if i > 0 and periodic(i - 1, j, p):
                    continue
                if j + 1 < n and periodic(i, j + 1, p):
                    continue
                reps = (j - i + 1) // p
                if reps >= min_repetitions:
                    candidates.append((p, tuple(seq[i : i + p]), reps, (i, j)))
    reports = [
        c
        for c in candidates
        if not any(
            d[0] < c[0] and d[3][0] <= c[3][0] and d[3][1] >= c[3][1] for d in candidates
        )
    ]
    reports.sort(key=lambda r: (r[3][0], r[0]))
    return reports
