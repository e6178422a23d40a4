"""Shared domain types, scenario/transcript validation, and canonical serialization.

Everything here is an immutable value object: construct once, share freely.
Scenario-side types (profiles, personas, memories) tolerate invalid data at
construction so that files can be loaded first and checked with
``validate_scenario``; transcript-side types (utterances, transcripts) enforce
their internal consistency immediately because only the engine builds them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Any, Mapping


class EgoState(Enum):
    """The three ego-state labels; no other value is representable."""

    PARENT = "Parent"
    ADULT = "Adult"
    CHILD = "Child"

    def __str__(self) -> str:
        return self.value


#: Canonical presentation order for anything listed per ego state.
EGO_ORDER: tuple[EgoState, EgoState, EgoState] = (
    EgoState.PARENT,
    EgoState.ADULT,
    EgoState.CHILD,
)

#: Tie-break priority for decision selection (reality-testing state first).
TIE_BREAK_ORDER: tuple[EgoState, EgoState, EgoState] = (
    EgoState.ADULT,
    EgoState.PARENT,
    EgoState.CHILD,
)


class TerminationReason(Enum):
    MAX_TURNS = "MaxTurns"
    PROVIDER_STOP = "ProviderStop"


class ScenarioFormatError(ValueError):
    """Scenario document cannot be parsed into a ScenarioConfig."""


class TranscriptFormatError(ValueError):
    """Transcript document is malformed or internally inconsistent."""


@dataclass(frozen=True)
class MemoryRecord:
    """One stored memory: ``context`` is the searchable key, the rest is payload."""

    id: str
    context: str
    reaction: str
    emotions: tuple[str, ...]
    tone: str
    ego_state: EgoState


@dataclass(frozen=True)
class EgoPersona:
    ego_state: EgoState
    descriptor: str
    memories: tuple[MemoryRecord, ...] = ()


@dataclass(frozen=True)
class AgentProfile:
    name: str
    life_script: str
    personas: tuple[EgoPersona, ...] = ()

    def persona(self, ego: EgoState) -> EgoPersona:
        for p in self.personas:
            if p.ego_state is ego:
                return p
        raise KeyError(f"{self.name} has no {ego.value} persona")


@dataclass(frozen=True)
class DecisionWeights:
    """Non-negative weights over the four decision criteria, summing to 1."""

    relevance: float = 0.25
    progress: float = 0.25
    social_appropriateness: float = 0.25
    script_alignment: float = 0.25

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ScenarioConfig:
    agents: tuple[AgentProfile, ...]
    opening_prompt: str
    first_speaker: str
    k: int = 3
    tool_budget: int = 5
    max_turns: int = 10
    seed: int = 0
    decision_weights: DecisionWeights = field(default_factory=DecisionWeights)

    def agent(self, name: str) -> AgentProfile:
        for a in self.agents:
            if a.name == name:
                return a
        raise KeyError(f"no agent named {name!r}")

    def other_agent(self, name: str) -> AgentProfile:
        for a in self.agents:
            if a.name != name:
                return a
        raise KeyError("scenario has no second agent")


@dataclass(frozen=True)
class CriterionScores:
    """Integer 0..10 marks on the four decision criteria."""

    relevance: int
    progress: int
    social_appropriateness: int
    script_alignment: int

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or not 0 <= v <= 10:
                raise ValueError(f"{f.name} must be an integer in [0, 10], got {v!r}")


def select_ego(
    scores: Mapping[EgoState, CriterionScores], weights: DecisionWeights
) -> EgoState:
    """Return the ego state with the highest weighted total.

    Ties break by the fixed order Adult > Parent > Child. Pure function; the
    same rule is used when decisions are made and when transcripts are audited.
    """
    if any(w < 0 for w in weights.as_dict().values()):
        raise ValueError("weights must be non-negative")
    if abs(sum(weights.as_dict().values()) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    best: EgoState | None = None
    best_total = float("-inf")
    for ego in TIE_BREAK_ORDER:
        s = scores[ego]
        total = (
            weights.relevance * s.relevance
            + weights.progress * s.progress
            + weights.social_appropriateness * s.social_appropriateness
            + weights.script_alignment * s.script_alignment
        )
        if total > best_total:
            best, best_total = ego, total
    assert best is not None
    return best


@dataclass(frozen=True)
class DecisionRecord:
    """Scores, weights, and the chosen ego state for one decision step.

    ``chosen`` must equal ``select_ego(scores, weights)``; the engine
    constructs it that way and transcript parsing re-checks it.
    """

    scores: Mapping[EgoState, CriterionScores]
    weights: DecisionWeights
    chosen: EgoState
    rationale: str
    human: bool = False


@dataclass(frozen=True)
class EgoResponse:
    """One ego state's candidate reply for a turn."""

    ego_state: EgoState
    text: str
    emotion: str
    tone: str
    memories_used: tuple[str, ...] = ()
    searches_performed: int = 0

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("candidate text must be non-empty")
        if self.searches_performed < 0:
            raise ValueError("searches_performed must be non-negative")


@dataclass(frozen=True)
class RetrievalEvent:
    """One memory search: who queried, with what, and what came back."""

    ego_state: EgoState
    query: str
    hit_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hit_ids) != len(self.scores):
            raise ValueError("hit_ids and scores must be the same length")


@dataclass(frozen=True)
class Utterance:
    turn: int
    speaker: str
    chosen_ego: EgoState
    text: str
    candidates: tuple[EgoResponse, ...]
    decision: DecisionRecord
    retrieval_log: tuple[RetrievalEvent, ...] = ()

    def __post_init__(self) -> None:
        egos = [c.ego_state for c in self.candidates]
        if sorted(e.value for e in egos) != sorted(e.value for e in EGO_ORDER):
            raise ValueError("candidates must cover all three ego states exactly once")
        chosen = next(c for c in self.candidates if c.ego_state is self.chosen_ego)
        if chosen.text != self.text:
            raise ValueError("utterance text must equal the chosen candidate's text")

    def candidate(self, ego: EgoState) -> EgoResponse:
        return next(c for c in self.candidates if c.ego_state is ego)


@dataclass(frozen=True)
class ProviderId:
    """Provenance triple recorded into every transcript."""

    kind: str
    model: str
    embedder: str


@dataclass(frozen=True)
class Transcript:
    scenario_fingerprint: str
    provider: ProviderId
    seed: int
    utterances: tuple[Utterance, ...]
    termination_reason: TerminationReason | None

    def __post_init__(self) -> None:
        speakers = []
        for i, u in enumerate(self.utterances):
            if u.turn != i:
                raise ValueError(f"turn indices must be contiguous from 0, got {u.turn} at {i}")
            speakers.append(u.speaker)
        for a, b in zip(speakers, speakers[1:]):
            if a == b:
                raise ValueError(f"speakers must alternate; {a!r} spoke twice in a row")
        if len(set(speakers)) > 2:
            raise ValueError("a transcript has at most two speakers")


@dataclass(frozen=True)
class Violation:
    """One scenario rule breach, located by a path such as

    ``agents[Jordan].personas[Child].memories[3].context``.
    """

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def validate_scenario(cfg: ScenarioConfig) -> list[Violation]:
    """Check every scenario invariant; an empty list means the config is runnable.

    Violations are data, not exceptions: all of them are collected in one pass
    so a config file can be fixed wholesale.
    """
    out: list[Violation] = []

    def bad(path: str, message: str) -> None:
        out.append(Violation(path, message))

    if len(cfg.agents) != 2:
        bad("agents", f"exactly 2 agents required, got {len(cfg.agents)}")

    names = [a.name for a in cfg.agents]
    for i, agent in enumerate(cfg.agents):
        # Locators use the agent's name unless it is blank or ambiguous.
        key = agent.name if agent.name.strip() and names.count(agent.name) == 1 else str(i)
        if not agent.name.strip():
            bad(f"agents[{key}].name", "agent name must be non-empty")
        elif names.index(agent.name) != i:
            bad(f"agents[{key}].name", f"duplicate agent name {agent.name!r}")
        if not agent.life_script.strip():
            bad(f"agents[{key}].life_script", "life script must be non-empty")
        out.extend(_validate_personas(agent, key))

    if not cfg.opening_prompt.strip():
        bad("opening_prompt", "opening prompt must be non-empty")
    if cfg.first_speaker not in names:
        bad("first_speaker", f"{cfg.first_speaker!r} does not name a scenario agent")
    if cfg.k < 1:
        bad("k", "retrieval fan-out k must be >= 1")
    if cfg.tool_budget < 1:
        bad("tool_budget", "tool budget must be >= 1")
    if cfg.max_turns < 1:
        bad("max_turns", "max_turns must be >= 1")
    if cfg.seed < 0:
        bad("seed", "seed must be a non-negative integer")

    w = cfg.decision_weights.as_dict()
    if any(v < 0 for v in w.values()):
        bad("decision_weights", "weights must be non-negative")
    elif abs(sum(w.values()) - 1.0) > 1e-9:
        bad("decision_weights", f"weights must sum to 1, got {sum(w.values())!r}")

    return out


def _validate_personas(agent: AgentProfile, agent_key: str) -> list[Violation]:
    out: list[Violation] = []
    have = [p.ego_state for p in agent.personas]
    if sorted(e.value for e in have) != sorted(e.value for e in EGO_ORDER):
        out.append(
            Violation(
                f"agents[{agent_key}].personas",
                "exactly one persona required per ego state "
                f"(found {[e.value for e in have]})",
            )
        )
    for persona in agent.personas:
        base = f"agents[{agent_key}].personas[{persona.ego_state.value}]"
        ids: set[str] = set()
        for j, rec in enumerate(persona.memories):
            loc = f"{base}.memories[{j}]"
            if not rec.context.strip():
                out.append(Violation(f"{loc}.context", "memory context must be non-empty"))
            if not rec.emotions:
                out.append(Violation(f"{loc}.emotions", "at least one emotion label required"))
            if rec.ego_state is not persona.ego_state:
                out.append(
                    Violation(
                        f"{loc}.ego_state",
                        f"record belongs to {rec.ego_state.value}, "
                        f"persona is {persona.ego_state.value}",
                    )
                )
            if rec.id in ids:
                out.append(Violation(f"{loc}.id", f"duplicate memory id {rec.id!r} in partition"))
            ids.add(rec.id)
    return out


# ---------------------------------------------------------------------------
# Canonical serialization.
#
# Scenario and transcript files are UTF-8 JSON. The canonical form is
# json.dumps with sorted keys, two-space indent, and a trailing newline;
# lists keep their order (order is meaningful and participates in hashing).
# ---------------------------------------------------------------------------


def canonical_json(tree: Any) -> str:
    """Render a JSON tree in the canonical byte form used for hashing and files."""
    return json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _record_tree(rec: MemoryRecord) -> dict[str, Any]:
    return {
        "id": rec.id,
        "context": rec.context,
        "reaction": rec.reaction,
        "emotions": list(rec.emotions),
        "tone": rec.tone,
        "ego_state": rec.ego_state.value,
    }


def scenario_to_tree(cfg: ScenarioConfig) -> dict[str, Any]:
    return {
        "agents": [
            {
                "name": a.name,
                "life_script": a.life_script,
                "personas": [
                    {
                        "ego_state": p.ego_state.value,
                        "descriptor": p.descriptor,
                        "memories": [_record_tree(r) for r in p.memories],
                    }
                    for p in a.personas
                ],
            }
            for a in cfg.agents
        ],
        "opening_prompt": cfg.opening_prompt,
        "first_speaker": cfg.first_speaker,
        "k": cfg.k,
        "tool_budget": cfg.tool_budget,
        "max_turns": cfg.max_turns,
        "seed": cfg.seed,
        "decision_weights": cfg.decision_weights.as_dict(),
    }


def serialize_scenario(cfg: ScenarioConfig) -> str:
    return canonical_json(scenario_to_tree(cfg))


class _TreeReader:
    """Strict walker over a parsed JSON tree with located error messages."""

    def __init__(self, kind: str) -> None:
        self.error = ScenarioFormatError if kind == "scenario" else TranscriptFormatError

    def obj(
        self, node: Any, where: str, keys: set[str], optional: frozenset[str] = frozenset()
    ) -> dict[str, Any]:
        if not isinstance(node, dict):
            raise self.error(f"{where}: expected an object")
        unknown = set(node) - keys - optional
        if unknown:
            raise self.error(f"{where}: unknown keys {sorted(unknown)}")
        missing = keys - set(node)
        if missing:
            raise self.error(f"{where}: missing keys {sorted(missing)}")
        return node

    def text(self, node: Any, where: str) -> str:
        if not isinstance(node, str):
            raise self.error(f"{where}: expected a string")
        return node

    def integer(self, node: Any, where: str) -> int:
        if not isinstance(node, int) or isinstance(node, bool):
            raise self.error(f"{where}: expected an integer")
        return node

    def number(self, node: Any, where: str) -> float:
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            raise self.error(f"{where}: expected a number")
        return float(node)

    def array(self, node: Any, where: str) -> list[Any]:
        if not isinstance(node, list):
            raise self.error(f"{where}: expected an array")
        return node

    def ego(self, node: Any, where: str) -> EgoState:
        label = self.text(node, where)
        try:
            return EgoState(label)
        except ValueError:
            raise self.error(f"{where}: unknown ego state {label!r}") from None


def _parse_record(r: _TreeReader, node: Any, where: str) -> MemoryRecord:
    obj = r.obj(node, where, {"id", "context", "reaction", "emotions", "tone", "ego_state"})
    return MemoryRecord(
        id=r.text(obj["id"], f"{where}.id"),
        context=r.text(obj["context"], f"{where}.context"),
        reaction=r.text(obj["reaction"], f"{where}.reaction"),
        emotions=tuple(
            r.text(e, f"{where}.emotions[{i}]") for i, e in enumerate(r.array(obj["emotions"], f"{where}.emotions"))
        ),
        tone=r.text(obj["tone"], f"{where}.tone"),
        ego_state=r.ego(obj["ego_state"], f"{where}.ego_state"),
    )


def _parse_weights(r: _TreeReader, node: Any, where: str) -> DecisionWeights:
    keys = {"relevance", "progress", "social_appropriateness", "script_alignment"}
    obj = r.obj(node, where, keys)
    return DecisionWeights(**{k: r.number(obj[k], f"{where}.{k}") for k in keys})


def scenario_from_tree(tree: Any) -> ScenarioConfig:
    r = _TreeReader("scenario")
    keys = {
        "agents",
        "opening_prompt",
        "first_speaker",
        "k",
        "tool_budget",
        "max_turns",
        "seed",
    }
    # The weights block is optional and defaults to equal weighting.
    obj = r.obj(tree, "scenario", keys, optional=frozenset({"decision_weights"}))
    agents = []
    for i, a in enumerate(r.array(obj["agents"], "agents")):
        where = f"agents[{i}]"
        ao = r.obj(a, where, {"name", "life_script", "personas"})
        personas = []
        for j, p in enumerate(r.array(ao["personas"], f"{where}.personas")):
            pw = f"{where}.personas[{j}]"
            po = r.obj(p, pw, {"ego_state", "descriptor", "memories"})
            personas.append(
                EgoPersona(
                    ego_state=r.ego(po["ego_state"], f"{pw}.ego_state"),
                    descriptor=r.text(po["descriptor"], f"{pw}.descriptor"),
                    memories=tuple(
                        _parse_record(r, m, f"{pw}.memories[{n}]")
                        for n, m in enumerate(r.array(po["memories"], f"{pw}.memories"))
                    ),
                )
            )
        agents.append(
            AgentProfile(
                name=r.text(ao["name"], f"{where}.name"),
                life_script=r.text(ao["life_script"], f"{where}.life_script"),
                personas=tuple(personas),
            )
        )
    if "decision_weights" in obj:
        weights = _parse_weights(r, obj["decision_weights"], "decision_weights")
    else:
        weights = DecisionWeights()
    return ScenarioConfig(
        agents=tuple(agents),
        opening_prompt=r.text(obj["opening_prompt"], "opening_prompt"),
        first_speaker=r.text(obj["first_speaker"], "first_speaker"),
        k=r.integer(obj["k"], "k"),
        tool_budget=r.integer(obj["tool_budget"], "tool_budget"),
        max_turns=r.integer(obj["max_turns"], "max_turns"),
        seed=r.integer(obj["seed"], "seed"),
        decision_weights=weights,
    )


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document; raises ScenarioFormatError on malformed input."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioFormatError(f"not valid JSON: {e}") from e
    return scenario_from_tree(tree)


def fingerprint_scenario(cfg: ScenarioConfig) -> str:
    """Stable content hash of a scenario: SHA-256 over its canonical bytes."""
    return hashlib.sha256(serialize_scenario(cfg).encode("utf-8")).hexdigest()


def _candidate_tree(c: EgoResponse) -> dict[str, Any]:
    return {
        "ego_state": c.ego_state.value,
        "text": c.text,
        "emotion": c.emotion,
        "tone": c.tone,
        "memories_used": list(c.memories_used),
        "searches_performed": c.searches_performed,
    }


def transcript_to_tree(t: Transcript) -> dict[str, Any]:
    return {
        "scenario_fingerprint": t.scenario_fingerprint,
        "provider": {
            "kind": t.provider.kind,
            "model": t.provider.model,
            "embedder": t.provider.embedder,
        },
        "seed": t.seed,
        "utterances": [
            {
                "turn": u.turn,
                "speaker": u.speaker,
                "chosen_ego": u.chosen_ego.value,
                "text": u.text,
                "candidates": [_candidate_tree(c) for c in u.candidates],
                "decision": {
                    "scores": {
                        ego.value: {
                            "relevance": s.relevance,
                            "progress": s.progress,
                            "social_appropriateness": s.social_appropriateness,
                            "script_alignment": s.script_alignment,
                        }
                        for ego, s in sorted(u.decision.scores.items(), key=lambda kv: kv[0].value)
                    },
                    "weights": u.decision.weights.as_dict(),
                    "chosen": u.decision.chosen.value,
                    "rationale": u.decision.rationale,
                    "human": u.decision.human,
                },
                "retrieval_log": [
                    {
                        "ego_state": ev.ego_state.value,
                        "query": ev.query,
                        "hits": list(ev.hit_ids),
                        "scores": list(ev.scores),
                    }
                    for ev in u.retrieval_log
                ],
            }
            for u in t.utterances
        ],
        "termination_reason": t.termination_reason.value if t.termination_reason else None,
    }


def serialize_transcript(t: Transcript) -> str:
    """Canonical transcript document: parse(serialize(t)) == t, injective over valid transcripts."""
    return canonical_json(transcript_to_tree(t))


def transcript_from_tree(tree: Any) -> Transcript:
    r = _TreeReader("transcript")
    obj = r.obj(
        tree,
        "transcript",
        {"scenario_fingerprint", "provider", "seed", "utterances", "termination_reason"},
    )
    prov = r.obj(obj["provider"], "provider", {"kind", "model", "embedder"})
    utterances = []
    for i, u in enumerate(r.array(obj["utterances"], "utterances")):
        where = f"utterances[{i}]"
        uo = r.obj(
            u,
            where,
            {"turn", "speaker", "chosen_ego", "text", "candidates", "decision", "retrieval_log"},
        )
        candidates = []
        for j, c in enumerate(r.array(uo["candidates"], f"{where}.candidates")):
            cw = f"{where}.candidates[{j}]"
            co = r.obj(
                c,
                cw,
                {"ego_state", "text", "emotion", "tone", "memories_used", "searches_performed"},
            )
            try:
                candidates.append(
                    EgoResponse(
                        ego_state=r.ego(co["ego_state"], f"{cw}.ego_state"),
                        text=r.text(co["text"], f"{cw}.text"),
                        emotion=r.text(co["emotion"], f"{cw}.emotion"),
                        tone=r.text(co["tone"], f"{cw}.tone"),
                        memories_used=tuple(
                            r.text(m, f"{cw}.memories_used[{n}]")
                            for n, m in enumerate(r.array(co["memories_used"], f"{cw}.memories_used"))
                        ),
                        searches_performed=r.integer(
                            co["searches_performed"], f"{cw}.searches_performed"
                        ),
                    )
                )
            except ValueError as e:
                raise TranscriptFormatError(f"{cw}: {e}") from e
        do = r.obj(
            uo["decision"], f"{where}.decision", {"scores", "weights", "chosen", "rationale", "human"}
        )
        scores_obj = r.obj(
            do["scores"], f"{where}.decision.scores", {e.value for e in EGO_ORDER}
        )
        scores = {}
        for ego in EGO_ORDER:
            sw = f"{where}.decision.scores.{ego.value}"
            so = r.obj(
                scores_obj[ego.value],
                sw,
                {"relevance", "progress", "social_appropriateness", "script_alignment"},
            )
            try:
                scores[ego] = CriterionScores(
                    relevance=r.integer(so["relevance"], f"{sw}.relevance"),
                    progress=r.integer(so["progress"], f"{sw}.progress"),
                    social_appropriateness=r.integer(
                        so["social_appropriateness"], f"{sw}.social_appropriateness"
                    ),
                    script_alignment=r.integer(so["script_alignment"], f"{sw}.script_alignment"),
                )
            except ValueError as e:
                raise TranscriptFormatError(f"{sw}: {e}") from e
        if not isinstance(do["human"], bool):
            raise TranscriptFormatError(f"{where}.decision.human: expected a boolean")
        try:
            weights = _parse_weights(r, do["weights"], f"{where}.decision.weights")
            decision = DecisionRecord(
                scores=scores,
                weights=weights,
                chosen=r.ego(do["chosen"], f"{where}.decision.chosen"),
                rationale=r.text(do["rationale"], f"{where}.decision.rationale"),
                human=do["human"],
            )
            if select_ego(scores, weights) is not decision.chosen:
                raise TranscriptFormatError(
                    f"{where}.decision.chosen: inconsistent with recomputed weighted argmax"
                )
        except ValueError as e:
            if isinstance(e, TranscriptFormatError):
                raise
            raise TranscriptFormatError(f"{where}.decision: {e}") from e
        events = []
        for j, ev in enumerate(r.array(uo["retrieval_log"], f"{where}.retrieval_log")):
            ew = f"{where}.retrieval_log[{j}]"
            eo = r.obj(ev, ew, {"ego_state", "query", "hits", "scores"})
            events.append(
                RetrievalEvent(
                    ego_state=r.ego(eo["ego_state"], f"{ew}.ego_state"),
                    query=r.text(eo["query"], f"{ew}.query"),
                    hit_ids=tuple(
                        r.text(h, f"{ew}.hits[{n}]") for n, h in enumerate(r.array(eo["hits"], f"{ew}.hits"))
                    ),
                    scores=tuple(
                        r.number(s, f"{ew}.scores[{n}]")
                        for n, s in enumerate(r.array(eo["scores"], f"{ew}.scores"))
                    ),
                )
            )
        try:
            utterances.append(
                Utterance(
                    turn=r.integer(uo["turn"], f"{where}.turn"),
                    speaker=r.text(uo["speaker"], f"{where}.speaker"),
                    chosen_ego=r.ego(uo["chosen_ego"], f"{where}.chosen_ego"),
                    text=r.text(uo["text"], f"{where}.text"),
                    candidates=tuple(candidates),
                    decision=decision,
                    retrieval_log=tuple(events),
                )
            )
        except ValueError as e:
            raise TranscriptFormatError(f"{where}: {e}") from e

    reason_node = obj["termination_reason"]
    reason: TerminationReason | None
    if reason_node is None:
        reason = None
    else:
        label = r.text(reason_node, "termination_reason")
        try:
            reason = TerminationReason(label)
        except ValueError:
            raise TranscriptFormatError(f"termination_reason: unknown value {label!r}") from None

    try:
        return Transcript(
            scenario_fingerprint=r.text(obj["scenario_fingerprint"], "scenario_fingerprint"),
            provider=ProviderId(
                kind=r.text(prov["kind"], "provider.kind"),
                model=r.text(prov["model"], "provider.model"),
                embedder=r.text(prov["embedder"], "provider.embedder"),
            ),
            seed=r.integer(obj["seed"], "seed"),
            utterances=tuple(utterances),
            termination_reason=reason,
        )
    except ValueError as e:
        if isinstance(e, TranscriptFormatError):
            raise
        raise TranscriptFormatError(str(e)) from e


def parse_transcript(text: str) -> Transcript:
    """Parse a transcript document; raises TranscriptFormatError on malformed input."""
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        raise TranscriptFormatError(f"not valid JSON: {e}") from e
    return transcript_from_tree(tree)


def transcript_hash(t: Transcript) -> str:
    """SHA-256 over the canonical transcript bytes; the replay-equality check."""
    return hashlib.sha256(serialize_transcript(t).encode("utf-8")).hexdigest()
