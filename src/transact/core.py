"""Shared domain types, scenario/transcript validation, and canonical serialization.

Everything here is an immutable value object: construct once, share freely.
Scenario-side types (profiles, personas, memories) tolerate invalid data at
construction so that files can be loaded first and checked with
``validate_scenario``; transcript-side types (decision records, utterances,
transcripts) enforce their internal consistency immediately because only the
engine builds them. A ``DecisionRecord`` checks that ``chosen`` is the
weighted argmax of its scores.
"""

from __future__ import annotations

import collections.abc
import functools
import hashlib
import json
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from types import UnionType
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints


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
    decision_weights: DecisionWeights = field(
        default_factory=DecisionWeights, metadata={"optional": True}
    )

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
    if not abs(sum(weights.as_dict().values()) - 1.0) <= 1e-9:  # also rejects NaN
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

    ``chosen`` must equal ``select_ego(scores, weights)``; construction
    raises ValueError otherwise, so every parsed transcript is re-checked.
    """

    scores: Mapping[EgoState, CriterionScores]
    weights: DecisionWeights
    chosen: EgoState
    rationale: str
    human: bool = False

    def __post_init__(self) -> None:
        if select_ego(self.scores, self.weights) is not self.chosen:
            raise ValueError("chosen is inconsistent with the recomputed weighted argmax")


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
    hit_ids: tuple[str, ...] = field(metadata={"json_key": "hits"})
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
    elif not abs(sum(w.values()) - 1.0) <= 1e-9:  # also rejects NaN
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
#
# A record's JSON object is its dataclass fields, read and written by one
# codec derived from the field types. Field metadata marks the exceptions:
# "json_key" renames a key and "optional" lets a key be absent.
# ---------------------------------------------------------------------------


def canonical_json(tree: Any) -> str:
    """Render a JSON tree in the canonical byte form used for hashing and files."""
    return json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


class _CodecError(Exception):
    """A read failure inside a document, located as the exception unwinds.

    Each enclosing array or object appends its ``[index]`` or ``.key`` to
    ``path`` (innermost first), so no location is formatted unless a read fails.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str] = []

    def located(self, root: str) -> str:
        where = "".join(reversed(self.path)).lstrip(".")
        return f"{where or root}: {self}"


_Reader = Callable[[Any], Any]
_Writer = Callable[[Any], Any]

_SCALAR_NOUNS = {str: "a string", int: "an integer", bool: "a boolean"}


def _as_is(value: Any) -> Any:
    return value


def _exact_reader(tp: type, noun: str) -> _Reader:
    def read(node: Any) -> Any:
        if type(node) is not tp:
            raise _CodecError(f"expected {noun}")
        return node

    return read


def _read_float(node: Any) -> float:
    if type(node) is float:
        return node
    if type(node) is int:
        return float(node)
    raise _CodecError("expected a number")


def _check_object(node: Any, keys: set[str], required: set[str]) -> None:
    if type(node) is not dict:
        raise _CodecError("expected an object")
    if node.keys() != keys:
        unknown = node.keys() - keys
        if unknown:
            raise _CodecError(f"unknown keys {sorted(unknown)}")
        missing = required - node.keys()
        if missing:
            raise _CodecError(f"missing keys {sorted(missing)}")


@functools.cache
def _codec(tp: Any) -> tuple[_Reader, _Writer]:
    """The (reader, writer) pair for one annotated type.

    A reader checks a parsed JSON tree strictly and builds the value; a writer
    turns the value back into a JSON tree. Scalars are checked by exact type
    (a float field also takes an int), enums are stored by value, ``X | None``
    allows null, ``tuple[X, ...]`` is an array, ``Mapping[E, X]`` over an enum
    is an object with exactly one key per member, and a dataclass is an object
    with exactly its field keys.
    """
    origin, args = get_origin(tp), get_args(tp)
    if tp in _SCALAR_NOUNS:
        return _exact_reader(tp, _SCALAR_NOUNS[tp]), _as_is
    if tp is float:
        return _read_float, _as_is
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _enum_codec(tp)
    if isinstance(tp, type) and is_dataclass(tp):
        return _record_codec(tp)
    if origin is UnionType and len(args) == 2 and type(None) in args:
        return _optional_codec(next(a for a in args if a is not type(None)))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _tuple_codec(args[0])
    if origin is collections.abc.Mapping and issubclass(args[0], Enum):
        return _mapping_codec(args[0], args[1])
    raise TypeError(f"no JSON codec for {tp!r}")


def _enum_codec(tp: type[Enum]) -> tuple[_Reader, _Writer]:
    members = {m.value: m for m in tp}

    def read(node: Any) -> Enum:
        try:
            return members[node]
        except (KeyError, TypeError):
            raise _CodecError(f"expected one of {sorted(members)}, got {node!r}") from None

    return read, {m: m.value for m in tp}.__getitem__


def _optional_codec(inner: Any) -> tuple[_Reader, _Writer]:
    read_inner, write_inner = _codec(inner)

    def read(node: Any) -> Any:
        return None if node is None else read_inner(node)

    def write(value: Any) -> Any:
        return None if value is None else write_inner(value)

    return read, write


def _tuple_codec(item: Any) -> tuple[_Reader, _Writer]:
    read_item, write_item = _codec(item)

    def read(node: Any) -> tuple[Any, ...]:
        if type(node) is not list:
            raise _CodecError("expected an array")
        out = []
        for i, x in enumerate(node):
            try:
                out.append(read_item(x))
            except _CodecError as e:
                e.path.append(f"[{i}]")
                raise
        return tuple(out)

    if write_item is _as_is:
        return read, list
    return read, lambda value: list(map(write_item, value))


def _mapping_codec(key_type: type[Enum], value_type: Any) -> tuple[_Reader, _Writer]:
    read_value, write_value = _codec(value_type)
    keys = {m.value for m in key_type}

    def read(node: Any) -> dict[Enum, Any]:
        _check_object(node, keys, keys)
        out = {}
        for member in key_type:
            try:
                out[member] = read_value(node[member.value])
            except _CodecError as e:
                e.path.append(f".{member.value}")
                raise
        return out

    def write(value: Mapping[Enum, Any]) -> dict[str, Any]:
        return {k.value: write_value(v) for k, v in value.items()}

    return read, write


def _record_codec(cls: type) -> tuple[_Reader, _Writer]:
    hints = get_type_hints(cls)
    specs = []  # (field name, JSON key, reader)
    converted = []  # (JSON key, writer) for fields not stored as they are
    required = set()
    for f in fields(cls):
        key = f.metadata.get("json_key", f.name)
        read_field, write_field = _codec(hints[f.name])
        specs.append((f.name, key, read_field))
        if write_field is not _as_is:
            converted.append((key, write_field))
        if not f.metadata.get("optional"):
            required.add(key)
    json_keys = [key for _, key, _ in specs]
    keys = set(json_keys)
    get_values = operator.attrgetter(*(name for name, _, _ in specs))

    def read(node: Any) -> Any:
        _check_object(node, keys, required)
        kwargs = {}
        for name, key, read_field in specs:
            if key in node:  # absent only when optional: the field default applies
                try:
                    kwargs[name] = read_field(node[key])
                except _CodecError as e:
                    e.path.append(f".{key}")
                    raise
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise _CodecError(str(e)) from e

    def write(obj: Any) -> dict[str, Any]:
        tree = dict(zip(json_keys, get_values(obj)))
        for key, write_field in converted:
            tree[key] = write_field(tree[key])
        return tree

    return read, write


def _read_document(tp: type, text: str, error: type[ValueError], root: str) -> Any:
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"not valid JSON: {e}") from e
    try:
        return _codec(tp)[0](tree)
    except _CodecError as e:
        raise error(e.located(root)) from e


def scenario_to_tree(cfg: ScenarioConfig) -> dict[str, Any]:
    return _codec(ScenarioConfig)[1](cfg)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    return canonical_json(scenario_to_tree(cfg))


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document; raises ScenarioFormatError on malformed input."""
    return _read_document(ScenarioConfig, text, ScenarioFormatError, "scenario")


def fingerprint_scenario(cfg: ScenarioConfig) -> str:
    """Stable content hash of a scenario: SHA-256 over its canonical bytes."""
    return hashlib.sha256(serialize_scenario(cfg).encode("utf-8")).hexdigest()


def transcript_to_tree(t: Transcript) -> dict[str, Any]:
    return _codec(Transcript)[1](t)


def serialize_transcript(t: Transcript) -> str:
    """Canonical transcript document: parse(serialize(t)) == t, injective over valid transcripts."""
    return canonical_json(transcript_to_tree(t))


def parse_transcript(text: str) -> Transcript:
    """Parse a transcript document; raises TranscriptFormatError on malformed input."""
    return _read_document(Transcript, text, TranscriptFormatError, "transcript")


def transcript_hash(t: Transcript) -> str:
    """SHA-256 over the canonical transcript bytes; the replay-equality check."""
    return hashlib.sha256(serialize_transcript(t).encode("utf-8")).hexdigest()
