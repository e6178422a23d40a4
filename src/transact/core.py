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

import functools
import hashlib
import json
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, Callable, Iterable, get_args, get_origin, get_type_hints


class EgoState(Enum):
    """The three ego-state labels; no other value is representable."""

    PARENT = "Parent"
    ADULT = "Adult"
    CHILD = "Child"


#: Canonical presentation order for anything listed per ego state.
EGO_ORDER: tuple[EgoState, EgoState, EgoState] = (
    EgoState.PARENT,
    EgoState.ADULT,
    EgoState.CHILD,
)


class TerminationReason(Enum):
    MAX_TURNS = "MaxTurns"
    PROVIDER_STOP = "ProviderStop"


class ScenarioFormatError(ValueError):
    """Scenario document cannot be parsed into a ScenarioConfig."""


class TranscriptFormatError(ValueError):
    """Transcript document is malformed or internally inconsistent."""


@dataclass(frozen=True, slots=True)
class MemoryRecord:
    """One stored memory: ``context`` is the searchable key, the rest is payload."""

    id: str
    context: str
    reaction: str
    emotions: tuple[str, ...]
    tone: str
    ego_state: EgoState


@dataclass(frozen=True, slots=True)
class EgoPersona:
    ego_state: EgoState
    descriptor: str
    memories: tuple[MemoryRecord, ...] = ()


@dataclass(frozen=True, slots=True)
class AgentProfile:
    name: str
    life_script: str
    personas: tuple[EgoPersona, ...] = ()

    def persona(self, ego: EgoState) -> EgoPersona:
        for p in self.personas:
            if p.ego_state is ego:
                return p
        raise KeyError(f"{self.name} has no {ego.value} persona")


@dataclass(frozen=True, slots=True)
class DecisionWeights:
    """Non-negative weights over the four decision criteria, summing to 1."""

    relevance: float = 0.25
    progress: float = 0.25
    social_appropriateness: float = 0.25
    script_alignment: float = 0.25

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _CRITERIA}


#: The four decision criteria, in field order: the fields of DecisionWeights
#: and of CriterionScores.
_CRITERIA = tuple(f.name for f in fields(DecisionWeights))


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CriterionScores:
    """Integer 0..10 marks on the four decision criteria."""

    relevance: int
    progress: int
    social_appropriateness: int
    script_alignment: int

    def __post_init__(self) -> None:
        for name in _CRITERIA:
            v = getattr(self, name)
            if type(v) is not int or not 0 <= v <= 10:
                raise ValueError(f"{name} must be an integer in [0, 10], got {v!r}")


def _covers_each_ego_once(egos: Iterable[EgoState]) -> bool:
    """True when ``egos`` holds each of the three ego states exactly once."""
    seen = list(egos)
    return len(seen) == len(EGO_ORDER) and set(seen) == _EGO_SET


_EGO_SET = frozenset(EGO_ORDER)


@dataclass(frozen=True, slots=True)
class EgoScores:
    """One decision's marks for each ego state's candidate."""

    parent: CriterionScores = field(metadata={"json_key": "Parent"})
    adult: CriterionScores = field(metadata={"json_key": "Adult"})
    child: CriterionScores = field(metadata={"json_key": "Child"})


#: All-zero marks for every ego state: ``select_ego`` then picks Adult.
_ZERO_SCORES = EgoScores(*[CriterionScores(0, 0, 0, 0)] * 3)


_WEIGHTS_SUM_FAULT = "weights must sum to 1"


def _weights_fault(weights: DecisionWeights) -> str | None:
    """The part of the decision-weights rule that ``weights`` break, or None."""
    values = weights.as_dict().values()
    if any(w < 0 for w in values):
        return "weights must be non-negative"
    if not abs(sum(values) - 1.0) <= 1e-9:  # also rejects NaN
        return _WEIGHTS_SUM_FAULT
    return None


def select_ego(scores: EgoScores, weights: DecisionWeights) -> EgoState:
    """Return the ego state with the highest weighted total.

    Ties break by the fixed order Adult > Parent > Child (the reality-testing
    state first). Pure function; the same rule is used when decisions are made
    and when transcripts are audited.
    """
    fault = _weights_fault(weights)
    if fault is not None:
        raise ValueError(fault)
    best: EgoState | None = None
    best_total = float("-inf")
    for ego, s in (
        (EgoState.ADULT, scores.adult),
        (EgoState.PARENT, scores.parent),
        (EgoState.CHILD, scores.child),
    ):
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


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """Scores, weights, and the chosen ego state for one decision step.

    ``chosen`` must equal ``select_ego(scores, weights)``; construction
    raises ValueError otherwise, so every parsed transcript is re-checked.
    """

    scores: EgoScores
    weights: DecisionWeights
    chosen: EgoState
    rationale: str
    human: bool = False

    def __post_init__(self) -> None:
        if select_ego(self.scores, self.weights) is not self.chosen:
            raise ValueError("chosen is inconsistent with the recomputed weighted argmax")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RetrievalEvent:
    """One memory search: who queried, with what, and what came back."""

    ego_state: EgoState
    query: str
    hit_ids: tuple[str, ...] = field(metadata={"json_key": "hits"})
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hit_ids) != len(self.scores):
            raise ValueError("hit_ids and scores must be the same length")


@dataclass(frozen=True, slots=True)
class Utterance:
    turn: int
    speaker: str
    chosen_ego: EgoState
    text: str
    candidates: tuple[EgoResponse, ...]
    decision: DecisionRecord
    retrieval_log: tuple[RetrievalEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.chosen_ego is not self.decision.chosen:
            raise ValueError("chosen_ego must equal the decision's chosen ego state")
        if not _covers_each_ego_once(c.ego_state for c in self.candidates):
            raise ValueError("candidates must cover all three ego states exactly once")
        chosen = next(c for c in self.candidates if c.ego_state is self.chosen_ego)
        if chosen.text != self.text:
            raise ValueError("utterance text must equal the chosen candidate's text")


@dataclass(frozen=True, slots=True)
class ProviderId:
    """Provenance triple recorded into every transcript."""

    kind: str
    model: str
    embedder: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Violation:
    """One scenario rule breach, located by a path such as

    ``agents[Jordan].personas[Child].memories[3].context``.
    """

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


#: A surrogate code point: a str can hold one alone, but UTF-8 cannot encode it.
_SURROGATE = re.compile("[\ud800-\udfff]")


def validate_scenario(cfg: ScenarioConfig) -> list[Violation]:
    """Check every scenario invariant; an empty list means the config is runnable.

    Violations are data, not exceptions: all of them are collected in one pass,
    each through ``bad``, so a config file can be fixed wholesale. Text that
    UTF-8 cannot encode, which only a config built in code can hold (parsing
    refuses it), is located at its field, or a memory's at its record.
    """
    out: list[Violation] = []

    def bad(path: str, message: str) -> None:
        out.append(Violation(path, message))

    def encodable(path: str, text: str) -> None:
        if not text.isascii() and _SURROGATE.search(text):
            bad(path, "text holds a surrogate code point, which UTF-8 cannot encode")

    if len(cfg.agents) != 2:
        bad("agents", f"exactly 2 agents required, got {len(cfg.agents)}")

    names = [a.name for a in cfg.agents]
    for i, agent in enumerate(cfg.agents):
        # Locators use the agent's name unless it is blank, ambiguous or unencodable.
        named = names.count(agent.name) == 1 and not _SURROGATE.search(agent.name)
        at = f"agents[{agent.name if named and agent.name.strip() else i}]"
        if not agent.name.strip():
            bad(f"{at}.name", "agent name must be non-empty")
        elif names.index(agent.name) != i:
            bad(f"{at}.name", f"duplicate agent name {agent.name!r}")
        encodable(f"{at}.name", agent.name)
        if not agent.life_script.strip():
            bad(f"{at}.life_script", "life script must be non-empty")
        encodable(f"{at}.life_script", agent.life_script)
        have = [p.ego_state for p in agent.personas]
        if not _covers_each_ego_once(have):
            bad(f"{at}.personas",
                f"exactly one persona required per ego state (found {[e.value for e in have]})")
        for n, persona in enumerate(agent.personas):
            # A persona whose ego state an earlier one holds is located by index.
            ego = persona.ego_state
            base = f"{at}.personas[{ego.value if have.index(ego) == n else n}]"
            encodable(f"{base}.descriptor", persona.descriptor)
            ids: set[str] = set()
            for j, rec in enumerate(persona.memories):
                loc = f"{base}.memories[{j}]"
                if not rec.context.strip():
                    bad(f"{loc}.context", "memory context must be non-empty")
                if not rec.emotions:
                    bad(f"{loc}.emotions", "at least one emotion label required")
                if rec.ego_state is not persona.ego_state:
                    bad(f"{loc}.ego_state", f"record belongs to {rec.ego_state.value}, "
                        f"persona is {persona.ego_state.value}")
                if rec.id in ids:
                    bad(f"{loc}.id", f"duplicate memory id {rec.id!r} in partition")
                ids.add(rec.id)
                texts = (rec.id, rec.context, rec.reaction, rec.tone, *rec.emotions)
                encodable(loc, "".join(texts))

    if not cfg.opening_prompt.strip():
        bad("opening_prompt", "opening prompt must be non-empty")
    encodable("opening_prompt", cfg.opening_prompt)
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

    fault = _weights_fault(cfg.decision_weights)
    if fault == _WEIGHTS_SUM_FAULT:
        bad("decision_weights", f"{fault}, got {sum(cfg.decision_weights.as_dict().values())!r}")
    elif fault is not None:
        bad("decision_weights", fault)

    return out


# ---------------------------------------------------------------------------
# Canonical serialization.
#
# Scenario and transcript files are UTF-8 JSON in one canonical form:
# json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n".
# Lists keep their order (order is meaningful and participates in hashing).
#
# A record's JSON object is its dataclass fields. Field metadata marks the
# exceptions: "json_key" renames a key and "optional" lets a key be absent.
#
# Each dataclass's reader and writer are compiled once, with exec, into one
# straight-line function each from its field specs, the way dataclasses
# builds __init__. The reader checks the key set once, checks every field in
# place (exact type, or an enum lookup by value), calls nested readers
# directly and builds the record positionally; a failure is located by the
# key of the field being read as the exception unwinds. The writer appends
# the fields in sorted key order, each '"key": ' head with its indent level's
# padding baked in (built once per level), and each leaf's text: a string or
# an int through its C text function, anything else through CPython's C
# encoder, which dispatches on the runtime type as json.dumps does (NaN,
# Infinity, ints in float fields, bools). Nested values call their writer.
#
# Arrays of scalars are read with one C-level check of the item types and
# copied whole; only when that check fails do the items go through the item
# reader, which raises at the failing [i]. Arrays of records are read through
# map, where the failing index is the number of items already read. An array
# of leaves is written by one C encoder call with its level's item separator
# (json.dumps with an indent runs the pure-Python encoder), an array of
# records one item per line.
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
_Writer = Callable[[Any, int, list[str]], None]  # (value, indent level, out)

_SCALAR_NOUNS = {str: "a string", int: "an integer", bool: "a boolean"}
_LEAF_TYPES = (*_SCALAR_NOUNS, float)


@functools.cache
def _leaf_encoder(level: int) -> Callable[[Any, int], Any]:
    """CPython's C JSON encoder, compact, separating the items of an array
    whose items sit at indent ``level``; a call returns the text in chunks."""
    # The arguments json.JSONEncoder.iterencode passes: markers (None: values
    # are acyclic), default, string encoder (ensure_ascii=False), indent,
    # key and item separators, sort_keys, skipkeys, allow_nan.
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
        ": ", ",\n" + "  " * level, True, False, True,
    )


_encode_leaf = _leaf_encoder(0)


class _Heads(dict):
    """What a non-empty object or array writes around its members, by indent
    level (built on first use): the opening bracket with the first member's
    head, each later head, and the closing bracket. A head is ``"key": `` in
    an object and empty in an array."""

    def __init__(self, brackets: str, heads: list[str]) -> None:
        super().__init__()
        self.brackets = brackets
        self.heads = heads

    def __missing__(self, level: int) -> tuple[str, ...]:
        pad = "\n" + "  " * (level + 1)
        first, *rest = self.heads
        text = self[level] = (
            self.brackets[0] + pad + first,
            *("," + pad + head for head in rest),
            pad[:-2] + self.brackets[1],
        )
        return text


def _head(key: Any) -> str:
    return json.dumps(key, ensure_ascii=False) + ": "


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
        try:
            return float(node)
        except OverflowError:
            raise _CodecError("number out of range for a float") from None
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
def _codec(tp: Any) -> tuple[_Reader, _Writer | None]:
    """The (reader, writer) pair for one annotated type.

    A reader checks a parsed JSON tree strictly and builds the value; a writer
    appends the value's canonical text at an indent level to a list of chunks,
    which the document joins once. Scalars are checked by exact type (a float
    field also takes an int) and have no writer: a record writes its scalar
    fields inline, and one C encoder call writes an array of scalars.
    ``tuple[X, ...]`` is an array, and a dataclass is an object with exactly
    its field keys. Enums, stored by value, and ``X | None``, which allows
    null, are record fields only: the record's own code reads and writes them.
    """
    origin, args = get_origin(tp), get_args(tp)
    if tp in _SCALAR_NOUNS:
        return _exact_reader(tp, _SCALAR_NOUNS[tp]), None
    if tp is float:
        return _read_float, None
    if isinstance(tp, type) and is_dataclass(tp):
        return _record_codec(tp)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _tuple_codec(args[0])
    raise TypeError(f"no JSON codec for {tp!r}")


def _tuple_codec(item: Any) -> tuple[_Reader, _Writer]:
    read_item, write_item = _codec(item)
    heads = _Heads("[]", ["", ""])

    def read(node: Any) -> tuple[Any, ...]:
        if type(node) is not list:
            raise _CodecError("expected an array")
        items: list[Any] = []
        try:
            items.extend(map(read_item, node))
        except _CodecError as e:
            e.path.append(f"[{len(items)}]")
            raise
        return tuple(items)

    def write(value: tuple[Any, ...], level: int, out: list[str]) -> None:
        if not value:
            out.append("[]")
            return
        opening, sep, closing = heads[level]
        if write_item is None:  # one C call renders "[a,<pad>b]"; the brackets' lines are added
            out += (opening, "".join(_leaf_encoder(level + 1)(value, 0))[1:-1], closing)
            return
        for x in value:
            out.append(opening)
            write_item(x, level + 1, out)
            opening = sep
        out.append(closing)

    return read, write


#: What the generated record code calls, besides its own per-field constants.
_RECORD_GLOBALS = {
    "_CodecError": _CodecError,
    "_check_object": _check_object,
    "_read_float": _read_float,
    "quote": json.encoder.encode_basestring,
    "int_text": int.__repr__,
    "join": "".join,
    "encode": _encode_leaf,
}


def _field_code(tp: Any, v: str, ns: dict[str, Any]) -> tuple[list[str], str | None]:
    """Code for a record field held in the local ``v``: the statements that check
    it when read (converting it in place), and the expression of its text when
    written, or None when the writer ``ns[v + "_write"]`` writes it."""
    leaf = f"join(encode({v}, 0))"
    if tp in _SCALAR_NOUNS:
        name, fast = tp.__name__, {str: "quote", int: "int_text"}.get(tp)
        fault = "expected " + _SCALAR_NOUNS[tp]
        check = f"if type({v}) is not {name}: raise _CodecError({fault!r})"
        return [check], f"({fast}({v}) if type({v}) is {name} else {leaf})" if fast else leaf
    if tp is float:
        return [f"if type({v}) is not float: {v} = _read_float({v})"], leaf
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = ns[v + "_members"] = {m.value: m for m in tp}
        ns[v + "_types"] = {type(value) for value in members}
        ns[v + "_texts"] = {value: json.dumps(value, ensure_ascii=False) for value in members}
        ns[v + "_fault"] = f"expected one of {sorted(members)}, got "
        return [
            f"if type({v}) not in {v}_types or {v} not in {v}_members:",
            f"    raise _CodecError({v}_fault + repr({v}))",
            f"{v} = {v}_members[{v}]",
        ], f"{v}_texts[{v}._value_]"
    args = get_args(tp)
    if get_origin(tp) is UnionType and len(args) == 2 and type(None) in args:
        checks, text = _field_code(next(a for a in args if a is not type(None)), v, ns)
        if text is None:
            raise TypeError(f"no JSON codec for {tp!r}")
        return [f"if {v} is not None:", *("    " + c for c in checks)], (
            f"('null' if {v} is None else {text})"
        )
    ns[v + "_read"], ns[v + "_write"] = _codec(tp)
    if get_origin(tp) is tuple and args[0] in _LEAF_TYPES:  # one C-level check of the items
        ns[v + "_items"] = frozenset({args[0]})
        return [
            f"if type({v}) is list and set(map(type, {v})) <= {v}_items: {v} = tuple({v})",
            f"else: {v} = {v}_read({v})",
        ], None
    return [f"{v} = {v}_read({v})"], None


def _record_codec(cls: type) -> tuple[_Reader, _Writer]:
    """Compile the reader and the writer of one dataclass (see the comment above)."""
    hints = get_type_hints(cls)
    specs = [(f, f.metadata.get("json_key", f.name), f"f{i}") for i, f in enumerate(fields(cls))]
    ns: dict[str, Any] = {
        **_RECORD_GLOBALS,
        "cls": cls,
        "keys": {key for _, key, _ in specs},
        "required": {key for f, key, _ in specs if not f.metadata.get("optional")},
    }
    code = {v: _field_code(hints[f.name], v, ns) for f, _, v in specs}

    read = [
        "def read(node):",
        "    if type(node) is not dict or node.keys() != keys:",
        "        _check_object(node, keys, required)",
        "    try:",
    ]
    for f, key, v in specs:
        lines = [f"{v} = node[{key!r}]", *code[v][0]]
        if key not in ns["required"]:  # absent: the field default applies
            ns[v + "_default"] = f.default_factory if f.default is MISSING else f.default
            default = f"{v}_default()" if f.default is MISSING else f"{v}_default"
            lines = [f"if {key!r} in node:", *("    " + x for x in lines), f"else: {v} = {default}"]
        read += ("        " + x for x in [f"at = {'.' + key!r}", *lines])
    read += [
        "    except _CodecError as e:",
        "        e.path.append(at)",
        "        raise",
        "    try:",
        f"        return cls({', '.join(v for _, _, v in specs)})",
        "    except ValueError as e:",
        "        raise _CodecError(str(e)) from e",
    ]

    written = sorted(specs, key=lambda spec: spec[1])
    ns["heads"] = _Heads("{}", [_head(key) for _, key, _ in written])
    write = ["def write(obj, level, out):", "    h = heads[level]"]
    chunks = ["h[0]"]
    for i, (f, _, v) in enumerate(written, 1):
        write.append(f"    {v} = obj.{f.name}")
        text = code[v][1]
        if text is None:
            write += [f"    out += ({', '.join(chunks)},)", f"    {v}_write({v}, level + 1, out)"]
            chunks = []
        else:
            chunks.append(text)
        chunks.append(f"h[{i}]")
    write.append(f"    out += ({', '.join(chunks)},)")

    exec(compile("\n".join(read + write), f"<{cls.__name__} codec>", "exec"), ns)
    return ns["read"], ns["write"]


#: Each escape in JSON text, an escaped backslash whole so matches keep in
#: step; a surrogate escape that is not a high one then a low one is captured.
_SURROGATE_ESCAPE = re.compile(
    r"\\(?:\\|u(?i:d[89ab][0-9a-f]{2})\\u(?i:d[c-f][0-9a-f]{2})|(u(?i:d[89a-f][0-9a-f]{2})))"
)

#: A JSON string whole, so digits in it are passed over, or a number, with its
#: integer digits, fraction and exponent captured.
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?')


def _long_integer_fault(text: str) -> json.JSONDecodeError:
    """The first integer in JSON ``text`` of more digits than ``int()``
    converts, located as a decode error is."""
    limit = sys.get_int_max_str_digits()
    at = next(
        m.start()
        for m in _STRING_OR_NUMBER.finditer(text)
        if m[1] and not (m[2] or m[3]) and len(m[1]) > limit
    )
    return json.JSONDecodeError(f"integer of more than {limit} digits", text, at)


def _read_document(tp: Any, text: str, error: type[ValueError], root: str) -> Any:
    """Parse ``text`` as a ``tp`` document whose faults are located from
    ``root``; every failure raises ``error``. An unpaired surrogate escape is
    refused: no UTF-8 file or hash can hold the string it makes."""
    lone = next((m for m in _SURROGATE_ESCAPE.finditer(text) if m[1]), None)
    if lone:
        fault = json.JSONDecodeError(f"unpaired surrogate escape \\{lone[1]}", text, lone.start())
        raise error(str(fault))
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"not valid JSON: {e}") from e
    except ValueError as e:  # an integer past int()'s digit limit
        raise error(f"not valid JSON: {_long_integer_fault(text)}") from e
    except RecursionError as e:
        raise error("not valid JSON: nested too deeply") from e
    try:
        return _codec(tp)[0](tree)
    except _CodecError as e:
        raise error(e.located(root)) from e


def _load_document(
    tp: Any, path: str | Path, error: type[Exception], what: str, root: str | None = None
) -> Any:
    """Read the UTF-8 file at ``path`` and parse it as a ``tp`` document whose
    faults are located from ``root`` (default ``what``). Every failure raises
    ``error``: "{what} file not found", "cannot read {what} file" or
    "{root} does not parse"."""
    root = root or what
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} file {path}: {e}") from e
    try:
        return _read_document(tp, text, ValueError, root)
    except ValueError as e:
        raise error(f"{root} does not parse: {e}") from e


def _write_document(tp: type, value: Any) -> str:
    out: list[str] = []
    _codec(tp)[1](value, 0, out)
    out.append("\n")
    return "".join(out)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    return _write_document(ScenarioConfig, cfg)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document; raises ScenarioFormatError on malformed input."""
    return _read_document(ScenarioConfig, text, ScenarioFormatError, "scenario")


def fingerprint_scenario(cfg: ScenarioConfig) -> str:
    """Stable content hash of a scenario: SHA-256 over its canonical bytes."""
    return hashlib.sha256(serialize_scenario(cfg).encode("utf-8")).hexdigest()


def serialize_transcript(t: Transcript) -> str:
    """Canonical transcript document: parse(serialize(t)) == t, injective over valid transcripts."""
    return _write_document(Transcript, t)


def parse_transcript(text: str) -> Transcript:
    """Parse a transcript document; raises TranscriptFormatError on malformed input."""
    return _read_document(Transcript, text, TranscriptFormatError, "transcript")


def transcript_hash(t: Transcript) -> str:
    """SHA-256 over the canonical transcript bytes; the replay-equality check."""
    return hashlib.sha256(serialize_transcript(t).encode("utf-8")).hexdigest()
