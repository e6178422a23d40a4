"""Seeded inputs for the generated workloads, and the outputs they must produce.

``large_memory(seed)`` returns a scenario with six partitions of unequal
size, the fixture file that scripts every provider call of its run, and the
exact transcript that run must produce. ``audit_corpus(seed)`` returns a
scenario and a corpus of long transcripts for offline mining.

``python3 -m perfbench.gen WORKLOAD SEED DIR`` writes a workload's input
files into DIR, with the hashes its outputs must have in ``expected.json``.
The benchmark runs it in a child process, so the generator's memory never
counts in the measured process.

Nothing here imports the program under test. Expected transcripts are built
from the plan that wrote the fixtures, with retrieval hits recomputed by an
independent exact oracle (``hashembed``), and rendered in the canonical form
the file format defines: JSON with sorted keys, two-space indent, a trailing
newline. The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from . import hashembed

EGOS = ("Parent", "Adult", "Child")
AGENTS = ("Mira", "Tomas")
SCRIPTED_PROVIDER = {"kind": "scripted", "model": "scripted", "embedder": hashembed.EMBEDDER_ID}
#: Exact binary fractions, so weighted totals carry no rounding.
WEIGHTS = {
    "relevance": 0.375,
    "progress": 0.25,
    "social_appropriateness": 0.25,
    "script_alignment": 0.125,
}
CRITERIA = tuple(WEIGHTS)

#: large_memory partitions: (records, searches per ego turn). Fixed across
#: seeds, and each speaker scans 2,400 records per turn, so every seed and
#: every turn does the same amount of retrieval.
LARGE_PARTITIONS = {
    ("Mira", "Parent"): (1500, 1),
    ("Mira", "Adult"): (350, 2),
    ("Mira", "Child"): (100, 2),
    ("Tomas", "Parent"): (250, 2),
    ("Tomas", "Adult"): (1200, 1),
    ("Tomas", "Child"): (350, 2),
}
LARGE_TURNS = 100
LARGE_BUDGET = 2
K = 3

AUDIT_PARTITION = 30
AUDIT_BUDGET = 3
#: Turn counts of the corpus transcripts; seeds only shuffle their order.
#: An odd count puts the median op in the middle of one length's ops, not on
#: the edge between two, where it would jump between them from run to run.
AUDIT_LENGTHS = tuple(range(60, 190, 10))

VOCAB_SIZE = 3000
_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
EMOTIONS = ("calm", "worry", "pride", "shame", "irritation", "relief", "doubt", "warmth")
TONES = ("even", "sharp", "gentle", "flat", "urgent", "wry", "stern", "light")


def canonical(tree) -> str:
    return json.dumps(tree, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Words:
    """A vocabulary of pronounceable pseudo-words drawn with Zipf-like weights."""

    def __init__(self, rng: random.Random, size: int = VOCAB_SIZE) -> None:
        seen: dict[str, None] = {}
        while len(seen) < size:
            n = rng.choice((2, 2, 3))
            seen.setdefault("".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(n)))
        self.words = list(seen)
        self.cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(size)))
        self.rng = rng

    def draw(self, lo: int, hi: int) -> str:
        return " ".join(self.rng.choices(self.words, cum_weights=self.cum, k=self.rng.randint(lo, hi)))

    def sentence(self, lo: int, hi: int) -> str:
        return self.draw(lo, hi).capitalize() + "."


def _record(words: Words, rid: str, ego: str) -> dict:
    rng = words.rng
    return {
        "id": rid,
        "context": words.draw(5, 20),
        "reaction": words.sentence(6, 12),
        "emotions": rng.sample(EMOTIONS, rng.randint(1, 2)),
        "tone": rng.choice(TONES),
        "ego_state": ego,
    }


def _scenario(words: Words, sizes: dict, *, budget: int, max_turns: int, seed: int) -> dict:
    agents = []
    for name in AGENTS:
        personas = []
        for ego in EGOS:
            memories = [
                _record(words, f"{name.lower()}-{ego.lower()}-{i:04d}", ego)
                for i in range(sizes[(name, ego)])
            ]
            personas.append(
                {"ego_state": ego, "descriptor": f"the {ego} side of {name}", "memories": memories}
            )
        agents.append(
            {"name": name, "life_script": words.sentence(10, 16), "personas": personas}
        )
    return {
        "agents": agents,
        "opening_prompt": words.sentence(12, 20),
        "first_speaker": AGENTS[0],
        "k": K,
        "tool_budget": budget,
        "max_turns": max_turns,
        "seed": seed,
        "decision_weights": dict(WEIGHTS),
    }


class Retrieval:
    """Exact top-k over one partition: score every record, order by
    (score descending, id ascending)."""

    def __init__(self, memories: list[dict]) -> None:
        self.entries = [(m["id"], hashembed.embed(m["context"])) for m in memories]

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        q = hashembed.embed(query)
        scored = ((rid, hashembed.cosine(q, v)) for rid, v in self.entries)
        return heapq.nsmallest(k, scored, key=lambda p: (-p[1], p[0]))


def _chosen_sequence(rng: random.Random, turns: int) -> list[str]:
    """Chosen ego per turn: stretches that repeat a short even-period pattern
    (the speakers alternate, so the (speaker, ego) sequence repeats too),
    with a few one-off turns between them."""
    out: list[str] = []
    while len(out) < turns:
        if out and rng.random() < 0.3:
            out.append(rng.choice(EGOS))
            continue
        pattern = [rng.choice(EGOS) for _ in range(rng.choice((2, 4)))]
        out.extend(pattern[i % len(pattern)] for i in range(rng.randint(8, 20)))
    return out[:turns]


def _scores(rng: random.Random, chosen: str) -> dict[str, dict[str, int]]:
    # The chosen ego beats the others on every criterion, so it is the
    # weighted argmax whatever the (positive) weights.
    return {
        ego: {c: rng.randint(6, 10) if ego == chosen else rng.randint(0, 5) for c in CRITERIA}
        for ego in EGOS
    }


def _conversation(words: Words, scenario: dict, turns: int, searches: dict):
    """Plan a whole run; ``searches`` maps (speaker, ego) to the choices of
    search count per ego turn. Returns the fixture entries, in call order per
    speaker and role, and the expected transcript tree."""
    rng = words.rng
    partitions = {
        (a["name"], p["ego_state"]): Retrieval(p["memories"])
        for a in scenario["agents"]
        for p in a["personas"]
    }
    fixtures: list[dict] = []
    utterances = []
    for turn, chosen in enumerate(_chosen_sequence(rng, turns)):
        speaker = AGENTS[turn % 2]
        candidates, events = [], []
        for ego in EGOS:
            key = f"{speaker}/{ego}"
            used: list[str] = []
            n = rng.choice(searches[(speaker, ego)])
            for _ in range(n):
                query = words.draw(4, 10)
                fixtures.append({
                    "key": key,
                    "response": f"Thought: {words.draw(3, 8)}\n"
                    f"Action: search_memories\nAction Input: {query}",
                })
                hits = partitions[(speaker, ego)].search(query, scenario["k"])
                events.append({
                    "ego_state": ego,
                    "query": query,
                    "hits": [rid for rid, _ in hits],
                    "scores": [s for _, s in hits],
                })
                used.extend(rid for rid, _ in hits if rid not in used)
            text, emotion, tone = words.sentence(6, 18), rng.choice(EMOTIONS), rng.choice(TONES)
            fixtures.append({
                "key": key,
                "response": f"Final Answer:\nText: {text}\nEmotion: {emotion}\nTone: {tone}",
            })
            candidates.append({
                "ego_state": ego,
                "text": text,
                "emotion": emotion,
                "tone": tone,
                "memories_used": used,
                "searches_performed": n,
            })
        scores = _scores(rng, chosen)
        rationale = words.sentence(5, 12)
        fixtures.append({
            "key": f"{speaker}/decision",
            "response": "\n".join(
                f"SCORES {ego}: relevance={s['relevance']} progress={s['progress']} "
                f"social={s['social_appropriateness']} script={s['script_alignment']}"
                for ego in EGOS
                for s in [scores[ego]]
            ) + f"\nRATIONALE: {rationale}",
        })
        utterances.append({
            "turn": turn,
            "speaker": speaker,
            "chosen_ego": chosen,
            "text": next(c["text"] for c in candidates if c["ego_state"] == chosen),
            "candidates": candidates,
            "decision": {
                "scores": scores,
                "weights": dict(WEIGHTS),
                "chosen": chosen,
                "rationale": rationale,
                "human": False,
            },
            "retrieval_log": events,
        })
    transcript = {
        "scenario_fingerprint": sha256(canonical(scenario)),
        "provider": dict(SCRIPTED_PROVIDER),
        "seed": scenario["seed"],
        "utterances": utterances,
        "termination_reason": "MaxTurns" if turns == scenario["max_turns"] else "ProviderStop",
    }
    return fixtures, transcript


@dataclass(frozen=True)
class LargeMemory:
    scenario: str
    fixtures: str
    expected_transcript: str


def large_memory(seed: int) -> LargeMemory:
    words = Words(random.Random(f"large_memory:{seed}"))
    sizes = {key: n for key, (n, _) in LARGE_PARTITIONS.items()}
    scenario = _scenario(
        words, sizes, budget=LARGE_BUDGET, max_turns=LARGE_TURNS, seed=seed % 2**31
    )
    searches = {key: (n,) for key, (_, n) in LARGE_PARTITIONS.items()}
    fixtures, transcript = _conversation(words, scenario, LARGE_TURNS, searches)
    return LargeMemory(canonical(scenario), canonical(fixtures), canonical(transcript))


@dataclass(frozen=True)
class AuditCorpus:
    scenario: str
    transcripts: tuple[str, ...]


def audit_corpus(seed: int) -> AuditCorpus:
    words = Words(random.Random(f"audit_corpus:{seed}"))
    sizes = {(a, e): AUDIT_PARTITION for a in AGENTS for e in EGOS}
    lengths = list(AUDIT_LENGTHS)
    words.rng.shuffle(lengths)
    scenario = _scenario(
        words, sizes, budget=AUDIT_BUDGET, max_turns=max(lengths), seed=seed % 2**31
    )
    transcripts = tuple(
        canonical(_conversation(words, scenario, n, dict.fromkeys(sizes, (0, 1, 2, 3)))[1])
        for n in lengths
    )
    return AuditCorpus(canonical(scenario), transcripts)


def write(workload: str, seed: int, out: Path) -> None:
    """Write a workload's inputs into ``out``, and in ``expected.json`` the
    hash of each transcript the benchmark must see."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "large_memory":
        g = large_memory(seed)
        (out / "scenario.json").write_text(g.scenario, encoding="utf-8")
        (out / "fixtures.json").write_text(g.fixtures, encoding="utf-8")
        expected = {"transcript": sha256(g.expected_transcript)}
    elif workload == "audit_corpus":
        g = audit_corpus(seed)
        (out / "scenario.json").write_text(g.scenario, encoding="utf-8")
        corpus = out / "corpus"
        corpus.mkdir(exist_ok=True)
        expected = {}
        for i, text in enumerate(g.transcripts):
            name = f"transcript-{i:02d}.json"
            (corpus / name).write_text(text, encoding="utf-8")
            expected[name] = sha256(text)
    else:
        raise ValueError(f"no generator for {workload!r}")
    (out / "expected.json").write_text(canonical(expected), encoding="utf-8")


if __name__ == "__main__":
    write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
