"""Spans around the program's public calls, recorded from outside it.

A ``Tracer`` replaces module attributes with timing wrappers while a traced
group runs and puts the originals back afterwards. Each attribute is patched
where its caller looks it up (``search_top_k`` as ``transact.ego_agent`` sees
it, ``run_ego_turn`` as ``transact.orchestrator`` sees it, and so on), so the
program itself is unchanged. Provider, embedder and run log are wrapped as
objects. Spans carry name, start, end, parent span and group (one simulated
run, or one pass over the audit corpus); they stay in memory until the run
ends. Calls nest on one thread, so a span's children never overlap and its
self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import transact.analysis
import transact.core
import transact.ego_agent
import transact.orchestrator
from transact.decision import FALLBACK_RATIONALE
from transact.runlog import RunLog

# (module, attribute, span name, per-call counter hook or None)
PATCHES = (
    (transact.orchestrator, "validate_scenario", "core.validate_scenario", None),
    (transact.orchestrator, "fingerprint_scenario", "core.fingerprint_scenario", None),
    (transact.orchestrator, "build_indices", "orchestrator.build_indices", None),
    (transact.orchestrator, "build_index", "memory.build_index",
     lambda t, idx: t.count("memory.build_index.records", len(idx))),
    (transact.orchestrator, "step_turn", "orchestrator.step_turn", None),
    (transact.orchestrator, "run_ego_turn", "ego_agent.run_ego_turn",
     lambda t, out: t.count("ego_agent.malformed_steps", out.malformed_steps)),
    (transact.orchestrator, "decide", "decision.decide",
     lambda t, rec: t.count("decision.fallbacks", rec.rationale == FALLBACK_RATIONALE)),
    (transact.ego_agent, "search_top_k", "memory.search_top_k", None),
    (transact.core, "parse_transcript", "core.parse_transcript", None),
    (transact.core, "serialize_transcript", "core.serialize_transcript", None),
    (transact.core, "transcript_hash", "core.transcript_hash", None),
    (transact.analysis, "build_report", "analysis.build_report", None),
    (transact.analysis, "detect_game_loops", "analysis.detect_game_loops", None),
)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no samples."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tracer:
    def __init__(self) -> None:
        # span: [id, parent id or None, name, start ns, end ns, group]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.groups = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._seen_texts: set[str] = set()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, perf_counter_ns(), 0, self.groups])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- groups ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Start one traced group: patch the program's call sites."""
        self.groups += 1
        self._seen_texts = set()
        for module, attr, name, hook in PATCHES:
            original = getattr(module, attr)  # AttributeError if the program renamed it
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def provider(self, inner):
        return _TracedProvider(inner, self)

    def embedder(self, inner):
        return _TracedEmbedder(inner, self)

    def run_log(self) -> RunLog:
        log = RunLog()
        log.record = self.wrap("runlog.record", log.record)
        return log

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "group")
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics. Counts and totals are per group; percentiles are
        over every call in every traced group."""
        g = self.groups or 1
        durations = [(end - start) / 1e6 for _, _, _, start, end, _ in self.spans]
        ms: dict[str, list[float]] = defaultdict(list)
        child_ms: dict[int, float] = defaultdict(float)
        for (_, parent, name, *_), d in zip(self.spans, durations):
            ms[name].append(d)
            if parent is not None:
                child_ms[parent] += d
        self_ms: dict[str, float] = defaultdict(float)
        for (sid, _, name, *_), d in zip(self.spans, durations):
            self_ms[name] += d - child_ms[sid]
        decision_calls = sum(
            1 for _, parent, name, *_ in self.spans
            if name == "provider.complete" and parent is not None
            and self.spans[parent][2] == "decision.decide"
        )
        c = self.counters

        def calls(name):
            return len(ms[name]) / g

        def p(name, q):
            return percentile(ms[name], q)

        def total(name):
            return sum(ms[name]) / g

        def ratio(a, b):
            return a / b if b else 0.0

        embeds = len(ms["provider.embed"])
        completes = len(ms["provider.complete"])
        upstream = completes + embeds - c["provider.embed.repeats"]
        return {
            "memory.search_top_k.calls": (calls("memory.search_top_k"), "count"),
            "memory.search_top_k.ms_p50": (p("memory.search_top_k", 0.5), "ms"),
            "memory.search_top_k.ms_p90": (p("memory.search_top_k", 0.9), "ms"),
            "memory.search_top_k.self_ms_total": (self_ms["memory.search_top_k"] / g, "ms"),
            "memory.build_index.calls": (calls("memory.build_index"), "count"),
            "memory.build_index.records": (c["memory.build_index.records"] / g, "count"),
            "memory.build_index.ms_total": (total("memory.build_index"), "ms"),
            "orchestrator.build_indices.ms": (p("orchestrator.build_indices", 0.5), "ms"),
            "core.fingerprint_scenario.calls": (calls("core.fingerprint_scenario"), "count"),
            "core.fingerprint_scenario.ms_total": (total("core.fingerprint_scenario"), "ms"),
            "provider.embed.calls": (calls("provider.embed"), "count"),
            "provider.embed.ms_p50": (p("provider.embed", 0.5), "ms"),
            "provider.embed.ms_total": (total("provider.embed"), "ms"),
            "provider.embed.repeat_ratio": (ratio(c["provider.embed.repeats"], embeds), "ratio"),
            "provider.complete.calls": (calls("provider.complete"), "count"),
            "provider.complete.ms_p50": (p("provider.complete", 0.5), "ms"),
            "provider.complete.ms_p90": (p("provider.complete", 0.9), "ms"),
            "provider.complete.request_bytes_total": (
                c["provider.complete.request_bytes"] / g, "bytes"),
            "provider.http.requests_per_call": (ratio(c["stub.requests"], upstream), "ratio"),
            "provider.call_log.retained_bytes": (
                c["provider.call_log.retained_bytes"] / g, "bytes"),
            "runlog.events": (c["runlog.events"] / g, "count"),
            "runlog.record.ms_total": (total("runlog.record"), "ms"),
            "ego_agent.run_ego_turn.calls": (calls("ego_agent.run_ego_turn"), "count"),
            "ego_agent.run_ego_turn.ms_p50": (p("ego_agent.run_ego_turn", 0.5), "ms"),
            "ego_agent.run_ego_turn.self_ms_total": (
                self_ms["ego_agent.run_ego_turn"] / g, "ms"),
            "ego_agent.searches_per_turn": (
                ratio(len(ms["memory.search_top_k"]), len(ms["ego_agent.run_ego_turn"])), "count"),
            "ego_agent.malformed_steps": (c["ego_agent.malformed_steps"] / g, "count"),
            "decision.decide.calls": (calls("decision.decide"), "count"),
            "decision.decide.ms_p50": (p("decision.decide", 0.5), "ms"),
            "decision.decide.self_ms_total": (self_ms["decision.decide"] / g, "ms"),
            "decision.fallbacks": (c["decision.fallbacks"] / g, "count"),
            "decision.retries": ((decision_calls - len(ms["decision.decide"])) / g, "count"),
            "orchestrator.step_turn.ms_p50": (p("orchestrator.step_turn", 0.5), "ms"),
            "orchestrator.step_turn.ms_p90": (p("orchestrator.step_turn", 0.9), "ms"),
            "orchestrator.step_turn.self_ms_total": (
                self_ms["orchestrator.step_turn"] / g, "ms"),
            "core.parse_transcript.ms_p50": (p("core.parse_transcript", 0.5), "ms"),
            "core.serialize_transcript.ms": (p("core.serialize_transcript", 0.5), "ms"),
            "core.transcript_hash.ms": (p("core.transcript_hash", 0.5), "ms"),
            "core.transcript.bytes": (
                ratio(c["core.transcript.bytes"], c["core.transcripts"]), "bytes"),
            "analysis.build_report.ms_p50": (p("analysis.build_report", 0.5), "ms"),
            "analysis.detect_game_loops.ms_p50": (p("analysis.detect_game_loops", 0.5), "ms"),
            "tracing.overhead_ratio": (overhead_ratio, "ratio"),
        }


class _TracedProvider:
    """The wrapped provider, with ``complete`` timed; everything else passes through."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def complete(self, messages, *args, **kwargs):
        t = self._tracer
        t.count("provider.complete.request_bytes",
                sum(len(m.content.encode("utf-8")) for m in messages))
        sid = t.open("provider.complete")
        try:
            return self._inner.complete(messages, *args, **kwargs)
        finally:
            t.close(sid)


class _TracedEmbedder:
    """The wrapped embedder, with ``embed`` timed and repeated texts counted."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def id(self) -> str:
        return self._inner.id

    def embed(self, text: str):
        t = self._tracer
        if text in t._seen_texts:
            t.count("provider.embed.repeats")
        t._seen_texts.add(text)
        sid = t.open("provider.embed")
        try:
            return self._inner.embed(text)
        finally:
            t.close(sid)


def retained_bytes(call_log) -> int:
    """Bytes of the distinct objects a provider's call log keeps alive."""
    seen: set[int] = set()
    total = 0

    def add(obj) -> None:
        nonlocal total
        if id(obj) not in seen:
            seen.add(id(obj))
            total += sys.getsizeof(obj)

    for call in call_log:
        add(call)
        add(call.messages)
        add(call.response)
        for m in call.messages:
            add(m)
            add(m.content)
    return total
