"""The four workloads. Each prepares its inputs in harness time, then runs
groups of ops in a closed loop: one client, the next op starting only after
the previous one has finished.

* Run workloads (``bundled_scripted``, ``large_memory``, ``http_stub``): an op
  is one conversation turn, a group is one whole run done the way
  ``transact run`` does it: read the input files, parse and validate the
  scenario, build the backend, run the simulation, serialize and hash the
  transcript. Setup is reading the inputs through the first utterance.
* ``audit_corpus``: an op is one transcript mined offline, a group is one
  pass over the corpus. Setup is reading the corpus into memory.

Generated inputs are written by ``perfbench.gen`` in a child process, so the
measured process only reads files and runs the program.

Every group checks its outputs; an op of a group that raises or fails its
check counts as failed. Between ops a workload calls ``tick`` (the host
clock's sampler, see ``hostclock.py``); the time a tick takes is left out of
every timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import requests

import transact.analysis as analysis
import transact.core as core
import transact.orchestrator as orchestrator
import transact.provider as tp
from transact.runlog import RunLog

from . import gen
from .tracing import retained_bytes

ROOT = Path(__file__).resolve().parent.parent
ASSETS = ROOT / "src" / "transact" / "assets"
#: The pinned reference hash of the bundled scripted run.
GOLDEN_RUN_SHA256 = "ae9c43e61c77a5028fd13f2e516f92fa03ed4a44b885d7be88217eea2763b144"
STUB_API_KEY = "perfbench-stub-key"


@dataclass
class Group:
    """What one group did. Times are ``(start, end)`` pairs of
    ``perf_counter`` readings, so that each can be stated at the host speed
    around it."""

    ops: int
    failed: int
    #: One per op that completed.
    op_times: list[tuple[float, float]] = field(default_factory=list)
    #: The group's timed wall time, without the host clock's ticks; empty if
    #: the group raised.
    wall_times: list[tuple[float, float]] = field(default_factory=list)
    setup: tuple[float, float] | None = None
    hashes: set[str] = field(default_factory=set)


class _FirstUtterance(tp.ProviderStopSignal):
    """Ends a set-up-only run at its first utterance."""


def _generate(name: str, seed: int, workdir: Path) -> dict:
    """Write a generated workload's inputs in a child process; return the
    expected hashes."""
    subprocess.run(
        [sys.executable, "-m", "perfbench.gen", name, str(seed), str(workdir)],
        cwd=ROOT, check=True,
    )
    return json.loads((workdir / "expected.json").read_text(encoding="utf-8"))


def _report_failure(name: str, exc: BaseException) -> None:
    print(f"{name}: op failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class RunWorkload:
    """One simulated run per group, as ``transact run`` does it."""

    name = ""
    scenario_path: Path
    fixtures_path: Path
    turns: int
    expected: str

    def __init__(self, workdir: Path, seed: int, tick=lambda: None) -> None:
        self.workdir = workdir
        self.seed = seed
        self.tick = tick

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def backend(self):
        """The scripted provider and hash embedder ``transact run`` builds."""
        return tp.ScriptedProvider(tp.load_fixtures(self.fixtures_path)), tp.HashEmbedder()

    def compare(self, text: str) -> tuple[str, str]:
        """The hash the check takes of the serialized transcript, and the
        hash it must equal."""
        return gen.sha256(text), self.expected

    def after_run(self, tracer) -> None:
        """Harness bookkeeping after each run, outside the timed interval."""

    def _simulate(self, tracer, *, setup_only: bool):
        # Each utterance at stamps[i]; the next turn starts at resumes[i].
        stamps: list[float] = []
        resumes: list[float] = []

        def on_utterance(_u) -> None:
            stamps.append(perf_counter())
            if setup_only:
                raise _FirstUtterance()
            self.tick()
            resumes.append(perf_counter())

        start = perf_counter()
        cfg = core.parse_scenario(self.scenario_path.read_text(encoding="utf-8"))
        violations = core.validate_scenario(cfg)
        if violations:
            raise ValueError(f"scenario is invalid: {violations}")
        provider, embedder = self.backend()
        log = RunLog()
        if tracer is not None:
            provider, embedder = tracer.provider(provider), tracer.embedder(embedder)
            log = tracer.run_log()
        transcript = orchestrator.run_simulation(
            cfg, provider, embedder, run_log=log, on_utterance=on_utterance
        )
        if setup_only:
            return start, stamps[0]
        text = core.serialize_transcript(transcript)
        digest = core.transcript_hash(transcript)
        end = perf_counter()
        if tracer is not None:
            tracer.count("core.transcript.bytes", len(text.encode("utf-8")))
            tracer.count("core.transcripts")
            tracer.count("runlog.events", len(log.events))
            tracer.count("provider.call_log.retained_bytes", retained_bytes(provider.call_log))
        ops = list(zip(resumes, stamps[1:]))
        wall = [(start, stamps[0]), *ops, (resumes[-1], end)]
        return (start, stamps[0]), ops, wall, transcript, text, digest

    def setup_once(self) -> tuple[float, float]:
        try:
            return self._simulate(None, setup_only=True)
        finally:
            self.after_run(None)

    def group(self, tracer=None) -> Group:
        try:
            setup, op_times, wall_times, transcript, text, digest = self._simulate(
                tracer, setup_only=False
            )
        except Exception as e:  # a failed run is a result, not a crash
            _report_failure(self.name, e)
            return Group(ops=self.turns, failed=self.turns)
        finally:
            self.after_run(tracer)
        observed, expected = self.compare(text)
        ok = (
            len(transcript.utterances) == self.turns
            and digest == gen.sha256(text)
            and observed == expected
        )
        if not ok:
            print(f"{self.name}: transcript hash {observed} != expected {expected}", file=sys.stderr)
        return Group(
            ops=self.turns,
            failed=0 if ok else self.turns,
            op_times=op_times,
            wall_times=wall_times,
            setup=setup,
            hashes={digest},
        )


class BundledScripted(RunWorkload):
    name = "bundled_scripted"
    scenario_path = ASSETS / "stupid.json"
    fixtures_path = ASSETS / "stupid_fixtures.json"
    turns = 10
    expected = GOLDEN_RUN_SHA256


class LargeMemory(RunWorkload):
    name = "large_memory"
    turns = gen.LARGE_TURNS

    def prepare(self) -> None:
        self.expected = _generate(self.name, self.seed, self.workdir)["transcript"]
        self.scenario_path = self.workdir / "scenario.json"
        self.fixtures_path = self.workdir / "fixtures.json"


class HttpStub(RunWorkload):
    """The bundled scenario over the backend ``transact run --provider http``
    builds, against the stub in its own process."""

    name = "http_stub"
    scenario_path = ASSETS / "stupid.json"
    turns = 10

    def prepare(self) -> None:
        # Requests to the stub must never be routed through a proxy.
        os.environ["no_proxy"] = os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        self.stub = subprocess.Popen(
            [sys.executable, "-m", "perfbench.stub",
             "--scenario", str(self.scenario_path),
             "--fixtures", str(ASSETS / "stupid_fixtures.json")],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.stub.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("the HTTP stub did not start")
        self.base_url = f"http://127.0.0.1:{port}"
        self.config = tp.ProviderConfig(kind="http", base_url=self.base_url)
        self.reset_stub()

    def close(self) -> None:
        self.stub.stdin.close()  # end of input stops the stub
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdout.close()

    def reset_stub(self) -> int:
        resp = requests.post(f"{self.base_url}/_bench/reset", json={}, timeout=10)
        resp.raise_for_status()
        return resp.json()["requests"]

    def after_run(self, tracer) -> None:
        served = self.reset_stub()
        if tracer is not None:
            tracer.count("stub.requests", served)

    def backend(self):
        return (
            tp.HttpProvider(self.config, STUB_API_KEY),
            tp.CachingEmbedder(tp.RemoteEmbedder(self.config, STUB_API_KEY)),
        )

    def compare(self, text: str) -> tuple[str, str]:
        # Equal to the golden run once the provider block is the scripted one.
        tree = json.loads(text)
        tree["provider"] = dict(gen.SCRIPTED_PROVIDER)
        return gen.sha256(gen.canonical(tree)), GOLDEN_RUN_SHA256


class AuditCorpus:
    """Offline mining of generated transcripts: parse, report, re-serialize, hash."""

    name = "audit_corpus"

    def __init__(self, workdir: Path, seed: int, tick=lambda: None) -> None:
        self.workdir = workdir
        self.seed = seed
        self.tick = tick

    def prepare(self) -> None:
        expected = _generate(self.name, self.seed, self.workdir)
        self.scenario_path = self.workdir / "scenario.json"
        self.paths = [self.workdir / "corpus" / name for name in sorted(expected)]
        self.expected = [expected[name] for name in sorted(expected)]

    def close(self) -> None:
        pass

    def setup_once(self) -> tuple[float, float]:
        start = perf_counter()
        self.budget = core.parse_scenario(self.scenario_path.read_text(encoding="utf-8")).tool_budget
        self.corpus = [p.read_text(encoding="utf-8") for p in self.paths]
        return start, perf_counter()

    def group(self, tracer=None) -> Group:
        out = Group(ops=0, failed=0)
        for text, expected in zip(self.corpus, self.expected):
            self.tick()
            out.ops += 1
            try:
                start = perf_counter()
                transcript = core.parse_transcript(text)
                report = analysis.build_report(transcript, budget=self.budget)
                again = core.serialize_transcript(transcript)
                digest = core.transcript_hash(transcript)
                end = perf_counter()
            except Exception as e:  # a failed op is a result, not a crash
                _report_failure(self.name, e)
                out.failed += 1
                continue
            ok = (
                again == text
                and digest == expected
                and report["utterance_count"] == len(transcript.utterances)
                and report["game_loops"]
                and not report["budget_audit"]["violations"]
            )
            if not ok:
                print(f"{self.name}: transcript {digest} did not round-trip", file=sys.stderr)
                out.failed += 1
            out.op_times.append((start, end))
            out.wall_times.append((start, end))
            out.hashes.add(digest)
            if tracer is not None:
                tracer.count("core.transcript.bytes", len(again.encode("utf-8")))
                tracer.count("core.transcripts")
        return out


WORKLOADS = {w.name: w for w in (BundledScripted, LargeMemory, HttpStub, AuditCorpus)}
