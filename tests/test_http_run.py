"""Whole runs of the bundled scenario over the HTTP backend.

The endpoint is an in-test HTTP/1.1 server that replays the bundled fixture
file, picking each completion's queue by ``agent/role`` from the first line
of its system prompt, and answers embedding requests with ``HashEmbedder``
vectors. So a run over HTTP must give the golden transcript once its
provider block is swapped. The server runs on one asyncio thread, with no
thread per connection, so the thread count shows whatever the run leaves
behind.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import re
import threading
from collections import Counter, deque

import pytest

from conftest import asset_path
from helpers import assert_run_log_ends_in_failed_turn
from test_acceptance import GOLDEN_RUN_SHA256
from transact.cli import EXIT_RUNTIME, main
from transact.core import parse_transcript, transcript_hash
from transact.orchestrator import SimulationError, run_simulation
from transact.provider import (
    CachingEmbedder,
    HashEmbedder,
    HttpProvider,
    ProviderConfig,
    RemoteEmbedder,
    ScriptedProvider,
)
from transact.runlog import RunLog

API_KEY = "test-key"

_EGO_LINE = re.compile(r"^You are playing one side of (.+?)'s personality: (.*)\.$")
_DECISION_LINE = re.compile(r"^You decide which side of (.+?)'s personality speaks next\.$")


class ReplayServer:
    """Fixture replay and hash embeddings over kept-alive HTTP/1.1.

    ``fail`` is an optional ``(key, n)``: the ``n``-th completion request for
    that ``agent/role`` key is answered 400.
    """

    def __init__(self, scenario, fixtures, fail: tuple[str, int] | None = None) -> None:
        self.roles = {
            (a.name, p.descriptor): p.ego_state.value for a in scenario.agents for p in a.personas
        }
        self.queues: dict[str, deque[str]] = {}
        for key, response in fixtures:
            self.queues.setdefault(key, deque()).append(response)
        self.fail = fail
        self.completions: Counter[str] = Counter()
        self.embedder = HashEmbedder()

    def __enter__(self) -> "ReplayServer":
        ready = threading.Event()
        self._thread = threading.Thread(target=asyncio.run, args=(self._serve(ready),))
        self._thread.start()
        assert ready.wait(timeout=5), "the replay server did not start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set_result, None)
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()

    async def _serve(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = self._loop.create_future()
        server = await asyncio.start_server(self._connection, "127.0.0.1", 0)
        self.base_url = f"http://127.0.0.1:{server.sockets[0].getsockname()[1]}/v1"
        ready.set()
        await self._stop
        # Connections the clients keep open are cancelled as asyncio.run ends.
        server.close()

    async def _connection(self, reader, writer) -> None:
        try:
            while request_line := await reader.readline():
                length = 0
                while (line := await reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                body = json.loads(await reader.readexactly(length))
                status, payload = self.reply(request_line.split()[1].decode(), body)
                data = json.dumps(payload).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status} Stub\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1") + data
                )
                await writer.drain()
        finally:
            writer.close()

    def reply(self, path: str, body: dict) -> tuple[int, dict]:
        if path.endswith("/embeddings"):
            vector = self.embedder.embed(body["input"])
            return 200, {"data": [{"embedding": list(vector.values)}]}
        key = self.key(body["messages"][0]["content"].split("\n", 1)[0])
        self.completions[key] += 1
        if (key, self.completions[key]) == self.fail:
            return 400, {"error": f"rejected request {self.completions[key]} for {key}"}
        response = self.queues[key].popleft()
        return 200, {"choices": [{"message": {"role": "assistant", "content": response}}]}

    def key(self, first_line: str) -> str:
        m = _EGO_LINE.match(first_line)
        if m:
            return f"{m.group(1)}/{self.roles[(m.group(1), m.group(2))]}"
        m = _DECISION_LINE.match(first_line)
        assert m, f"unrecognised system prompt: {first_line!r}"
        return f"{m.group(1)}/decision"


@pytest.fixture(autouse=True)
def no_proxy_settings(monkeypatch):
    """Requests in these tests go straight to the replay server."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture(autouse=True)
def no_retries(provider_limits):
    """A rejected request fails its call at once."""
    provider_limits(MAX_RETRIES=0)


def http_backend(base_url: str):
    config = ProviderConfig(
        base_url=base_url, model="stub-model", embedder="stub-embedder", timeout_ms=5000
    )
    return HttpProvider(config, API_KEY), CachingEmbedder(RemoteEmbedder(config, API_KEY))


def comparable(events: list[dict]) -> list[dict]:
    """Run log events without their ``backend`` field, the one that differs by backend."""
    return [{k: v for k, v in e.items() if k != "backend"} for e in events]


def scripted_reference(scenario, fixtures) -> tuple[ScriptedProvider, RunLog]:
    provider, log = ScriptedProvider(fixtures), RunLog()
    run_simulation(scenario, provider, HashEmbedder(), run_log=log)
    return provider, log


def test_bundled_run_over_http_is_the_golden_run(
    stupid_scenario, stupid_fixtures, golden_transcript
):
    _, scripted_log = scripted_reference(stupid_scenario, stupid_fixtures)
    with ReplayServer(stupid_scenario, stupid_fixtures) as server:
        provider, embedder = http_backend(server.base_url)
        log = RunLog()
        threads = threading.active_count()
        transcript = run_simulation(stupid_scenario, provider, embedder, run_log=log)
        assert threading.active_count() == threads
    assert transcript.provider.kind == "http"
    swapped = dataclasses.replace(transcript, provider=golden_transcript.provider)
    assert transcript_hash(swapped) == GOLDEN_RUN_SHA256
    assert comparable(log.events) == comparable(scripted_log.events)
    assert all(e["backend"] == "http" for e in log.events if e["kind"] == "provider_call")


def failing_call(scenario, fixtures, turn: int) -> tuple[str, int]:
    """The ``(key, n)`` of the second completion the speaker's Adult asks
    for at ``turn``: a call in the middle of that turn, after the Adult's
    first step and while the other two ego states are running."""
    provider, _ = scripted_reference(scenario, fixtures)
    adult = [c.caller for c in provider.call_log if c.caller.role == "Adult"]
    speaker = next(c.agent for c in adult if c.turn == turn)
    calls = [c for c in adult if c.agent == speaker]
    return f"{speaker}/Adult", 2 + sum(1 for c in calls if c.turn < turn)


FAILED_TURN = 3


def test_a_rejected_completion_mid_turn_fails_that_turn(
    stupid_scenario, stupid_fixtures, golden_transcript
):
    fail = failing_call(stupid_scenario, stupid_fixtures, FAILED_TURN)
    with ReplayServer(stupid_scenario, stupid_fixtures, fail=fail) as server:
        provider, embedder = http_backend(server.base_url)
        threads = threading.active_count()
        with pytest.raises(SimulationError, match=f"turn {FAILED_TURN} .* returned 400") as err:
            run_simulation(stupid_scenario, provider, embedder)
        assert threading.active_count() == threads
    partial = err.value.transcript
    assert partial.termination_reason is None
    assert partial.utterances == golden_transcript.utterances[:FAILED_TURN]


def test_cli_http_run_that_fails_exits_3_and_writes_the_partial_transcript(
    stupid_scenario, stupid_fixtures, golden_transcript, tmp_path, monkeypatch, capsys
):
    fail = failing_call(stupid_scenario, stupid_fixtures, FAILED_TURN)
    out = tmp_path / "partial.json"
    with ReplayServer(stupid_scenario, stupid_fixtures, fail=fail) as server:
        monkeypatch.setenv("TRANSACT_BASE_URL", server.base_url)
        monkeypatch.setenv("TRANSACT_API_KEY", API_KEY)
        code = main(
            ["run", "--scenario", str(asset_path("stupid.json")), "--provider", "http",
             "--out", str(out)]
        )
    assert code == EXIT_RUNTIME
    assert f"turn {FAILED_TURN}" in capsys.readouterr().err
    partial = parse_transcript(out.read_text(encoding="utf-8"))
    assert partial.termination_reason is None
    assert partial.utterances == golden_transcript.utterances[:FAILED_TURN]
    assert_run_log_ends_in_failed_turn(tmp_path / "partial.json.log", FAILED_TURN)
