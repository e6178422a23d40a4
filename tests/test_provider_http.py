"""HTTP backend against a local stub server."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from transact.provider import (
    CachingEmbedder,
    CallerInfo,
    ChatMessage,
    HttpProvider,
    ProviderCall,
    ProviderConfig,
    ProviderError,
    RemoteEmbedder,
    Role,
    ScriptedProvider,
    complete_logged,
)
from transact.runlog import RunLog

MESSAGES = [ChatMessage(Role.SYSTEM, "sys"), ChatMessage(Role.USER, "go")]


class StubHandler(BaseHTTPRequestHandler):
    """Serves canned chat/embedding payloads and records every request."""

    server_version = "stub"

    def do_POST(self):  # noqa: N802 (http.server naming)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        script = self.server.script.get(self.path, [])
        status, payload = script.pop(0) if script else (404, {"error": "no stub"})
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.requests = []
    server.script = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()


def config_for(server, **overrides) -> ProviderConfig:
    defaults = dict(
        kind="http",
        base_url=f"http://127.0.0.1:{server.server_address[1]}",
        model="stub-model",
        embedder="stub-embedder",
        timeout_ms=2000,
        max_retries=1,
        retry_delay_s=0.01,
    )
    defaults.update(overrides)
    return ProviderConfig(**defaults)


def completion_payload(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class TestHttpProvider:
    def test_returns_the_stub_completion(self, stub_server):
        stub_server.script["/chat/completions"] = [(200, completion_payload("canned reply"))]
        provider = HttpProvider(config_for(stub_server), api_key="test-key")
        assert provider.complete(MESSAGES) == "canned reply"
        [req] = stub_server.requests
        assert req["auth"] == "Bearer test-key"
        assert req["body"]["model"] == "stub-model"
        assert req["body"]["temperature"] == 0.0
        assert req["body"]["messages"][0] == {"role": "system", "content": "sys"}

    def test_stop_markers_sent_and_enforced(self, stub_server):
        stub_server.script["/chat/completions"] = [
            (200, completion_payload("keep this Observation: drop this"))
        ]
        provider = HttpProvider(config_for(stub_server), api_key="test-key")
        out = provider.complete(MESSAGES, stop_markers=("Observation:",))
        assert out == "keep this "
        assert stub_server.requests[0]["body"]["stop"] == ["Observation:"]

    def test_missing_credential_fails_at_startup(self, stub_server):
        with pytest.raises(ProviderError, match="TRANSACT_API_KEY"):
            HttpProvider(config_for(stub_server), api_key="")

    def test_http_error_carries_status_and_body(self, stub_server):
        stub_server.script["/chat/completions"] = [(403, {"error": "forbidden zone"})]
        provider = HttpProvider(config_for(stub_server), api_key="test-key")
        with pytest.raises(ProviderError, match="403.*forbidden zone"):
            provider.complete(MESSAGES)

    @pytest.mark.parametrize("status", [503, 429])
    def test_retries_5xx_then_succeeds(self, stub_server, status):
        stub_server.script["/chat/completions"] = [
            (status, {"error": "busy"}),
            (200, completion_payload("after retry")),
        ]
        provider = HttpProvider(config_for(stub_server), api_key="test-key")
        assert provider.complete(MESSAGES) == "after retry"
        assert len(stub_server.requests) == 2

    def test_retry_exhaustion_raises(self, stub_server):
        stub_server.script["/chat/completions"] = [(503, {"error": "busy"})] * 3
        provider = HttpProvider(config_for(stub_server, max_retries=1), api_key="test-key")
        with pytest.raises(ProviderError, match="503"):
            provider.complete(MESSAGES)

    def test_connection_failure_is_a_provider_error(self):
        config = ProviderConfig(
            kind="http", base_url="http://127.0.0.1:9", timeout_ms=200,
            max_retries=0, retry_delay_s=0.0,
        )
        provider = HttpProvider(config, api_key="test-key")
        with pytest.raises(ProviderError, match="failed"):
            provider.complete(MESSAGES)

    def test_call_is_recorded_like_a_scripted_call(self, stub_server):
        stub_server.script["/chat/completions"] = [(200, completion_payload("canned reply"))]
        caller = CallerInfo(agent="Jordan", role="Adult", turn=3)
        http = HttpProvider(config_for(stub_server), api_key="test-key")
        scripted = ScriptedProvider([("Jordan/Adult", "canned reply")])
        http_log, scripted_log = RunLog(), RunLog()
        assert complete_logged(http, MESSAGES, caller, http_log) == "canned reply"
        complete_logged(scripted, MESSAGES, caller, scripted_log)
        assert http.call_log == [ProviderCall(caller, tuple(MESSAGES), "canned reply")]
        [event], [scripted_event] = http_log.events, scripted_log.events
        assert event == {**scripted_event, "backend": "http"}
        assert event["request_bytes"] == len(b"sys") + len(b"go")

    def test_byte_cap(self, stub_server):
        stub_server.script["/chat/completions"] = [(200, completion_payload("y" * 64))]
        provider = HttpProvider(config_for(stub_server, response_byte_cap=16), api_key="test-key")
        with pytest.raises(ProviderError, match="byte cap"):
            provider.complete(MESSAGES)


class TestRemoteEmbedder:
    def test_returns_stub_vector(self, stub_server):
        stub_server.script["/embeddings"] = [(200, {"data": [{"embedding": [0.6, 0.8]}]})]
        embedder = RemoteEmbedder(config_for(stub_server), api_key="test-key")
        vec = embedder.embed("hello")
        assert vec.values == (0.6, 0.8)
        assert vec.dim == 2
        assert stub_server.requests[0]["body"] == {"model": "stub-embedder", "input": "hello"}

    @pytest.mark.parametrize(
        "embedding",
        [["0.6", "0.8"], [True, False, 1], "abc", 5, None, [[0.6]], [], [float("nan")], [10**400]],
        ids=["strings", "bools", "string", "number", "null", "nested", "empty", "nan", "overflow"],
    )
    def test_malformed_vector_is_a_provider_error(self, stub_server, embedding):
        stub_server.script["/embeddings"] = [(200, {"data": [{"embedding": embedding}]})]
        embedder = RemoteEmbedder(config_for(stub_server), api_key="test-key")
        with pytest.raises(ProviderError, match="embedding"):
            embedder.embed("hello")

    def test_dimension_drift_is_an_error(self, stub_server):
        stub_server.script["/embeddings"] = [
            (200, {"data": [{"embedding": [0.6, 0.8]}]}),
            (200, {"data": [{"embedding": [1.0, 0.0, 0.0]}]}),
        ]
        embedder = RemoteEmbedder(config_for(stub_server), api_key="test-key")
        embedder.embed("first")
        with pytest.raises(ProviderError, match="drifted"):
            embedder.embed("second")

    def test_missing_credential_fails_at_startup(self, stub_server):
        with pytest.raises(ProviderError, match="TRANSACT_API_KEY"):
            RemoteEmbedder(config_for(stub_server), api_key="")

    def test_caching_layer_makes_one_upstream_call(self, stub_server):
        stub_server.script["/embeddings"] = [(200, {"data": [{"embedding": [0.6, 0.8]}]})]
        embedder = CachingEmbedder(RemoteEmbedder(config_for(stub_server), api_key="test-key"))
        first = embedder.embed("same text")
        second = embedder.embed("same text")
        assert first == second
        assert len(stub_server.requests) == 1
