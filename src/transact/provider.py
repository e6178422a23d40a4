"""Pluggable chat-completion and embedding backends.

Two families: an HTTP backend speaking the de-facto chat-completions wire
shape, and fully deterministic test backends (fixture-replay completions plus
a feature-hashing embedder). With the deterministic pair, an entire
simulation run is a pure function of its scenario and fixture file.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from hashlib import blake2b
from pathlib import Path
from typing import Sequence

import requests

from .memory import EmbeddingVector

logger = logging.getLogger(__name__)

API_KEY_ENV = "TRANSACT_API_KEY"

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o"
DEFAULT_EMBEDDER_MODEL = "text-embedding-3-small"
DEFAULT_TIMEOUT_MS = 30_000
DEFAULT_RESPONSE_BYTE_CAP = 1_048_576
DEFAULT_MAX_IN_FLIGHT = 3


class ProviderError(RuntimeError):
    """Any backend failure: network, HTTP status, malformed payload, oversize reply."""


class ScriptedQueueUnderrun(ProviderError):
    """A scripted run asked for more completions than the fixture file supplies."""


class ProviderStopSignal(Exception):
    """An orderly end-of-run request from the provider layer (e.g. end of

    interactive input). Recorded in transcripts as the ProviderStop reason."""


class Role(Enum):
    SYSTEM = "system"
    ASSISTANT = "assistant"
    USER = "user"


@dataclass(frozen=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError(f"{self.role.value} message content must be non-empty")


@dataclass(frozen=True)
class CallerInfo:
    """Who is asking: threaded through every provider call for logs and fixtures."""

    agent: str
    role: str  # "Parent" | "Adult" | "Child" | "decision"
    turn: int

    @property
    def key(self) -> str:
        return f"{self.agent}/{self.role}"


@dataclass(frozen=True)
class ProviderCall:
    """One completed provider round-trip, as recorded in the call log."""

    caller: CallerInfo | None
    request_bytes: int
    response_bytes: int
    messages: tuple[ChatMessage, ...]
    response: str


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "scripted"  # "scripted" | "http"
    base_url: str = DEFAULT_BASE_URL
    model: str = DEFAULT_MODEL
    embedder: str = DEFAULT_EMBEDDER_MODEL
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    temperature: float = 0.0
    max_retries: int = 2
    retry_delay_s: float = 0.5
    response_byte_cap: int = DEFAULT_RESPONSE_BYTE_CAP
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT


def _check_messages(messages: Sequence[ChatMessage]) -> None:
    if not messages:
        raise ProviderError("complete() requires at least one message")
    if messages[0].role is not Role.SYSTEM:
        raise ProviderError("the first message must have the System role")


def _log_call(backend: str, call: ProviderCall, run_log=None) -> None:
    caller = call.caller
    if run_log is not None:
        run_log.record(
            "provider_call",
            backend=backend,
            agent=caller.agent if caller else None,
            role=caller.role if caller else None,
            turn=caller.turn if caller else None,
            request_bytes=call.request_bytes,
            response_bytes=call.response_bytes,
        )
    logger.debug(
        "provider_call backend=%s caller=%s turn=%s req_bytes=%d resp_bytes=%d",
        backend,
        caller.key if caller else "-",
        caller.turn if caller else "-",
        call.request_bytes,
        call.response_bytes,
    )


def _truncate_at_stop(text: str, stop_markers: Sequence[str]) -> str:
    cut = len(text)
    for marker in stop_markers:
        pos = text.find(marker)
        if pos != -1:
            cut = min(cut, pos)
    return text[:cut]


def _enforce_byte_cap(text: str, cap: int) -> None:
    size = len(text.encode("utf-8"))
    if size > cap:
        raise ProviderError(f"response of {size} bytes exceeds the {cap}-byte cap")


class ScriptedProvider:
    """Replays fixture completions from keyed FIFO queues.

    Queues are keyed "agent/role" (role is an ego-state label or "decision"),
    so each caller's replies replay in file order whatever the other callers
    consumed. An exhausted queue fails loudly, naming the caller.
    """

    kind = "scripted"

    def __init__(
        self,
        fixtures: Sequence[tuple[str, str]],
        *,
        response_byte_cap: int = DEFAULT_RESPONSE_BYTE_CAP,
    ) -> None:
        self.model = "scripted"
        self._queues: dict[str, deque[str]] = {}
        for key, response in fixtures:
            self._queues.setdefault(key, deque()).append(response)
        self._lock = threading.Lock()
        self._response_byte_cap = response_byte_cap
        self.call_log: list[ProviderCall] = []
        self.run_log = None

    def attach_run_log(self, run_log) -> None:
        self.run_log = run_log

    def remaining(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def complete(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str] = (),
        caller: CallerInfo | None = None,
    ) -> str:
        _check_messages(messages)
        if caller is None:
            raise ProviderError("the scripted backend requires caller info to pick a queue")
        with self._lock:
            queue = self._queues.get(caller.key)
            if not queue:
                raise ScriptedQueueUnderrun(
                    f"fixture queue exhausted for {caller.agent}/{caller.role} "
                    f"at turn {caller.turn}"
                )
            raw = queue.popleft()
        _enforce_byte_cap(raw, self._response_byte_cap)
        text = _truncate_at_stop(raw, stop_markers)
        self._record(caller, messages, text)
        return text

    def _record(
        self, caller: CallerInfo | None, messages: Sequence[ChatMessage], response: str
    ) -> None:
        call = ProviderCall(
            caller=caller,
            request_bytes=sum(len(m.content.encode("utf-8")) for m in messages),
            response_bytes=len(response.encode("utf-8")),
            messages=tuple(messages),
            response=response,
        )
        with self._lock:
            self.call_log.append(call)
        _log_call("scripted", call, self.run_log)


def load_fixtures(path: str | Path) -> list[tuple[str, str]]:
    """Read a fixture file: an ordered JSON array of {"key", "response"} objects."""
    try:
        tree = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ProviderError(f"fixture file is not valid JSON: {e}") from e
    if not isinstance(tree, list):
        raise ProviderError("fixture file must be a JSON array")
    out = []
    for i, node in enumerate(tree):
        if (
            not isinstance(node, dict)
            or set(node) != {"key", "response"}
            or not isinstance(node.get("key"), str)
            or not isinstance(node.get("response"), str)
        ):
            raise ProviderError(
                f"fixture entry {i} must be an object with string 'key' and 'response'"
            )
        out.append((node["key"], node["response"]))
    return out


class HttpProvider:
    """Chat completions over HTTP: POST {base_url}/chat/completions.

    Request shape is the common {model, messages[], temperature} form with a
    bearer credential read from the environment. At most ``max_in_flight``
    requests run concurrently; transient failures (connection errors, 429 and
    5xx replies) retry a fixed number of times with a fixed delay.
    """

    kind = "http"

    def __init__(self, config: ProviderConfig, api_key: str) -> None:
        if not api_key:
            raise ProviderError(
                f"no API credential: set {API_KEY_ENV} before using the http backend"
            )
        self._config = config
        self._api_key = api_key
        self.model = config.model
        self._gate = threading.BoundedSemaphore(config.max_in_flight)
        self._lock = threading.Lock()
        self.call_log: list[ProviderCall] = []
        self.run_log = None

    def attach_run_log(self, run_log) -> None:
        self.run_log = run_log

    def complete(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str] = (),
        caller: CallerInfo | None = None,
    ) -> str:
        _check_messages(messages)
        payload: dict = {
            "model": self._config.model,
            "messages": [{"role": m.role.value, "content": m.content} for m in messages],
            "temperature": self._config.temperature,
        }
        if stop_markers:
            payload["stop"] = list(stop_markers)
        body = _post_json(
            f"{self._config.base_url.rstrip('/')}/chat/completions",
            payload,
            api_key=self._api_key,
            config=self._config,
            gate=self._gate,
        )
        try:
            raw = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise ProviderError(f"unexpected completion payload shape: {e}") from e
        if not isinstance(raw, str):
            raise ProviderError("completion content is not a string")
        _enforce_byte_cap(raw, self._config.response_byte_cap)
        text = _truncate_at_stop(raw, stop_markers)
        call = ProviderCall(
            caller=caller,
            request_bytes=len(json.dumps(payload).encode("utf-8")),
            response_bytes=len(text.encode("utf-8")),
            messages=tuple(messages),
            response=text,
        )
        with self._lock:
            self.call_log.append(call)
        _log_call("http", call, self.run_log)
        return text


def _post_json(
    url: str,
    payload: dict,
    *,
    api_key: str,
    config: ProviderConfig,
    gate: threading.BoundedSemaphore,
) -> dict:
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    timeout = config.timeout_ms / 1000.0
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.retry_delay_s)
        try:
            with gate:
                resp = requests.post(url, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as e:
            last_error = ProviderError(f"request to {url} failed: {e}")
            continue
        if resp.status_code >= 500 or resp.status_code == 429:
            last_error = ProviderError(
                f"{url} returned {resp.status_code}: {resp.text[:200]}"
            )
            continue
        if resp.status_code != 200:
            raise ProviderError(f"{url} returned {resp.status_code}: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError as e:
            raise ProviderError(f"{url} returned non-JSON body: {e}") from e
    assert last_error is not None
    raise last_error


# ---------------------------------------------------------------------------
# Embedders.
# ---------------------------------------------------------------------------

HASH_EMBED_DIM = 256
_HASH_SEED = b"transact-hash-embed-v1"
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class HashEmbedder:
    """Deterministic feature-hashing embedder for tests and offline runs.

    Pipeline: lowercase, split on non-alphanumeric characters, hash each token
    to one of ``dim`` buckets with keyed blake2b (fixed key, first 8 digest
    bytes as a big-endian integer, modulo ``dim``), count tokens per bucket,
    L2-normalize the counts. Identical everywhere, on every run; texts sharing
    tokens get a positive similarity contribution.
    """

    def __init__(self, dim: int = HASH_EMBED_DIM) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    @property
    def id(self) -> str:
        return f"hash-v1-{self.dim}"

    def bucket(self, token: str) -> int:
        digest = blake2b(token.encode("utf-8"), digest_size=8, key=_HASH_SEED).digest()
        return int.from_bytes(digest, "big") % self.dim

    def embed(self, text: str) -> EmbeddingVector:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise ValueError(f"cannot hash-embed text with no alphanumeric tokens: {text!r}")
        counts = [0.0] * self.dim
        for token in tokens:
            counts[self.bucket(token)] += 1.0
        norm = math.sqrt(math.fsum(c * c for c in counts))
        return EmbeddingVector(tuple(c / norm for c in counts))


def hash_embed(text: str, dim: int = HASH_EMBED_DIM) -> EmbeddingVector:
    """Convenience wrapper over HashEmbedder for one-off embeddings."""
    return HashEmbedder(dim).embed(text)


class RemoteEmbedder:
    """Embeddings over HTTP: POST {base_url}/embeddings.

    The vector dimension is taken from the first response and enforced on
    every later call; drift mid-run is an error.
    """

    def __init__(self, config: ProviderConfig, api_key: str) -> None:
        if not api_key:
            raise ProviderError(
                f"no API credential: set {API_KEY_ENV} before using the http backend"
            )
        self._config = config
        self._api_key = api_key
        self._gate = threading.BoundedSemaphore(config.max_in_flight)
        self._dim: int | None = None
        self._lock = threading.Lock()

    @property
    def id(self) -> str:
        return self._config.embedder

    def embed(self, text: str) -> EmbeddingVector:
        body = _post_json(
            f"{self._config.base_url.rstrip('/')}/embeddings",
            {"model": self._config.embedder, "input": text},
            api_key=self._api_key,
            config=self._config,
            gate=self._gate,
        )
        try:
            values = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as e:
            raise ProviderError(f"unexpected embedding payload shape: {e}") from e
        vec = EmbeddingVector(tuple(float(v) for v in values))
        with self._lock:
            if self._dim is None:
                self._dim = vec.dim
            elif vec.dim != self._dim:
                raise ProviderError(
                    f"embedding dimension drifted from {self._dim} to {vec.dim} mid-run"
                )
        return vec


@dataclass
class CachingEmbedder:
    """Memoizes an inner embedder by exact text; one upstream call per distinct text."""

    inner: object
    _cache: dict[str, EmbeddingVector] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def id(self) -> str:
        return self.inner.id  # type: ignore[attr-defined]

    def embed(self, text: str) -> EmbeddingVector:
        with self._lock:
            hit = self._cache.get(text)
        if hit is not None:
            return hit
        vec = self.inner.embed(text)  # type: ignore[attr-defined]
        with self._lock:
            self._cache.setdefault(text, vec)
        return vec
