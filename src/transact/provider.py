"""Pluggable chat-completion and embedding backends.

Two families: an HTTP backend speaking the de-facto chat-completions wire
shape, and fully deterministic test backends (fixture-replay completions plus
a feature-hashing embedder). With the deterministic pair, an entire
simulation run is a pure function of its scenario and fixture file.
"""

from __future__ import annotations

import base64
import http.client
import json
import math
import operator
import re
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .core import _load_document
from .memory import EmbeddingVector, MemoryIndexError
from .runlog import RunLog

API_KEY_ENV = "TRANSACT_API_KEY"
BASE_URL_ENV = "TRANSACT_BASE_URL"
MODEL_ENV = "TRANSACT_MODEL"
EMBEDDER_ENV = "TRANSACT_EMBEDDER"
TIMEOUT_ENV = "TRANSACT_TIMEOUT_MS"

DEFAULT_BASE_URL = "https://api.openai.com/v1"
DEFAULT_MODEL = "gpt-4o"
DEFAULT_EMBEDDER_MODEL = "text-embedding-3-small"
DEFAULT_TIMEOUT_MS = 30_000
#: The longest timeout in ms, about 24.8 days: a socket cannot wait much over
#: 9e9 s, and a larger value would fail only at the first request. The timeout
#: bounds each socket wait (connect, send, each read), not a whole request.
MAX_TIMEOUT_MS = 2**31 - 1
#: How many times a failed HTTP request is retried, and the wait before each
#: retry in seconds when the reply names none (see ``_Endpoint``).
MAX_RETRIES = 2
RETRY_DELAY_S = 0.5
#: The most bytes a reply may have, from any backend.
RESPONSE_BYTE_CAP = 1_048_576
#: Completions are sampled greedily, so a live run is as repeatable as its endpoint.
TEMPERATURE = 0.0


class ProviderError(RuntimeError):
    """Any backend failure: network, HTTP status, malformed payload, oversize reply."""


class ScriptedQueueUnderrun(ProviderError):
    """A scripted run asked for more completions than the fixture file supplies."""


class ProviderStopSignal(Exception):
    """An orderly end-of-run request, raised by a provider or an
    ``on_utterance`` callback. Recorded in transcripts as the ProviderStop
    reason, as the end of a human player's input (``EOFError``) is too."""


class Role(Enum):
    SYSTEM = "system"
    ASSISTANT = "assistant"
    USER = "user"


@dataclass(frozen=True, slots=True)
class ChatMessage:
    role: Role
    content: str

    def __post_init__(self) -> None:
        if not self.content:
            raise ValueError(f"{self.role.value} message content must be non-empty")


@dataclass(frozen=True, slots=True)
class CallerInfo:
    """Who is asking: threaded through every provider call for logs and fixtures."""

    agent: str
    role: str  # "Parent" | "Adult" | "Child" | "decision"
    turn: int

    @property
    def key(self) -> str:
        return f"{self.agent}/{self.role}"


@dataclass(frozen=True, slots=True)
class ProviderCall:
    """One completed provider round-trip, as recorded in the call log."""

    caller: CallerInfo | None
    messages: tuple[ChatMessage, ...]
    response: str


@dataclass(frozen=True, slots=True)
class ProviderConfig:
    kind: str = "scripted"  # "scripted" | "http"
    base_url: str = DEFAULT_BASE_URL
    model: str = DEFAULT_MODEL
    embedder: str = DEFAULT_EMBEDDER_MODEL
    timeout_ms: int = DEFAULT_TIMEOUT_MS


def _truncate_at_stop(text: str, stop_markers: Sequence[str]) -> str:
    cut = len(text)
    for marker in stop_markers:
        pos = text.find(marker)
        if pos != -1:
            cut = min(cut, pos)
    return text[:cut]


class _ChatBackend:
    """What every chat backend does around its raw reply.

    ``complete`` checks the messages, takes the raw reply from ``_reply``,
    enforces ``RESPONSE_BYTE_CAP``, cuts the reply at the first stop marker
    and appends the call to ``call_log``.
    """

    kind: str
    model: str

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.call_log: list[ProviderCall] = []

    def _reply(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str],
        caller: CallerInfo | None,
    ) -> str:
        raise NotImplementedError

    def complete(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str] = (),
        caller: CallerInfo | None = None,
    ) -> str:
        if not messages:
            raise ProviderError("complete() requires at least one message")
        if messages[0].role is not Role.SYSTEM:
            raise ProviderError("the first message must have the System role")
        raw = self._reply(messages, stop_markers, caller)
        try:
            size = len(raw.encode("utf-8"))
        except UnicodeEncodeError as e:  # a lone surrogate, as a JSON escape can carry
            raise ProviderError(f"response is not valid text: {e}") from e
        if size > RESPONSE_BYTE_CAP:
            raise ProviderError(
                f"response of {size} bytes exceeds the {RESPONSE_BYTE_CAP}-byte cap"
            )
        text = _truncate_at_stop(raw, stop_markers)
        with self._lock:
            self.call_log.append(ProviderCall(caller, tuple(messages), text))
        return text


def complete_logged(
    provider,
    messages: Sequence[ChatMessage],
    caller: CallerInfo,
    run_log: RunLog,
    stop_markers: Sequence[str] = (),
) -> str:
    """``provider.complete``, recorded as one ``provider_call`` event in ``run_log``.

    ``request_bytes`` is the UTF-8 size of the message contents and
    ``response_bytes`` that of the returned (stop-truncated) reply, whatever
    the backend.
    """
    text = provider.complete(messages, stop_markers=stop_markers, caller=caller)
    run_log.record(
        "provider_call",
        backend=provider.kind,
        agent=caller.agent,
        role=caller.role,
        turn=caller.turn,
        request_bytes=sum(len(m.content.encode("utf-8")) for m in messages),
        response_bytes=len(text.encode("utf-8")),
    )
    return text


class ScriptedProvider(_ChatBackend):
    """Replays fixture completions from keyed FIFO queues.

    Queues are keyed "agent/role" (role is an ego-state label or "decision"),
    so each caller's replies replay in file order whatever the other callers
    consumed. An exhausted queue fails loudly, naming the caller.
    """

    kind = "scripted"
    model = "scripted"

    def __init__(self, fixtures: Sequence[tuple[str, str]]) -> None:
        super().__init__()
        self._queues: dict[str, deque[str]] = {}
        for key, response in fixtures:
            self._queues.setdefault(key, deque()).append(response)

    def remaining(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues.values())

    def _reply(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str],
        caller: CallerInfo | None,
    ) -> str:
        if caller is None:
            raise ProviderError("the scripted backend requires caller info to pick a queue")
        with self._lock:
            queue = self._queues.get(caller.key)
            if not queue:
                raise ScriptedQueueUnderrun(
                    f"fixture queue exhausted for {caller.agent}/{caller.role} "
                    f"at turn {caller.turn}"
                )
            return queue.popleft()


# Not frozen: a frozen dataclass sets each field through object.__setattr__,
# which made reading a fixture file about a quarter slower.
@dataclass
class _Fixture:
    """One fixture file entry: a reply for the queue named ``key``."""

    key: str
    response: str


def load_fixtures(path: str | Path) -> list[tuple[str, str]]:
    """Read a fixture file: an ordered JSON array of {"key", "response"} objects."""
    fixtures = _load_document(tuple[_Fixture, ...], path, ProviderError, "fixture", "fixture file")
    return [(f.key, f.response) for f in fixtures]


#: Raised on a kept-alive connection the server has already closed, before any
#: reply arrives (``RemoteDisconnected`` is a ``ConnectionResetError`` too).
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


def _host_port(parts: urllib.parse.SplitResult, what: str, default_port: int) -> tuple[str, int]:
    try:
        port = parts.port or default_port
    except ValueError as e:  # not a number, or out of range
        raise ProviderError(f"invalid port in the {what}: {e}") from e
    if not parts.hostname:
        raise ProviderError(f"the {what} names no host")
    return parts.hostname, port


def _connector(
    url: str, timeout: float
) -> tuple[Callable[[], http.client.HTTPConnection], str, dict]:
    """A function that makes a new, unopened connection reaching ``url``, the
    request target to send on it, and the headers the proxy needs, if any.

    The proxy is the one ``urllib.request.getproxies()`` names for the URL's
    scheme, unless ``urllib.request.proxy_bypass`` exempts the host: an
    ``http://`` request goes to the proxy with the absolute URI as its target,
    an ``https://`` one through a ``CONNECT`` tunnel.
    """
    parts = urllib.parse.urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ProviderError(f"base URL must be an http:// or https:// URL, got {url!r}")
    https = parts.scheme == "https"
    host, port = _host_port(parts, f"base URL {url!r}", 443 if https else 80)
    target = parts.path + (f"?{parts.query}" if parts.query else "")
    proxy = urllib.request.getproxies().get(parts.scheme)
    proxied = bool(proxy) and not urllib.request.proxy_bypass(host)
    address, proxy_headers = (host, port), {}
    if proxied:
        # The proxy URL may carry credentials, so no message repeats it.
        proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        address = _host_port(proxy_parts, f"{parts.scheme} proxy setting", 80)
        if proxy_parts.username is not None:
            user = urllib.parse.unquote(proxy_parts.username)
            password = urllib.parse.unquote(proxy_parts.password or "")
            token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {token}"
    if not https:
        if proxied:
            target = urllib.parse.urlunsplit(parts._replace(fragment=""))
        connect = partial(http.client.HTTPConnection, *address, timeout=timeout)
        return connect, target, proxy_headers
    context = ssl.create_default_context()

    def connect() -> http.client.HTTPConnection:
        conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
        if proxied:
            conn.set_tunnel(host, port, proxy_headers)
        return conn

    return connect, target, {}


def _retry_after_s(value: str | None, cap_s: float) -> float | None:
    """The delta-seconds form of a ``Retry-After`` value, at most ``cap_s``;
    None when the value is missing or in any other form."""
    value = (value or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), cap_s)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    while connections:
        connections.pop().close()


def _bad_timeout(got: object) -> ProviderError:
    return ProviderError(
        f"{TIMEOUT_ENV} must be a positive integer (ms) of at most {MAX_TIMEOUT_MS}, got {got!r}"
    )


class _Endpoint:
    """One authenticated JSON endpoint of an HTTP client: POST {base_url}/{path}.

    Safe to share across threads. Idle kept-alive connections wait on a
    stack: a request takes the one used last, or opens a new one when none is
    idle (see ``_connector`` for proxies), so callers that take turns share
    one connection and ``n`` concurrent callers hold at most ``n``. A
    connection goes back on the stack only after an exchange that read the
    whole reply; any error closes it. A request that fails on a reused
    connection before any reply is resent at once on a new one: the server
    had closed the keep-alive. Connection errors, 429 and 5xx replies are
    retried ``MAX_RETRIES`` times, after the reply's ``Retry-After`` seconds
    on 429 and 503 (at most the timeout) or else after ``RETRY_DELAY_S``. A
    body is read no further than ``RESPONSE_BYTE_CAP`` bytes: a longer one is
    a provider error. The timeout is each socket wait's (connect, send, each
    read), not the whole request's: a reply that trickles in may take longer.
    """

    def __init__(self, config: ProviderConfig, api_key: str, path: str) -> None:
        timeout_ms = config.timeout_ms
        # bool is a subclass of int, so the type is compared exactly. Zero would
        # make a socket non-blocking.
        if type(timeout_ms) is not int or not 1 <= timeout_ms <= MAX_TIMEOUT_MS:
            raise _bad_timeout(timeout_ms)
        if not api_key:
            raise ProviderError(
                f"no API credential: set {API_KEY_ENV} before using the http backend"
            )
        self._timeout_s = timeout_ms / 1000.0
        self._url = f"{config.base_url.rstrip('/')}/{path}"
        self._connect, self._target, proxy_headers = _connector(self._url, self._timeout_s)
        self._headers = {
            "Authorization": f"Bearer {api_key}",
            "Content-Type": "application/json",
            **proxy_headers,
        }
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # The client owns its connections: the idle ones close when it is freed.
        weakref.finalize(self, _close_all, self._idle)

    def post(self, payload: dict) -> dict:
        url = self._url
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(delay_s)
            delay_s = RETRY_DELAY_S
            try:
                status, retry_after, data = self._exchange(body)
            except (OSError, http.client.HTTPException) as e:
                last_error = ProviderError(f"request to {url} failed: {e}")
                continue
            if status == 200:
                try:
                    return json.loads(data)
                except (ValueError, RecursionError) as e:  # RecursionError: nested too deeply
                    raise ProviderError(f"{url} returned non-JSON body: {e}") from e
            last_error = ProviderError(
                f"{url} returned {status}: {data.decode('utf-8', 'replace')[:200]}"
            )
            if status < 500 and status != 429:
                raise last_error
            if status in (429, 503):
                waited = _retry_after_s(retry_after, self._timeout_s)
                if waited is not None:
                    delay_s = waited
        assert last_error is not None
        raise last_error

    def _exchange(self, body: bytes) -> tuple[int, str | None, bytes]:
        """Send one request and read its reply: status, ``Retry-After`` and body.

        The connection is put back for the next request only when the reply
        was read in full; on any failure it is closed and dropped.
        """
        with self._lock:
            conn = self._idle.pop() if self._idle else self._connect()
        cap = RESPONSE_BYTE_CAP
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            data = resp.read(cap + 1)
            if len(data) <= cap and resp.length:
                # The server hung up before the end of the body it declared.
                raise http.client.IncompleteRead(data, resp.length)
        except BaseException:
            conn.close()
            raise
        if len(data) > cap:
            conn.close()
            raise ProviderError(f"response body from {self._url} exceeds the {cap}-byte cap")
        with self._lock:
            self._idle.append(conn)
        return resp.status, resp.getheader("Retry-After"), data


class HttpProvider(_ChatBackend):
    """Chat completions over HTTP: POST {base_url}/chat/completions.

    Request shape is the common {model, messages[], temperature} form with a
    bearer credential read from the environment.
    """

    kind = "http"

    def __init__(self, config: ProviderConfig, api_key: str) -> None:
        self._endpoint = _Endpoint(config, api_key, "chat/completions")
        super().__init__()
        self.model = config.model

    def _reply(
        self,
        messages: Sequence[ChatMessage],
        stop_markers: Sequence[str],
        caller: CallerInfo | None,
    ) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": m.role.value, "content": m.content} for m in messages],
            "temperature": TEMPERATURE,
        }
        if stop_markers:
            payload["stop"] = list(stop_markers)
        body = self._endpoint.post(payload)
        try:
            raw = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise ProviderError(f"unexpected completion payload shape: {e}") from e
        if not isinstance(raw, str):
            raise ProviderError("completion content is not a string")
        return raw


# ---------------------------------------------------------------------------
# Embedders.
# ---------------------------------------------------------------------------

HASH_EMBED_DIM = 256
#: Most distinct tokens one ``HashEmbedder`` remembers the bucket of.
_BUCKET_MEMO_SIZE = 16_384
_HASH_SEED = b"transact-hash-embed-v1"
#: Keyed once: a copy per token skips the key block's compression.
_KEYED_BLAKE2B = blake2b(digest_size=8, key=_HASH_SEED)
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _hash_bucket(dim: int, token: str) -> int:
    h = _KEYED_BLAKE2B.copy()
    h.update(token.encode("utf-8"))
    return int.from_bytes(h.digest(), "big") % dim


class HashEmbedder:
    """Deterministic feature-hashing embedder for tests and offline runs.

    Pipeline: lowercase, split on non-alphanumeric characters, hash each token
    to one of ``dim`` buckets with keyed blake2b (fixed key, first 8 digest
    bytes as a big-endian integer, modulo ``dim``), count tokens per bucket,
    L2-normalize the counts. Identical everywhere, on every run; texts sharing
    tokens get a positive similarity contribution.

    Only the buckets a text fills are counted and normalized: the norm is the
    ``fsum`` of the non-zero squares, the same exactly rounded sum as over all
    ``dim`` squares, since the others are +0.0. The filled buckets become the
    vector's support as they are, and the vector holds only them: no tuple of
    all ``dim`` entries is built or scanned unless something reads its
    ``values``, which a sparse search never does. Each embedder remembers the
    bucket of up to ``_BUCKET_MEMO_SIZE`` tokens, so a new embedder, as each
    ``transact run`` makes, starts with none.
    """

    def __init__(self, dim: int = HASH_EMBED_DIM) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.bucket = lru_cache(maxsize=_BUCKET_MEMO_SIZE)(partial(_hash_bucket, dim))

    @property
    def id(self) -> str:
        return f"hash-v1-{self.dim}"

    def embed(self, text: str) -> EmbeddingVector:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            raise ValueError(f"cannot hash-embed text with no alphanumeric tokens: {text!r}")
        counts = Counter(map(self.bucket, tokens))
        norm = math.sqrt(math.fsum(map(operator.mul, counts.values(), counts.values())))
        buckets = sorted(counts)
        return EmbeddingVector.sparse(self.dim, buckets, [counts[b] / norm for b in buckets])


class RemoteEmbedder:
    """Embeddings over HTTP: POST {base_url}/embeddings.

    The vector dimension is taken from the first response and enforced on
    every later call; drift mid-run is an error.
    """

    def __init__(self, config: ProviderConfig, api_key: str) -> None:
        self._endpoint = _Endpoint(config, api_key, "embeddings")
        self.id = config.embedder
        self._dim: int | None = None
        self._lock = threading.Lock()

    def embed(self, text: str) -> EmbeddingVector:
        body = self._endpoint.post({"model": self.id, "input": text})
        try:
            values = body["data"][0]["embedding"]
        except (KeyError, IndexError, TypeError) as e:
            raise ProviderError(f"unexpected embedding payload shape: {e}") from e
        # bool is a subclass of int, so the types are compared exactly.
        if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
            raise ProviderError("embedding is not a JSON array of numbers")
        try:
            vec = EmbeddingVector(tuple(map(float, values)))
        except (OverflowError, MemoryIndexError) as e:  # empty, non-finite or out of float range
            raise ProviderError(f"unusable embedding: {e}") from e
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
    """Memoizes an inner embedder by exact text: one vector per text for the run.

    A miss calls the inner embedder outside the lock; threads that miss one
    text together each call it and all get the first vector stored. A failed
    call stores nothing, so a later miss calls upstream again.
    """

    inner: object
    _cache: dict[str, EmbeddingVector] = field(default_factory=dict, init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False)

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
            return self._cache.setdefault(text, vec)


def http_backend(environ: Mapping[str, str]) -> tuple[HttpProvider, CachingEmbedder]:
    """The http chat provider and caching remote embedder that the
    ``TRANSACT_*`` variables in ``environ`` configure.

    A bad timeout or base URL, or no credential, is a ``ProviderError`` here,
    before any request.
    """
    raw = environ.get(TIMEOUT_ENV, str(DEFAULT_TIMEOUT_MS))
    try:
        timeout_ms = int(raw)
    except ValueError:
        raise _bad_timeout(raw) from None
    config = ProviderConfig(
        base_url=environ.get(BASE_URL_ENV, DEFAULT_BASE_URL),
        model=environ.get(MODEL_ENV, DEFAULT_MODEL),
        embedder=environ.get(EMBEDDER_ENV, DEFAULT_EMBEDDER_MODEL),
        timeout_ms=timeout_ms,
    )
    api_key = environ.get(API_KEY_ENV, "")
    return HttpProvider(config, api_key), CachingEmbedder(RemoteEmbedder(config, api_key))
