"""Local chat-completions and embeddings endpoint for the http_stub workload.

Run as ``python3 -m perfbench.stub --scenario S --fixtures F`` from the
repository root; it prints its port on the first line of stdout and serves on
127.0.0.1 until its stdin reaches end of file, which also happens when the
process that started it dies.

* ``POST /chat/completions`` replays the fixture file. The queue is picked by
  ``agent/role``, parsed from the first line of the system prompt; the role is
  the ego state whose persona descriptor that line names, or ``decision``.
* ``POST /embeddings`` returns the hash-embedding vector of the input.
* ``POST /_bench/reset`` refills every queue and returns the number of
  completion and embedding requests served since the previous reset.

Every reply waits a fixed service delay of ``DELAY_MS`` first. Sockets set
``TCP_NODELAY`` so that Nagle's algorithm cannot stall small replies on a
kept-alive connection. The stub never imports the program under test, so a
change to the program cannot make the stub faster.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import hashembed

#: Fixed service delay before every completion and embedding reply.
DELAY_MS = 1.0

_EGO_LINE = re.compile(r"^You are playing one side of (.+?)'s personality: (.*)\.$")
_DECISION_LINE = re.compile(r"^You decide which side of (.+?)'s personality speaks next\.$")


class Replay:
    """Fixture queues keyed ``agent/role``, and a request counter."""

    def __init__(self, scenario: dict, fixtures: list[dict]) -> None:
        self.roles = {
            (a["name"], p["descriptor"]): p["ego_state"]
            for a in scenario["agents"]
            for p in a["personas"]
        }
        self.fixtures = [(f["key"], f["response"]) for f in fixtures]
        self.lock = threading.Lock()
        self.requests = 0
        self.queues: dict[str, deque[str]] = {}
        self.reset()

    def reset(self) -> int:
        with self.lock:
            served, self.requests = self.requests, 0
            self.queues = {}
            for key, response in self.fixtures:
                self.queues.setdefault(key, deque()).append(response)
        return served

    def key(self, first_line: str) -> str | None:
        m = _EGO_LINE.match(first_line)
        if m:
            role = self.roles.get((m.group(1), m.group(2)))
            return f"{m.group(1)}/{role}" if role else None
        m = _DECISION_LINE.match(first_line)
        return f"{m.group(1)}/decision" if m else None

    def complete(self, body: dict) -> tuple[int, dict]:
        with self.lock:
            self.requests += 1
        try:
            first_line = body["messages"][0]["content"].split("\n", 1)[0]
        except (KeyError, IndexError, TypeError, AttributeError):
            return 400, {"error": "expected messages[0].content"}
        key = self.key(first_line)
        with self.lock:
            queue = self.queues.get(key) if key else None
            response = queue.popleft() if queue else None
        if response is None:
            return 400, {"error": f"no fixture left for {key or first_line!r}"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": response}}]}

    def embed(self, body: dict) -> tuple[int, dict]:
        with self.lock:
            self.requests += 1
        try:
            return 200, {"data": [{"embedding": hashembed.dense(body["input"])}]}
        except (KeyError, TypeError, ValueError) as e:
            return 400, {"error": str(e)}


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "perfbench-stub"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        replay: Replay = self.server.replay
        length = int(self.headers.get("Content-Length") or 0)
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._reply(400, {"error": "body is not JSON"})
            return
        if self.path == "/_bench/reset":
            self._reply(200, {"requests": replay.reset()})
            return
        time.sleep(self.server.delay_s)
        if self.path.endswith("/chat/completions"):
            self._reply(*replay.complete(body))
        elif self.path.endswith("/embeddings"):
            self._reply(*replay.embed(body))
        else:
            self._reply(404, {"error": f"no route {self.path}"})

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--fixtures", required=True)
    args = parser.parse_args(argv)
    with open(args.scenario, encoding="utf-8") as f:
        scenario = json.load(f)
    with open(args.fixtures, encoding="utf-8") as f:
        fixtures = json.load(f)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.replay = Replay(scenario, fixtures)
    server.delay_s = DELAY_MS / 1000.0
    print(server.server_address[1], flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
