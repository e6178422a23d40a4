"""Structured run log: one record per provider call and per agent-loop step."""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path

logger = logging.getLogger(__name__)


@dataclass
class RunLog:
    """Append-only event list, safe to share across threads."""

    events: list[dict] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record(self, kind: str, **fields: object) -> None:
        event = {"kind": kind, **fields}
        with self._lock:
            self.events.append(event)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s", json.dumps(event, sort_keys=True, default=str))

    def extend(self, other: RunLog) -> None:
        """Append ``other``'s events after this log's, in their order."""
        with other._lock:
            events = list(other.events)
        with self._lock:
            self.events.extend(events)

    def count(self, kind: str, **match: object) -> int:
        with self._lock:
            return sum(
                1
                for e in self.events
                if e["kind"] == kind and all(e.get(k) == v for k, v in match.items())
            )

    def write_jsonl(self, path: str | Path) -> None:
        with self._lock:
            lines = [json.dumps(e, sort_keys=True, default=str) for e in self.events]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
