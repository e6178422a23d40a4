"""A reference clock for the host's speed, kept in a helper process.

The benchmark's machine shares its processors with other machines, and how
fast it runs Python drifts by tens of percent from one minute to the next.
Every process on it slows down together, so the drift can be measured with a
fixed piece of work and divided out. The helper runs that work whenever the
benchmark asks, between two ops while the benchmark waits, and reports how
long it took. Each time the benchmark measured is then stated at the
reference speed: it is multiplied by ``REFERENCE_MS`` over the mean duration
of the work in the samples taken within ``WINDOW_S`` of it.

The work is pure Python of the kinds the program spends its time on: JSON,
hashing, regular expressions, string and dict operations and floating-point
sums. The helper never imports the program under test and holds none of its
state, so a change to the program cannot change the clock.

Run as ``python3 -m perfbench.hostclock``: for each line on stdin it does the
work once and writes its duration in nanoseconds on a line of stdout. It exits
at end of stdin.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
from pathlib import Path
from time import perf_counter, perf_counter_ns

#: Mean duration of one ``work()`` on the machine the baseline was recorded on.
REFERENCE_MS = 1.5
#: Least time between two samples, so sampling costs about 2% of a run.
INTERVAL_S = 0.1
#: How far before and after a measured interval the samples that scale it lie.
WINDOW_S = 1.0

_DOC = {
    "items": [
        {"id": f"r{i:04d}", "text": "word " * (i % 17 + 3), "score": i / 7.0, "tags": ["a", str(i)]}
        for i in range(60)
    ]
}
_ACTION = re.compile(r"^Action: (\w+)$", re.M)


def work() -> int:
    text = json.dumps(_DOC, sort_keys=True, indent=2)
    items = json.loads(text)["items"]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    words = text.split()
    counts: dict[str, int] = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    v = [math.sin(i) for i in range(400)]
    dot = math.fsum(a * b for a, b in zip(v, v[1:]))
    steps = "\n".join(f"Thought: {w}\nAction: search" for w in words[:200])
    return len(_ACTION.findall(steps)) + len(items) + len(digest) + len(counts) + int(dot)


class HostClock:
    """The benchmark's side: starts the helper and samples it between ops."""

    def __init__(self, root: Path) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.hostclock"],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples_ms: list[float] = []
        self._at: list[float] = []  # perf_counter midpoint of each sample
        self._cum: list[float] = [0.0]  # prefix sums of samples_ms
        self._last = float("-inf")

    def tick(self) -> None:
        """Sample the host's speed if ``INTERVAL_S`` has passed since the last sample."""
        start = perf_counter()
        if start - self._last < INTERVAL_S:
            return
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line.strip().isdigit():
            raise RuntimeError("the host clock helper stopped")
        self._last = perf_counter()
        self.samples_ms.append(int(line) / 1e6)
        self._at.append((start + self._last) / 2)

    def scale(self, start: float, end: float) -> float:
        """What the time from ``start`` to ``end`` (``perf_counter`` readings)
        is multiplied by to state it at the reference speed."""
        lo = bisect_left(self._at, start - WINDOW_S)
        hi = bisect_right(self._at, end + WINDOW_S)
        if lo == hi:  # no sample near it: the whole run's
            lo, hi = 0, len(self._at)
        if len(self._cum) != len(self.samples_ms) + 1:
            self._cum = [0.0, *accumulate(self.samples_ms)]
        return REFERENCE_MS * (hi - lo) / (self._cum[hi] - self._cum[lo])

    def mean_ms(self) -> float:
        return sum(self.samples_ms) / len(self.samples_ms)

    def close(self) -> None:
        self._proc.stdin.close()  # end of input stops the helper
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def main() -> int:
    work()  # warm-up
    for _ in sys.stdin:
        start = perf_counter_ns()
        work()
        sys.stdout.write(f"{perf_counter_ns() - start}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
