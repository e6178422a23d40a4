#!/usr/bin/env python3
"""Run the tier-1 suite under a line collector and report which executable
``src/transact`` lines it never runs.

One ``sys.settrace`` + ``threading.settrace`` function traces only frames of
files under ``src/transact``, in the test process and its worker threads.
Child processes (``python -m transact``, started by the CLI tests) are traced
too: a ``sitecustomize`` module put first on ``PYTHONPATH`` (in place of any
other) starts the same collector in each child, which writes its lines to a
file as it exits.

The executable lines of a file are the lines that its code objects'
``co_lines()`` name, leaving out line 0, a module's ``RESUME``. Pytest's own
output goes to stderr; stdout gets pytest's summary line, then

    reached N of M executable src/ lines

then each unreached line as ``path:line: source``. Run from anywhere:

    python3 scripts/reach.py

The exit status is the collector's: 0 when the suite ran to its end with the
tracer in place, whatever its tests did. Traced, the suite runs two to three
times slower, so a wall-clock bound in a test may fail here; gate on the
untraced suite.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The ``sitecustomize`` that starts the collector in a child process.
_CHILD_HOOK = """\
import importlib.util

spec = importlib.util.spec_from_file_location("_reach", {script!r})
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
reach.collect_until_exit({traced!r}, {out!r})
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some code object compiled from it runs."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Collector:
    """Records, per file, the lines run in frames of files under ``traced``."""

    def __init__(self, traced: Path) -> None:
        self.traced = traced
        self.prefix = str(traced) + os.sep
        self.reached: dict[str, set[int]] = {}

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        reached = self.reached.setdefault(filename, set())

        def local(frame, event, arg):
            reached.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    @contextlib.contextmanager
    def installed(self):
        """Traces the current thread and threads started meanwhile."""
        previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self.trace)
        sys.settrace(self.trace)
        try:
            yield self
        finally:
            sys.settrace(previous[0])
            threading.settrace(previous[1])


def collect_until_exit(traced: str, out: str) -> None:
    """Start a collector for this whole process; write what it reached to a new
    file in the directory ``out`` as the process exits."""
    collector = Collector(Path(traced))
    threading.settrace(collector.trace)
    sys.settrace(collector.trace)

    def save() -> None:
        sys.settrace(None)
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out)
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({name: sorted(lines) for name, lines in collector.reached.items()}, f)

    atexit.register(save)


@contextlib.contextmanager
def child_processes_collected(collector: Collector):
    """Children started meanwhile with this process's ``PYTHONPATH`` collect
    into ``collector`` too; their lines are merged on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        source = _CHILD_HOOK.format(
            script=str(Path(__file__).resolve()), traced=str(collector.traced), out=str(out)
        )
        (hook / "sitecustomize.py").write_text(source, encoding="utf-8")
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(hook), saved)))
        try:
            yield collector
        finally:
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
            for path in out.iterdir():
                for filename, lines in json.loads(path.read_text(encoding="utf-8")).items():
                    collector.reached.setdefault(filename, set()).update(lines)


def unreached(collector: Collector) -> tuple[int, list[str]]:
    """The number of executable lines in the files the collector traces, and
    one ``path:line: source`` entry per line that was not run."""
    total, missed = 0, []
    for path in sorted(collector.traced.rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        for line in sorted(lines - collector.reached.get(str(path), set())):
            missed.append(f"{name}:{line}: {text[line - 1].strip()}")
    return total, missed


class _Summary:
    """Keeps pytest's summary line, such as ``431 passed, 1 skipped``."""

    line = "no summary"

    def pytest_terminal_summary(self, terminalreporter) -> None:
        parts, _ = terminalreporter.build_summary_stats_line()
        self.line = ", ".join(text for text, _ in parts)


def main() -> int:
    import pytest

    os.chdir(ROOT)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    collector, summary = Collector(src / "transact"), _Summary()
    with child_processes_collected(collector), collector.installed():
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "--continue-on-collection-errors"], [summary])
        intact = sys.gettrace() == collector.trace
    total, missed = unreached(collector)
    print(f"pytest: {summary.line}")
    print(f"reached {total - len(missed)} of {total} executable src/ lines")
    for entry in missed:
        print(entry)
    if not intact:
        print("error: something replaced the tracer during the run", file=sys.stderr)
        return 1
    return 0 if status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(status)


if __name__ == "__main__":
    raise SystemExit(main())
