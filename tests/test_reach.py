"""scripts/reach.py reports the lines a run never reaches."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"

PROBE = '''import os
import subprocess
import sys
import threading


def on_thread(out):
    out.append("only on a worker thread")


def in_child():
    return "only in a child process"


def main(flag):
    if flag:
        return "never"
    out = []
    worker = threading.Thread(target=on_thread, args=(out,))
    worker.start()
    worker.join(timeout=60)
    child = [sys.executable, "-c", "import reach_probe; reach_probe.in_child()"]
    subprocess.run(child, cwd=os.path.dirname(__file__), check=True, timeout=60)
    return out
'''


def test_the_report_names_only_the_branch_never_taken(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    root = tmp_path.resolve()
    probe = root / "reach_probe.py"
    probe.write_text(PROBE, encoding="utf-8")
    lines = PROBE.splitlines()
    # Every statement is one line, so the executable lines are the non-blank ones.
    assert reach.executable_lines(probe) == {n for n, text in enumerate(lines, 1) if text.strip()}
    monkeypatch.syspath_prepend(str(root))
    collector = reach.Collector(root)
    try:
        with reach.child_processes_collected(collector), collector.installed():
            assert importlib.import_module("reach_probe").main(False) == ["only on a worker thread"]
    finally:
        sys.modules.pop("reach_probe", None)
    never = lines.index('        return "never"') + 1
    total, missed = reach.unreached(collector)
    assert total == len(reach.executable_lines(probe))
    assert missed == [f'{probe}:{never}: return "never"']
