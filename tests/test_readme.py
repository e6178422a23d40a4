"""The README's examples run as written."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from test_acceptance import GOLDEN_RUN_SHA256

REPO = Path(__file__).resolve().parents[1]


def readme_example(section: str) -> str:
    """The first Python code block under the README heading ``## section``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_example_prints_the_golden_transcript(monkeypatch, capsys):
    code = readme_example("Library")
    assert "from transact import (" in code  # the top-level package's names
    monkeypatch.chdir(REPO)  # the example's paths are relative to the repository
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    document = printed.removesuffix("\n")  # print's own newline, after the document's
    assert document.endswith("\n")
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == GOLDEN_RUN_SHA256
