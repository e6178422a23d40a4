"""The README's examples run as written, and its Library section states the
package's public surface, which is pinned here."""

from __future__ import annotations

import hashlib
import re
import types
from pathlib import Path

import transact
from test_acceptance import GOLDEN_RUN_SHA256

REPO = Path(__file__).resolve().parents[1]

#: Every name ``import transact`` exports.
SURFACE = set(
    """
    ScenarioConfig AgentProfile EgoPersona MemoryRecord DecisionWeights EgoState
    Transcript Utterance EgoResponse RetrievalEvent DecisionRecord EgoScores
    CriterionScores ProviderId TerminationReason
    parse_scenario serialize_scenario fingerprint_scenario validate_scenario Violation
    ScenarioFormatError parse_transcript serialize_transcript transcript_hash
    TranscriptFormatError
    run_simulation step_turn build_indices RunLog InvalidScenarioError SimulationError
    ScriptedProvider load_fixtures HashEmbedder http_backend ProviderError
    ProviderStopSignal
    MemoryIndex EmbeddingVector MemoryIndexError
    ego_distribution detect_game_loops GameLoopReport rescue_patterns audit_budgets
    BudgetViolation build_report
    """.split()
)


def readme_section(section: str) -> str:
    """The README's text under the heading ``## section``."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]


def readme_example(section: str) -> str:
    """The first Python code block under the README heading ``## section``."""
    return re.search(r"```python\n(.*?)```", readme_section(section), re.DOTALL).group(1)


def test_library_example_prints_the_golden_transcript(monkeypatch, capsys):
    code = readme_example("Library")
    assert "from transact import (" in code  # the top-level package's names
    monkeypatch.chdir(REPO)  # the example's paths are relative to the repository
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    document = printed.removesuffix("\n")  # print's own newline, after the document's
    assert document.endswith("\n")
    assert hashlib.sha256(document.encode("utf-8")).hexdigest() == GOLDEN_RUN_SHA256


def test_library_example_imports_only_exported_names():
    imports = re.search(r"from transact import \((.*?)\)", readme_example("Library"), re.DOTALL)
    names = {name.strip() for name in imports[1].split(",")} - {""}
    assert names and names <= set(transact.__all__)


def test_the_package_exports_the_pinned_surface():
    assert len(transact.__all__) == len(set(transact.__all__))
    assert set(transact.__all__) == SURFACE
    assert all(hasattr(transact, name) for name in transact.__all__)


def test_the_package_binds_no_other_public_name_but_its_submodules():
    others = {
        name
        for name in set(dir(transact)) - set(transact.__all__)
        if not name.startswith("_")
    }
    assert others  # the submodules the engine imports
    for name in others:
        module = getattr(transact, name)
        assert isinstance(module, types.ModuleType) and module.__name__ == f"transact.{name}"


def test_star_import_binds_exactly_the_surface():
    namespace: dict[str, object] = {}
    exec("from transact import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(transact.__all__)


def test_readme_lists_the_surface_once():
    head = "`import transact` exports exactly these names, the package's `__all__`:\n"
    listing = readme_section("Library").split(head, 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", listing)
    assert sorted(names) == sorted(transact.__all__)
