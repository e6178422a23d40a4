from __future__ import annotations

import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from transact.core import ScenarioConfig, Transcript, parse_scenario
from transact.orchestrator import run_simulation
from transact.provider import HashEmbedder, ScriptedProvider, load_fixtures


def asset_path(name: str) -> Path:
    return Path(str(resources.files("transact") / "assets" / name))


@pytest.fixture(scope="session")
def stupid_scenario() -> ScenarioConfig:
    return parse_scenario(asset_path("stupid.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def stupid_fixtures() -> list[tuple[str, str]]:
    return load_fixtures(asset_path("stupid_fixtures.json"))


@pytest.fixture(scope="session")
def golden_transcript(stupid_scenario, stupid_fixtures) -> Transcript:
    """One reference run of the bundled scenario under the scripted backend."""
    return run_simulation(stupid_scenario, ScriptedProvider(stupid_fixtures), HashEmbedder())


@pytest.fixture()
def provider_limits(monkeypatch):
    """Sets ``transact.provider``'s module limits for one test, by name:
    ``provider_limits(MAX_RETRIES=0, RESPONSE_BYTE_CAP=16)``."""

    def set_limits(**values) -> None:
        for name, value in values.items():
            monkeypatch.setattr(f"transact.provider.{name}", value)

    return set_limits
