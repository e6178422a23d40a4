"""The bundled scenario and fixtures are exactly what scripts/generate_assets.py writes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from conftest import asset_path
from transact.core import canonical_json, parse_scenario, serialize_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_assets.py"


@pytest.fixture(scope="module")
def generate_assets():
    spec = importlib.util.spec_from_file_location("generate_assets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_scenario_regenerates_byte_identically(generate_assets):
    want = asset_path("stupid.json").read_bytes()
    assert canonical_json(generate_assets.build_scenario()).encode("utf-8") == want


def test_bundled_scenario_round_trips_byte_identically():
    text = asset_path("stupid.json").read_text(encoding="utf-8")
    assert serialize_scenario(parse_scenario(text)) == text


def test_bundled_fixtures_regenerate_byte_identically(generate_assets):
    want = asset_path("stupid_fixtures.json").read_bytes()
    assert canonical_json(generate_assets.build_fixtures()).encode("utf-8") == want
