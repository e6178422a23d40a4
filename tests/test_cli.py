"""Command-line behavior and the stable exit-code contract."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from conftest import asset_path
from helpers import drop_first_score, make_scenario, simple_run_fixtures
from transact.cli import EXIT_GATE, EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, main
from transact.core import (
    parse_transcript,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
    transcript_to_tree,
)


@pytest.fixture()
def scenario_file(tmp_path):
    cfg = make_scenario(max_turns=2)
    path = tmp_path / "scenario.json"
    path.write_text(serialize_scenario(cfg), encoding="utf-8")
    return path, cfg


@pytest.fixture()
def fixture_file(tmp_path, scenario_file):
    _, cfg = scenario_file
    entries = [
        {"key": key, "response": response} for key, response in simple_run_fixtures(cfg)
    ]
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def run_cli(*args: str) -> int:
    return main([str(a) for a in args])


class TestRun:
    def test_scripted_end_to_end(self, tmp_path, scenario_file, fixture_file, capsys):
        scenario, _ = scenario_file
        out = tmp_path / "t.json"
        code = run_cli(
            "run", "--scenario", scenario, "--provider", "scripted",
            "--fixtures", fixture_file, "--out", out,
        )
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "[00] Alex" in captured
        assert "transcript hash:" in captured
        reloaded = parse_transcript(out.read_text(encoding="utf-8"))
        assert len(reloaded.utterances) == 2
        assert (tmp_path / "t.json.log").exists()

    def test_printed_hash_is_the_hash_of_the_written_bytes(
        self, tmp_path, scenario_file, fixture_file, capsys
    ):
        scenario, _ = scenario_file
        out = tmp_path / "t.json"
        code = run_cli("run", "--scenario", scenario, "--fixtures", fixture_file, "--out", out)
        assert code == EXIT_OK
        printed = re.search(r"transcript hash: (\w+)", capsys.readouterr().out).group(1)
        assert printed == hashlib.sha256(out.read_bytes()).hexdigest()
        assert printed == transcript_hash(parse_transcript(out.read_text(encoding="utf-8")))

    def test_missing_scenario_file_is_input_error(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", tmp_path / "absent.json", "--fixtures", "x")
        assert code == EXIT_INPUT

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        cfg = make_scenario()
        doc = serialize_scenario(cfg).replace(cfg.opening_prompt, " ")
        path = tmp_path / "bad.json"
        path.write_text(doc, encoding="utf-8")
        code = run_cli("validate", "--scenario", path)
        assert code == EXIT_INPUT
        assert "opening_prompt" in capsys.readouterr().out

    def test_same_seed_prints_same_hash(self, tmp_path, scenario_file, fixture_file, capsys):
        scenario, _ = scenario_file

        def one_run() -> str:
            code = run_cli(
                "run", "--scenario", scenario, "--fixtures", fixture_file, "--seed", "7",
            )
            assert code == EXIT_OK
            out = capsys.readouterr().out
            return re.search(r"transcript hash: (\w+)", out).group(1)

        assert one_run() == one_run()

    def test_seed_override_changes_the_hash(self, scenario_file, fixture_file, capsys):
        scenario, _ = scenario_file

        def one_run(seed: str) -> str:
            assert run_cli(
                "run", "--scenario", scenario, "--fixtures", fixture_file, "--seed", seed,
            ) == EXIT_OK
            return re.search(r"transcript hash: (\w+)", capsys.readouterr().out).group(1)

        assert one_run("1") != one_run("2")

    def test_scripted_without_fixtures_is_input_error(self, scenario_file):
        scenario, _ = scenario_file
        assert run_cli("run", "--scenario", scenario) == EXIT_INPUT

    def test_http_without_credential_is_runtime_error(self, scenario_file, monkeypatch, capsys):
        monkeypatch.delenv("TRANSACT_API_KEY", raising=False)
        scenario, _ = scenario_file
        code = run_cli("run", "--scenario", scenario, "--provider", "http")
        assert code == EXIT_RUNTIME
        assert "TRANSACT_API_KEY" in capsys.readouterr().err

    def test_fixture_underrun_is_runtime_error_with_partial_transcript(
        self, tmp_path, scenario_file, capsys
    ):
        scenario, cfg = scenario_file
        entries = [
            {"key": k, "response": r}
            for k, r in simple_run_fixtures(cfg)[: 7]  # one full turn only
        ]
        fixtures = tmp_path / "short.json"
        fixtures.write_text(json.dumps(entries), encoding="utf-8")
        out = tmp_path / "partial.json"
        code = run_cli(
            "run", "--scenario", scenario, "--fixtures", fixtures, "--out", out,
        )
        assert code == EXIT_RUNTIME
        partial = parse_transcript(out.read_text(encoding="utf-8"))
        assert partial.termination_reason is None
        assert len(partial.utterances) == 1

    def test_bundled_scenario_runs_from_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "stupid-run.json"
        code = run_cli(
            "run",
            "--scenario", asset_path("stupid.json"),
            "--fixtures", asset_path("stupid_fixtures.json"),
            "--out", out,
        )
        assert code == EXIT_OK
        t = parse_transcript(out.read_text(encoding="utf-8"))
        assert len(t.utterances) == 10


class TestAnalyze:
    @pytest.fixture()
    def golden_file(self, tmp_path, golden_transcript):
        path = tmp_path / "golden.json"
        path.write_text(serialize_transcript(golden_transcript), encoding="utf-8")
        return path

    def test_report_contains_the_rescue_loop(self, golden_file, capsys):
        assert run_cli("analyze", "--transcript", golden_file) == EXIT_OK
        out = capsys.readouterr().out
        assert "Jordan as Child -> Alex as Parent" in out
        assert "budget audit (limit 5): clean" in out

    def test_fail_on_loops_gate(self, golden_file):
        assert run_cli("analyze", "--transcript", golden_file, "--fail-on-loops") == EXIT_GATE

    def test_empty_file_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("", encoding="utf-8")
        assert run_cli("analyze", "--transcript", empty) == EXIT_INPUT

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("analyze", "--transcript", tmp_path / "nope.json") == EXIT_INPUT

    def test_hits_and_scores_length_mismatch_is_input_error(self, tmp_path, golden_transcript):
        tree = transcript_to_tree(golden_transcript)
        drop_first_score(tree)
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli("analyze", "--transcript", path) == EXIT_INPUT

    def test_report_file_regenerates_byte_identically(self, tmp_path, golden_file):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert run_cli("analyze", "--transcript", golden_file, "--out", first) == EXIT_OK
        assert run_cli("analyze", "--transcript", golden_file, "--out", second) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()


class TestValidate:
    def test_valid_scenario(self, scenario_file, capsys):
        scenario, _ = scenario_file
        assert run_cli("validate", "--scenario", scenario) == EXIT_OK
        assert "scenario valid" in capsys.readouterr().out

    def test_unparseable_scenario(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run_cli("validate", "--scenario", path) == EXIT_INPUT


class TestInteractive:
    def test_human_plays_jordan_against_scripted_alex(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = make_scenario(max_turns=2, first_speaker="Jordan")
        scenario = tmp_path / "s.json"
        scenario.write_text(serialize_scenario(cfg), encoding="utf-8")
        alex_cfg = make_scenario(max_turns=2, first_speaker="Alex")
        fixtures = tmp_path / "f.json"
        fixtures.write_text(
            json.dumps([
                {"key": k, "response": r} for k, r in simple_run_fixtures(alex_cfg)
            ]),
            encoding="utf-8",
        )
        lines = iter(["I think we can sort the totals together."])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        out = tmp_path / "t.json"
        code = run_cli(
            "interactive", "--scenario", scenario, "--as", "Jordan",
            "--fixtures", fixtures, "--out", out,
        )
        assert code == EXIT_OK
        t = parse_transcript(out.read_text(encoding="utf-8"))
        assert len(t.utterances) == 2
        assert t.utterances[0].decision.human is True
        assert t.utterances[1].speaker == "Alex"
        printed = capsys.readouterr().out
        assert "[01] Alex" in printed  # the engine's reply is shown to the human

    def test_unknown_agent_is_input_error(self, scenario_file, fixture_file):
        scenario, _ = scenario_file
        code = run_cli(
            "interactive", "--scenario", scenario, "--as", "Nobody", "--fixtures", fixture_file,
        )
        assert code == EXIT_INPUT

    def test_eof_at_turn_zero_writes_empty_transcript(
        self, tmp_path, monkeypatch, scenario_file, fixture_file
    ):
        scenario, cfg = scenario_file
        first = cfg.first_speaker

        def eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", eof)
        out = tmp_path / "t.json"
        code = run_cli(
            "interactive", "--scenario", scenario, "--as", first,
            "--fixtures", fixture_file, "--out", out,
        )
        assert code == EXIT_OK
        t = parse_transcript(out.read_text(encoding="utf-8"))
        assert t.utterances == ()
        assert t.termination_reason is not None
