"""Command-line behavior and the stable exit-code contract."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import transact

from conftest import asset_path
from helpers import (
    LONG_INTEGER,
    assert_run_log_ends_in_failed_turn,
    drop_first_score,
    make_scenario,
    needs_int_digit_limit,
    simple_run_fixtures,
)
from test_acceptance import GOLDEN_RUN_SHA256
from transact.cli import EXIT_GATE, EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, _summary_line, main
from transact.core import (
    fingerprint_scenario,
    parse_transcript,
    serialize_scenario,
    serialize_transcript,
    transcript_hash,
)
from transact.provider import ScriptedProvider

REPO = Path(__file__).resolve().parents[1]

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


def bundled_run_command(out: Path) -> list[str]:
    """``transact run`` of the bundled scenario and fixtures, writing ``out``."""
    return [
        sys.executable, "-m", "transact", "run",
        "--scenario", str(asset_path("stupid.json")),
        "--fixtures", str(asset_path("stupid_fixtures.json")),
        "--out", str(out),
    ]


def bundled_interactive_command(out: Path) -> list[str]:
    """``transact interactive --as Jordan`` on the bundled scenario and
    fixtures, writing ``out``."""
    return [
        sys.executable, "-m", "transact", "interactive", "--as", "Jordan",
        "--scenario", str(asset_path("stupid.json")),
        "--fixtures", str(asset_path("stupid_fixtures.json")),
        "--out", str(out),
    ]


#: The one line typed into a bundled interactive run.
TYPED_LINE = "I think we should look at the numbers together.\n"


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment for ``python -m transact`` in a child process, with
    this checkout's ``transact`` first on its path."""
    src = str(Path(transact.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}



def _no_run(*args, **kwargs):
    raise AssertionError("the command went past its input checks")


def _mkdir(path):
    path.mkdir()
    return path


def _touch(path):
    path.touch()
    return path


def unreadable_inputs(tmp_path):
    """A missing file, a directory and a file that is not UTF-8, each with a
    template of the text its error message must carry."""
    directory = tmp_path / "a-directory"
    directory.mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"opening_prompt": "caf\xe9"}'.encode("latin-1"))
    return [
        (tmp_path / "absent.json", "error: {} file not found"),
        (directory, "error: cannot read {} file"),
        (latin1, "error: cannot read {} file"),
    ]


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
        for path, message in unreadable_inputs(tmp_path):
            code = run_cli("run", "--scenario", path, "--fixtures", "x")
            assert code == EXIT_INPUT, path
            assert message.format("scenario") in capsys.readouterr().err

    def test_unreadable_fixture_file_is_input_error(self, tmp_path, scenario_file, capsys):
        scenario, _ = scenario_file
        for path, message in unreadable_inputs(tmp_path):
            code = run_cli("run", "--scenario", scenario, "--fixtures", path)
            assert code == EXIT_INPUT, path
            assert message.format("fixture") in capsys.readouterr().err

    def test_fixture_file_of_a_bad_shape_is_input_error(self, tmp_path, scenario_file, capsys):
        scenario, _ = scenario_file
        fixtures = tmp_path / "f.json"
        fixtures.write_text('[{"key": 1, "response": "x"}]', encoding="utf-8")
        assert run_cli("run", "--scenario", scenario, "--fixtures", fixtures) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: fixture file does not parse: [0].key: expected a string\n"
        )

    # 10**16 ms is past what a socket timeout can hold.
    @pytest.mark.parametrize("value", ["abc", "0", "-5", "2147483648", "10000000000000000"])
    def test_timeout_that_is_not_a_positive_integer_is_input_error(
        self, scenario_file, monkeypatch, capsys, value
    ):
        # No credential either: a run that got past the check would stop
        # before it could open a connection.
        monkeypatch.delenv("TRANSACT_API_KEY", raising=False)
        monkeypatch.setenv("TRANSACT_TIMEOUT_MS", value)
        scenario, _ = scenario_file
        code = run_cli("run", "--scenario", scenario, "--provider", "http")
        assert code == EXIT_INPUT
        assert "TRANSACT_TIMEOUT_MS" in capsys.readouterr().err

    def test_invalid_scenario_lists_violations(self, tmp_path, capsys):
        cfg = make_scenario()
        doc = serialize_scenario(cfg).replace(cfg.opening_prompt, " ")
        path = tmp_path / "bad.json"
        path.write_text(doc, encoding="utf-8")
        code = run_cli("validate", "--scenario", path)
        assert code == EXIT_INPUT
        assert "opening_prompt" in capsys.readouterr().out

    def test_an_override_that_makes_the_scenario_invalid_is_input_error(
        self, tmp_path, scenario_file, fixture_file, capsys
    ):
        scenario, _ = scenario_file
        out = tmp_path / "t.json"
        code = run_cli(
            "run", "--scenario", scenario, "--fixtures", fixture_file, "--k", "0", "--out", out
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "invalid scenario:" in err
        assert "  k: retrieval fan-out k must be >= 1" in err.splitlines()
        assert not out.exists()
        assert not (tmp_path / "t.json.log").exists()

    def test_budget_and_turn_overrides_reach_the_scenario(
        self, tmp_path, scenario_file, fixture_file, capsys
    ):
        scenario, _ = scenario_file
        code = run_cli(
            "run", "--scenario", scenario, "--fixtures", fixture_file,
            "--budget", "0", "--max-turns", "0",
        )
        assert code == EXIT_INPUT
        lines = capsys.readouterr().err.splitlines()
        assert "  tool_budget: tool budget must be >= 1" in lines
        assert "  max_turns: max_turns must be >= 1" in lines

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

    @pytest.mark.parametrize(
        "base_url, api_key, message",
        [
            ("ftp://x", "k", "base URL must be an http:// or https:// URL, got 'ftp://x/"),
            ("http:///v1", "k", "the base URL 'http:///v1/chat/completions' names no host"),
            ("http://example.invalid:99999/v1", "k", "invalid port in the base URL"),
            ("http://example.invalid:port/v1", "k", "invalid port in the base URL"),
            (None, None, "no API credential: set TRANSACT_API_KEY"),
        ],
        ids=["scheme", "no-host", "port-out-of-range", "port-not-a-number", "missing-key"],
    )
    def test_bad_http_setting_is_input_error(
        self, scenario_file, monkeypatch, capsys, base_url, api_key, message
    ):
        # Every case fails while the clients are built; a run that got past
        # that would fail the test before it could open a connection.
        monkeypatch.setattr("transact.cli.run_simulation", _no_run)
        for name, value in (("TRANSACT_BASE_URL", base_url), ("TRANSACT_API_KEY", api_key)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        scenario, _ = scenario_file
        code = run_cli("run", "--scenario", scenario, "--provider", "http")
        assert code == EXIT_INPUT
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, out_path",
        [
            ("run", lambda tmp: _mkdir(tmp / "outdir")),
            ("run", lambda tmp: _mkdir(tmp / "t.json.log").with_suffix("")),
            ("run", lambda tmp: tmp / "absent" / "t.json"),
            ("run", lambda tmp: _touch(tmp / "a-file") / "t.json"),
            ("interactive", lambda tmp: _mkdir(tmp / "outdir")),
        ],
        ids=["directory", "log-directory", "missing-parent", "file-parent", "interactive"],
    )
    def test_unwritable_out_is_input_error_before_the_run(
        self, tmp_path, scenario_file, fixture_file, monkeypatch, capsys, command, out_path
    ):
        built: list[ScriptedProvider] = []

        class Recorded(ScriptedProvider):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("transact.cli.ScriptedProvider", Recorded)
        monkeypatch.setattr("builtins.input", _no_run)
        scenario, cfg = scenario_file
        out = out_path(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        extra = ("--as", cfg.first_speaker) if command == "interactive" else ()
        code = run_cli(
            command, "--scenario", scenario, "--fixtures", fixture_file, "--out", out, *extra
        )
        assert code == EXIT_INPUT
        assert f"error: --out {out}: " in capsys.readouterr().err
        # No provider call was made, and nothing was written.
        assert [p.remaining() for p in built] == [len(simple_run_fixtures(cfg))]
        assert sorted(tmp_path.rglob("*")) == before

    def test_fixture_underrun_is_runtime_error_with_partial_transcript(
        self, tmp_path, capsys
    ):
        cfg = make_scenario(max_turns=3)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(serialize_scenario(cfg), encoding="utf-8")
        entries = [
            {"key": k, "response": r}
            for k, r in simple_run_fixtures(cfg)[: 14]  # two full turns of three
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
        assert [u.speaker for u in partial.utterances] == ["Alex", "Jordan"]
        assert_run_log_ends_in_failed_turn(tmp_path / "partial.json.log", 2)
        # Each completed turn's summary line is printed all the same.
        assert capsys.readouterr().out == "".join(
            f"[{u.turn:02d}] {u.speaker} ({u.chosen_ego.value}): {u.text}\n"
            for u in partial.utterances
        )
        assert run_cli("analyze", "--transcript", out) == EXIT_OK

    def test_failed_index_build_still_writes_the_transcript_and_log(self, tmp_path, capsys):
        # "..." has no token to hash-embed, so the first partition's build fails.
        tree = json.loads(asset_path("stupid.json").read_text(encoding="utf-8"))
        tree["agents"][0]["personas"][0]["memories"][0]["context"] = "..."
        scenario = tmp_path / "no-tokens.json"
        scenario.write_text(json.dumps(tree), encoding="utf-8")
        out = tmp_path / "partial.json"
        fixtures = asset_path("stupid_fixtures.json")
        code = run_cli("run", "--scenario", scenario, "--fixtures", fixtures, "--out", out)
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "index build failed: embedding failed for record 'jordan-parent-01'" in err
        assert f"partial transcript written to {out}" in err
        partial = parse_transcript(out.read_text(encoding="utf-8"))
        assert partial.utterances == ()
        assert partial.termination_reason is None
        assert (tmp_path / "partial.json.log").read_text(encoding="utf-8") == ""

    def test_bundled_scenario_runs_from_the_command_line(self, tmp_path, capsys):
        out = tmp_path / "golden.json"
        code = run_cli(
            "run",
            "--scenario", asset_path("stupid.json"),
            "--fixtures", asset_path("stupid_fixtures.json"),
            "--out", out,
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == f"transcript hash: {GOLDEN_RUN_SHA256}"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RUN_SHA256
        t = parse_transcript(out.read_text(encoding="utf-8"))
        assert len(t.utterances) == 10
        # Every search step is logged, a repeated one the index's memo answered
        # included, and every provider call: a change that adds or drops one
        # fails here even when the transcript hash holds. Each turn logs its
        # start, its decision and its utterance.
        log = (tmp_path / "golden.json.log").read_text(encoding="utf-8")
        events = [json.loads(line) for line in log.splitlines()]
        assert sum(e.get("action") == "search" for e in events) == 30
        kinds = Counter(e["kind"] for e in events)
        assert [kinds[k] for k in ("provider_call", "turn_start", "decision", "utterance")] == [
            70, 10, 10, 10,
        ]

    def test_hash_without_out_is_the_golden_hash(self, capsys):
        code = run_cli(
            "run",
            "--scenario", asset_path("stupid.json"),
            "--fixtures", asset_path("stupid_fixtures.json"),
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == f"transcript hash: {GOLDEN_RUN_SHA256}"

    def test_a_generated_large_memory_run_prints_the_oracle_hash(self, tmp_path, capsys):
        # Partitions of up to 1,500 records: the printed hash and the written
        # file must equal the hash that the benchmark's independent exact
        # oracle predicts for the seed.
        subprocess.run(
            [sys.executable, "-m", "perfbench.gen", "large_memory", "3", str(tmp_path)],
            cwd=REPO, check=True, capture_output=True, timeout=120,
        )
        expected = json.loads((tmp_path / "expected.json").read_text(encoding="utf-8"))
        out = tmp_path / "run.json"
        code = run_cli(
            "run", "--scenario", tmp_path / "scenario.json",
            "--fixtures", tmp_path / "fixtures.json", "--out", out,
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed == f"transcript hash: {expected['transcript']}"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["transcript"]

    def test_reader_that_closes_stdout_after_the_first_line_stops_only_the_summary(
        self, tmp_path, golden_transcript
    ):
        fcntl = pytest.importorskip("fcntl")
        termios = pytest.importorskip("termios")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs a pipe whose capacity can be set")
        # A one-page pipe, filled so that the first summary line fills it
        # exactly: the run cannot write its second line before the read end
        # is closed, however the two processes are scheduled.
        first = (_summary_line(golden_transcript.utterances[0]) + "\n").encode("utf-8")
        r, w = os.pipe()
        size = fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1)  # rounded up to one page
        os.write(w, b"-" * (size - len(first)))
        out = tmp_path / "piped.json"
        proc = subprocess.Popen(
            bundled_run_command(out), stdout=w, stderr=subprocess.PIPE, text=True,
            cwd=tmp_path, env=subprocess_env(PYTHONUNBUFFERED="1"),
        )
        os.close(w)

        def queued() -> int:
            count = bytearray(4)
            fcntl.ioctl(r, termios.FIONREAD, count)
            return int.from_bytes(count, sys.byteorder)

        deadline = time.monotonic() + 60
        try:
            while queued() < size:
                assert proc.poll() is None, "the run ended before its first line filled the pipe"
                assert time.monotonic() < deadline, "the first line never filled the pipe"
                time.sleep(0.005)
        finally:
            os.close(r)  # the child's next write fails with EPIPE
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_RUNTIME
        assert err == "error: [Errno 32] Broken pipe\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RUN_SHA256
        assert (tmp_path / "piped.json.log").stat().st_size > 0

    def test_buffered_stdout_to_a_closed_pipe_fails_once_after_the_whole_run(self, tmp_path):
        # Block-buffered, the lines reach the pipe only when stdout is flushed
        # after the run, and what the failed flush left buffered must not fail
        # again as the interpreter exits.
        r, w = os.pipe()
        os.close(r)
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        out = tmp_path / "piped.json"
        try:
            proc = subprocess.run(
                bundled_run_command(out), stdout=w, stderr=subprocess.PIPE, text=True,
                timeout=120, cwd=tmp_path, env=env,
            )
        finally:
            os.close(w)
        assert proc.returncode == EXIT_RUNTIME
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_RUN_SHA256


class TestAnalyze:
    @pytest.fixture()
    def golden_file(self, tmp_path, golden_transcript):
        path = tmp_path / "golden.json"
        path.write_text(serialize_transcript(golden_transcript), encoding="utf-8")
        return path

    def test_report_contains_the_rescue_loop(self, golden_file, capsys):
        # The paper's game: Jordan's Child and Alex's Parent in a rescue loop,
        # with every ego turn within the scenario's search budget.
        scenario = asset_path("stupid.json")
        assert run_cli("analyze", "--transcript", golden_file, "--scenario", scenario) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert (
            "  turns 1-9: [Jordan as Child -> Alex as Parent] x4 (period 2) [rescue pattern]"
            in lines
        )
        assert "budget audit (limit 5): clean" in lines

    def test_fail_on_loops_gate(self, golden_file):
        assert run_cli("analyze", "--transcript", golden_file, "--fail-on-loops") == EXIT_GATE

    def test_a_transcript_with_no_loop_reports_none(self, tmp_path, golden_transcript, capsys):
        # Two utterances hold no loop: a period-2 loop needs four.
        short = dataclasses.replace(golden_transcript, utterances=golden_transcript.utterances[:2])
        path = tmp_path / "short.json"
        path.write_text(serialize_transcript(short), encoding="utf-8")
        assert run_cli("analyze", "--transcript", path, "--fail-on-loops") == EXIT_OK
        assert "game loops: none detected" in capsys.readouterr().out.splitlines()

    def test_empty_file_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("", encoding="utf-8")
        assert run_cli("analyze", "--transcript", empty) == EXIT_INPUT

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        for path, message in unreadable_inputs(tmp_path):
            assert run_cli("analyze", "--transcript", path) == EXIT_INPUT, path
            assert message.format("transcript") in capsys.readouterr().err

    def test_hits_and_scores_length_mismatch_is_input_error(self, tmp_path, golden_transcript):
        tree = json.loads(serialize_transcript(golden_transcript))
        drop_first_score(tree)
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli("analyze", "--transcript", path) == EXIT_INPUT

    def test_chosen_ego_other_than_the_decision_is_input_error(
        self, tmp_path, golden_transcript, capsys
    ):
        tree = json.loads(serialize_transcript(golden_transcript))
        u = tree["utterances"][0]
        parent = next(c for c in u["candidates"] if c["ego_state"] == "Parent")
        assert u["decision"]["chosen"] != "Parent"
        u["chosen_ego"], u["text"] = "Parent", parent["text"]
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli("analyze", "--transcript", path) == EXIT_INPUT
        assert "utterances[0]: chosen_ego" in capsys.readouterr().err

    def test_score_too_large_for_a_float_is_input_error(self, tmp_path, golden_transcript, capsys):
        tree = json.loads(serialize_transcript(golden_transcript))
        i, j = next(
            (i, j)
            for i, u in enumerate(tree["utterances"])
            for j, event in enumerate(u["retrieval_log"])
            if event["scores"]
        )
        tree["utterances"][i]["retrieval_log"][j]["scores"][0] = 10**400
        path = tmp_path / "huge-score.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert run_cli("analyze", "--transcript", path) == EXIT_INPUT
        where = f"utterances[{i}].retrieval_log[{j}].scores[0]"
        assert f"{where}: number out of range for a float" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out_path",
        [lambda tmp: _mkdir(tmp / "outdir"), lambda tmp: tmp / "absent" / "report.json"],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_out_is_input_error_before_reading(
        self, tmp_path, golden_file, monkeypatch, capsys, out_path
    ):
        monkeypatch.setattr("transact.cli._load_document", _no_run)
        out = out_path(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("analyze", "--transcript", golden_file, "--out", out) == EXIT_INPUT
        assert f"error: --out {out}: " in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_is_input_error(self, golden_file, capsys, budget):
        assert run_cli("analyze", "--transcript", golden_file, "--budget", budget) == EXIT_INPUT
        assert f"error: --budget must be >= 1, got {budget}" in capsys.readouterr().err

    @pytest.fixture()
    def budget_two(self, tmp_path, stupid_scenario, golden_transcript):
        """A budget-2 copy of the bundled scenario, and the golden transcript
        re-pinned to it with one candidate that made 3 searches."""
        cfg = dataclasses.replace(stupid_scenario, tool_budget=2)
        first, *rest = golden_transcript.utterances
        over = dataclasses.replace(first.candidates[0], searches_performed=3)
        first = dataclasses.replace(first, candidates=(over, *first.candidates[1:]))
        transcript = dataclasses.replace(
            golden_transcript,
            scenario_fingerprint=fingerprint_scenario(cfg),
            utterances=(first, *rest),
        )
        scenario_path = tmp_path / "budget2.json"
        scenario_path.write_text(serialize_scenario(cfg), encoding="utf-8")
        transcript_path = tmp_path / "budget2-run.json"
        transcript_path.write_text(serialize_transcript(transcript), encoding="utf-8")
        return scenario_path, transcript_path

    def test_scenario_sets_the_audited_budget(self, budget_two, capsys):
        scenario, transcript = budget_two
        assert run_cli("analyze", "--transcript", transcript) == EXIT_OK
        assert "budget audit (limit 5): clean" in capsys.readouterr().out
        assert run_cli("analyze", "--transcript", transcript, "--scenario", scenario) == EXIT_OK
        out = capsys.readouterr().out
        assert "budget audit (limit 2): FAILED" in out
        assert "turn 0, Alex/Parent: 3 searches" in out

    def test_scenario_of_another_run_is_input_error(self, golden_file, budget_two, capsys):
        scenario, _ = budget_two
        assert run_cli("analyze", "--transcript", golden_file, "--scenario", scenario) == EXIT_INPUT
        assert "is not the scenario of this transcript" in capsys.readouterr().err

    def test_unparseable_scenario_is_input_error(self, tmp_path, golden_file, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"agents": []}', encoding="utf-8")
        assert run_cli("analyze", "--transcript", golden_file, "--scenario", broken) == EXIT_INPUT
        assert "error: scenario does not parse: " in capsys.readouterr().err

    def test_scenario_and_budget_are_exclusive(self, golden_file, budget_two, capsys):
        scenario, _ = budget_two
        with pytest.raises(SystemExit) as exit_info:
            run_cli("analyze", "--transcript", golden_file, "--scenario", scenario, "--budget", 2)
        assert exit_info.value.code == EXIT_INPUT
        assert "not allowed with argument" in capsys.readouterr().err

    def test_report_file_regenerates_byte_identically(self, tmp_path, golden_file):
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert run_cli("analyze", "--transcript", golden_file, "--out", first) == EXIT_OK
        assert run_cli("analyze", "--transcript", golden_file, "--out", second) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()


class TestValidate:
    def test_valid_scenario(self, scenario_file, capsys):
        scenario, _ = scenario_file
        for path in (scenario, asset_path("stupid.json")):
            assert run_cli("validate", "--scenario", path) == EXIT_OK
            assert "scenario valid" in capsys.readouterr().out

    def test_unparseable_scenario(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert run_cli("validate", "--scenario", path) == EXIT_INPUT

    def test_an_escaped_surrogate_pair_is_valid(self, tmp_path, capsys):
        tree = json.loads(asset_path("stupid.json").read_text(encoding="utf-8"))
        tree["opening_prompt"] += " \U0001F600"
        path = tmp_path / "emoji.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        assert "\\ud83d\\ude00" in path.read_text(encoding="utf-8")
        assert run_cli("validate", "--scenario", path) == EXIT_OK
        assert "scenario valid" in capsys.readouterr().out

    def test_weight_too_large_for_a_float_is_input_error(self, tmp_path, stupid_scenario, capsys):
        text = serialize_scenario(stupid_scenario)
        weight = '"relevance": ' + json.dumps(stupid_scenario.decision_weights.relevance)
        assert weight in text
        path = tmp_path / "huge-weight.json"
        path.write_text(text.replace(weight, '"relevance": ' + "9" * 400), encoding="utf-8")
        assert run_cli("validate", "--scenario", path) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "decision_weights.relevance: number out of range for a float" in err


def jordan_against_alex(tmp_path, max_turns: int, alex_turns: int):
    """A scenario file where Jordan speaks first, and a fixture file with
    Alex's replies for ``alex_turns`` turns."""
    cfg = make_scenario(max_turns=max_turns, first_speaker="Jordan")
    scenario = tmp_path / "s.json"
    scenario.write_text(serialize_scenario(cfg), encoding="utf-8")
    alex_cfg = make_scenario(max_turns=2 * alex_turns, first_speaker="Alex")
    entries = [
        {"key": k, "response": r}
        for k, r in simple_run_fixtures(alex_cfg)
        if k.startswith("Alex/")
    ]
    fixtures = tmp_path / "f.json"
    fixtures.write_text(json.dumps(entries), encoding="utf-8")
    return cfg, scenario, fixtures


def typed_lines(monkeypatch, capsys, lines):
    """Stand in for the terminal: each prompt takes the next line, and records
    what the command printed to stdout since the previous prompt."""
    lines, printed = iter(lines), []

    def fake_input(prompt=""):
        printed.append(capsys.readouterr().out)
        return next(lines)

    monkeypatch.setattr("builtins.input", fake_input)
    return printed


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

    def test_stdout_shows_the_intro_then_each_alex_line_as_it_comes_then_the_hash(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg, scenario, fixtures = jordan_against_alex(tmp_path, max_turns=4, alex_turns=2)
        printed = typed_lines(monkeypatch, capsys, ["Let us look.", "Fine, I will fix it."])
        out = tmp_path / "t.json"
        code = run_cli(
            "interactive", "--scenario", scenario, "--as", "Jordan",
            "--fixtures", fixtures, "--out", out,
        )
        assert code == EXIT_OK
        printed.append(capsys.readouterr().out)
        data = out.read_bytes()
        alex = [
            f"[{u.turn:02d}] Alex ({u.chosen_ego.value}): {text[:80]}\n"
            for u in parse_transcript(data.decode("utf-8")).utterances
            if u.speaker == "Alex"
            for text in [u.text.replace("\n", " ")]
        ]
        assert len(alex) == 2
        assert printed == [
            f"You are Jordan. Situation: {cfg.opening_prompt}\n"
            "Type your lines; Ctrl-D ends the conversation.\n",
            alex[0],
            alex[1]
            + f"transcript written to {out}\n"
            + f"transcript hash: {hashlib.sha256(data).hexdigest()}\n",
        ]

    def test_prompt_goes_to_stderr_so_stdout_keeps_only_the_run(self, tmp_path):
        proc = subprocess.run(
            bundled_interactive_command(tmp_path / "mine.json"), input=TYPED_LINE,
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=subprocess_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Jordan> " in proc.stderr
        # The prompt left open at the end of input is ended with a newline.
        assert proc.stderr.endswith("\n")
        assert [line for line in proc.stdout.splitlines() if "Jordan> " in line] == []
        data = (tmp_path / "mine.json").read_bytes()
        assert proc.stdout.splitlines()[-1] == (
            f"transcript hash: {hashlib.sha256(data).hexdigest()}"
        )
        assert (tmp_path / "mine.json.log").is_file()
        assert run_cli("analyze", "--transcript", tmp_path / "mine.json") == EXIT_OK

    def test_stdout_closed_before_the_intro_stops_only_the_printed_lines(self, tmp_path):
        # The pipe's read end is closed before the child starts, so its first
        # write, the intro, fails; the run still plays out and writes the
        # transcript a run with a working stdout writes.
        ok = subprocess.run(
            bundled_interactive_command(tmp_path / "ok.json"), input=TYPED_LINE,
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=subprocess_env(),
        )
        assert ok.returncode == EXIT_OK, ok.stderr
        r, w = os.pipe()
        os.close(r)
        out = tmp_path / "piped.json"
        try:
            proc = subprocess.run(
                bundled_interactive_command(out), input=TYPED_LINE, stdout=w,
                stderr=subprocess.PIPE, text=True, timeout=120, cwd=tmp_path,
                env=subprocess_env(PYTHONUNBUFFERED="1"),
            )
        finally:
            os.close(w)
        assert proc.returncode == EXIT_RUNTIME
        assert "Jordan> " in proc.stderr
        assert proc.stderr.endswith("\nerror: [Errno 32] Broken pipe\n")
        assert out.read_bytes() == (tmp_path / "ok.json").read_bytes()
        assert (tmp_path / "piped.json.log").stat().st_size > 0

    def test_a_line_utf8_cannot_encode_is_refused_and_the_prompt_shown_again(self, tmp_path):
        # In the C locale, stdin decodes the byte 0xff as the lone surrogate \udcff.
        env = subprocess_env(LC_ALL="C")
        env.pop("PYTHONIOENCODING", None)
        out = tmp_path / "mine.json"
        proc = subprocess.run(
            bundled_interactive_command(out), input=b"abc \xff def\n",
            capture_output=True, timeout=120, cwd=tmp_path, env=env,
        )
        stderr = proc.stderr.decode("utf-8", "replace")
        assert proc.returncode == EXIT_OK, stderr
        assert stderr.count("Jordan> ") == 2
        assert "line refused" in stderr
        data = out.read_bytes()
        assert (tmp_path / "mine.json.log").stat().st_size > 0
        assert proc.stdout.decode("utf-8").splitlines()[-1] == (
            f"transcript hash: {hashlib.sha256(data).hexdigest()}"
        )
        t = parse_transcript(data.decode("utf-8"))
        assert [u.speaker for u in t.utterances] == ["Alex"]

    def test_fixture_underrun_is_runtime_error_with_partial_transcript(
        self, tmp_path, monkeypatch, capsys
    ):
        _, scenario, fixtures = jordan_against_alex(tmp_path, max_turns=4, alex_turns=1)
        printed = typed_lines(monkeypatch, capsys, ["Let us look.", "Fine, I will fix it."])
        out = tmp_path / "partial.json"
        code = run_cli(
            "interactive", "--scenario", scenario, "--as", "Jordan",
            "--fixtures", fixtures, "--out", out,
        )
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert len(printed) == 2
        assert "transcript hash" not in captured.out
        assert f"partial transcript written to {out}" in captured.err
        partial = parse_transcript(out.read_text(encoding="utf-8"))
        assert partial.termination_reason is None
        assert [u.speaker for u in partial.utterances] == ["Jordan", "Alex", "Jordan"]
        assert_run_log_ends_in_failed_turn(tmp_path / "partial.json.log", 3)


#: Each command on one input file, and the name its parse error gives the file.
each_input_file = pytest.mark.parametrize(
    "command, located",
    [
        (("validate", "--scenario", "{path}"), "scenario does not parse"),
        (
            ("run", "--scenario", str(asset_path("stupid.json")), "--fixtures", "{path}"),
            "fixture file does not parse",
        ),
        (("analyze", "--transcript", "{path}"), "transcript does not parse"),
    ],
    ids=["validate", "run", "analyze"],
)


@each_input_file
def test_input_nested_too_deeply_is_input_error(tmp_path, capsys, command, located):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert run_cli(*(arg.format(path=deep) for arg in command)) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {located}: not valid JSON: nested too deeply\n"


@needs_int_digit_limit
@each_input_file
def test_an_integer_past_the_digit_limit_is_input_error(tmp_path, capsys, command, located):
    long = tmp_path / "long.json"
    long.write_text(LONG_INTEGER, encoding="utf-8")
    assert run_cli(*(arg.format(path=long) for arg in command)) == EXIT_INPUT
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == (
        f"error: {located}: not valid JSON: integer of more than {limit} digits: "
        "line 1 column 1 (char 0)\n"
    )


@pytest.mark.parametrize(
    "command, located",
    [
        (("validate", "--scenario", "{scenario}"), "scenario does not parse"),
        (
            ("run", "--scenario", "{scenario}", "--fixtures", str(asset_path("stupid_fixtures.json")),
             "--out", "{out}"),
            "scenario does not parse",
        ),
        (
            ("run", "--scenario", str(asset_path("stupid.json")), "--fixtures", "{fixtures}",
             "--out", "{out}"),
            "fixture file does not parse",
        ),
        (("analyze", "--transcript", "{transcript}"), "transcript does not parse"),
    ],
    ids=["validate", "run-scenario", "run-fixtures", "analyze"],
)
def test_an_unpaired_surrogate_escape_is_input_error(
    tmp_path, capsys, golden_transcript, command, located
):
    # Each file is valid but for one string ending in a lone surrogate, which
    # json.dumps writes as the escape \ud800 and UTF-8 cannot encode.
    scenario = json.loads(asset_path("stupid.json").read_text(encoding="utf-8"))
    scenario["opening_prompt"] += "\ud800"
    fixtures = json.loads(asset_path("stupid_fixtures.json").read_text(encoding="utf-8"))
    fixtures[0]["response"] += "\ud800"
    transcript = json.loads(serialize_transcript(golden_transcript))
    transcript["scenario_fingerprint"] += "\ud800"
    paths = {"out": tmp_path / "out.json"}
    for name, tree in (("scenario", scenario), ("fixtures", fixtures), ("transcript", transcript)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(tree), encoding="utf-8")
    assert run_cli(*(arg.format(**paths) for arg in command)) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: {located}: unpaired surrogate escape \\ud800: line 1 column "
    )
    # Nothing is written: neither --out nor its run log.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fixtures.json", "scenario.json", "transcript.json",
    ]
