"""Command-line entry point: validate and run scenarios, analyze transcripts,
or play one agent yourself from the terminal.

Exit codes are stable: 0 success, 1 analysis gate tripped, 2 input error,
3 provider or runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import os
import sys
from pathlib import Path

from .analysis import build_report, render_report
from .core import (
    ScenarioConfig,
    ScenarioFormatError,
    Transcript,
    TranscriptFormatError,
    Utterance,
    canonical_json,
    fingerprint_scenario,
    parse_scenario,
    parse_transcript,
    serialize_transcript,
    validate_scenario,
)
from .orchestrator import InvalidScenarioError, SimulationError, run_simulation
from .provider import HashEmbedder, ProviderError, ScriptedProvider, http_backend, load_fixtures
from .runlog import RunLog

EXIT_OK = 0
EXIT_GATE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

#: The search budget ``analyze`` audits against without --budget or --scenario.
DEFAULT_AUDIT_BUDGET = 5


class CliInputError(Exception):
    """Bad arguments or unreadable/invalid input files (exit 2)."""


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (CliInputError, InvalidScenarioError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transact",
        description="Run ego-state conversation simulations and analyze their transcripts.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.set_defaults(out=None, play_as=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a scenario and write its transcript")
    _add_run_flags(run)
    run.set_defaults(handler=cmd_run)

    interactive = sub.add_parser("interactive", help="run a scenario playing one agent yourself")
    _add_run_flags(interactive)
    interactive.add_argument("--as", dest="play_as", required=True, metavar="AGENT",
                             help="scenario agent played from the terminal")
    interactive.set_defaults(handler=cmd_run)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--scenario", required=True)
    validate.set_defaults(handler=cmd_validate)

    analyze = sub.add_parser("analyze", help="mine a transcript for game patterns")
    analyze.add_argument("--transcript", required=True)
    analyze.add_argument("--out", help="write the structured report here")
    budget = analyze.add_mutually_exclusive_group()
    budget.add_argument("--budget", type=int,
                        help=f"search budget to audit against (default {DEFAULT_AUDIT_BUDGET})")
    budget.add_argument("--scenario",
                        help="audit against this scenario's tool_budget; its fingerprint "
                        "must match the transcript's")
    analyze.add_argument("--fail-on-loops", action="store_true",
                         help="exit 1 when game loops are detected")
    analyze.set_defaults(handler=cmd_analyze)

    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help="write the canonical transcript here")
    p.add_argument("--provider", choices=["scripted", "http"], default="scripted")
    p.add_argument("--fixtures", help="fixture file for the scripted provider")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--k", type=int, help="override the retrieval fan-out")
    p.add_argument("--budget", type=int, help="override the search budget")
    p.add_argument("--max-turns", type=int, help="override the turn limit")


def _read_input(path: Path, what: str) -> str:
    """Read a UTF-8 input file; a missing or unreadable one is an input error."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliInputError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {what} file {path}: {e}") from e


def _read_scenario(path: Path) -> ScenarioConfig:
    text = _read_input(path, "scenario")
    try:
        return parse_scenario(text)
    except ScenarioFormatError as e:
        raise CliInputError(f"scenario does not parse: {e}") from e


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    cfg = _read_scenario(Path(args.scenario))
    overrides = {}
    for flag, field_name in (
        ("seed", "seed"), ("k", "k"), ("budget", "tool_budget"), ("max_turns", "max_turns"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    violations = validate_scenario(cfg)
    if violations:
        raise CliInputError(
            "invalid scenario:\n" + "\n".join(f"  {v}" for v in violations)
        )
    return cfg


def _build_backend(args: argparse.Namespace):
    if args.provider == "scripted" and not args.fixtures:
        raise CliInputError("--provider scripted requires --fixtures")
    try:
        if args.provider == "scripted":
            return ScriptedProvider(load_fixtures(args.fixtures)), HashEmbedder()
        return http_backend(os.environ)
    # Bad fixtures, a bad timeout or base URL, or no credential: before any request.
    except ProviderError as e:
        raise CliInputError(str(e)) from e


def _summary_line(u: Utterance) -> str:
    text = u.text.replace("\n", " ")
    return f"[{u.turn:02d}] {u.speaker} ({u.chosen_ego.value}): {text[:80]}"


def _check_out(args: argparse.Namespace, *, log: bool) -> None:
    """Reject an ``--out`` path that cannot be written, before any work starts;
    nothing is created. With ``log``, its ``.log`` sibling is written too."""
    if not args.out:
        return
    out = Path(args.out)
    for path in (out, out.with_name(out.name + ".log")) if log else (out,):
        if path.is_dir():
            raise CliInputError(f"--out {out}: {path} is a directory")
    if not out.parent.is_dir():
        raise CliInputError(f"--out {out}: {out.parent} is not a directory")


def _write_out(t: Transcript, args: argparse.Namespace, run_log: RunLog) -> bytes:
    """Serialize ``t`` once, so a printed hash is the hash of the bytes written;
    with ``--out``, write them there and the run log to its ``.log`` sibling."""
    data = serialize_transcript(t).encode("utf-8")
    if args.out:
        out = Path(args.out)
        out.write_bytes(data)
        run_log.write_jsonl(out.with_name(out.name + ".log"))
    return data


def _read_line(prompt: str) -> str:
    """``input`` with its prompt on stderr, as bash's ``read -p`` writes it, so
    stdout holds only the run's own lines."""
    print(prompt, end="", file=sys.stderr, flush=True)
    return input()


def cmd_run(args: argparse.Namespace) -> int:
    """``run``, or ``interactive`` when ``--as`` names the agent typed at the
    terminal: then each other utterance is shown as it arrives. A failed run
    writes its partial transcript and run log."""
    cfg = _load_scenario(args)
    human = args.play_as
    if human is not None and human not in {a.name for a in cfg.agents}:
        raise CliInputError(f"--as {human!r} does not name a scenario agent")
    provider, embedder = _build_backend(args)
    _check_out(args, log=True)
    run_log = RunLog()
    if human is not None:
        print(f"You are {human}. Situation: {cfg.opening_prompt}")
        print("Type your lines; Ctrl-D ends the conversation.")

    def show(u: Utterance) -> None:
        if u.speaker != human:
            print(_summary_line(u))

    try:
        transcript = run_simulation(
            cfg, provider, embedder, run_log=run_log, human_agent=human, input_fn=_read_line,
            on_utterance=show if human is not None else None,
        )
    except SimulationError as e:
        if args.out:
            _write_out(e.transcript, args, run_log)
            print(f"partial transcript written to {args.out}", file=sys.stderr)
        raise
    if human is None:
        for u in transcript.utterances:
            print(_summary_line(u))
    data = _write_out(transcript, args, run_log)
    if args.out:
        print(f"transcript written to {Path(args.out)}")
    print(f"transcript hash: {hashlib.sha256(data).hexdigest()}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _read_scenario(Path(args.scenario))
    violations = validate_scenario(cfg)
    if violations:
        for v in violations:
            print(str(v))
        return EXIT_INPUT
    print("scenario valid")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.budget is not None and args.budget < 1:
        raise CliInputError(f"--budget must be >= 1, got {args.budget}")
    _check_out(args, log=False)
    cfg = _read_scenario(Path(args.scenario)) if args.scenario else None
    text = _read_input(Path(args.transcript), "transcript")
    try:
        transcript = parse_transcript(text)
    except TranscriptFormatError as e:
        raise CliInputError(f"transcript does not parse: {e}") from e
    if cfg is None:
        budget = DEFAULT_AUDIT_BUDGET if args.budget is None else args.budget
    elif fingerprint_scenario(cfg) != transcript.scenario_fingerprint:
        raise CliInputError(
            f"--scenario {args.scenario} is not the scenario of this transcript "
            "(the fingerprints differ)"
        )
    else:
        budget = cfg.tool_budget
    report = build_report(transcript, budget=budget)
    print(render_report(report))
    if args.out:
        Path(args.out).write_text(canonical_json(report), encoding="utf-8")
    if args.fail_on_loops and report["game_loops"]:
        return EXIT_GATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
