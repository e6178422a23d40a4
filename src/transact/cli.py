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
    parse_scenario,
    parse_transcript,
    serialize_transcript,
    transcript_hash,
    validate_scenario,
)
from .orchestrator import InvalidScenarioError, SimulationError, run_simulation
from .provider import (
    API_KEY_ENV,
    HashEmbedder,
    HttpProvider,
    CachingEmbedder,
    ProviderConfig,
    ProviderError,
    RemoteEmbedder,
    ScriptedProvider,
    load_fixtures,
)
from .runlog import RunLog

EXIT_OK = 0
EXIT_GATE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

BASE_URL_ENV = "TRANSACT_BASE_URL"
MODEL_ENV = "TRANSACT_MODEL"
EMBEDDER_ENV = "TRANSACT_EMBEDDER"
TIMEOUT_ENV = "TRANSACT_TIMEOUT_MS"


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
        if isinstance(e, SimulationError) and args.out:
            _write_transcript(e.transcript, Path(args.out))
            print(f"partial transcript written to {args.out}", file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transact",
        description="Run ego-state conversation simulations and analyze their transcripts.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.set_defaults(out=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a scenario and write its transcript")
    _add_run_flags(run)
    run.set_defaults(handler=cmd_run)

    interactive = sub.add_parser("interactive", help="run a scenario playing one agent yourself")
    _add_run_flags(interactive)
    interactive.add_argument("--as", dest="play_as", required=True, metavar="AGENT",
                             help="scenario agent played from the terminal")
    interactive.set_defaults(handler=cmd_interactive)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--scenario", required=True)
    validate.set_defaults(handler=cmd_validate)

    analyze = sub.add_parser("analyze", help="mine a transcript for game patterns")
    analyze.add_argument("--transcript", required=True)
    analyze.add_argument("--out", help="write the structured report here")
    analyze.add_argument("--budget", type=int, default=5,
                         help="search budget to audit against (default 5)")
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


def _read_scenario(path: Path) -> ScenarioConfig:
    if not path.exists():
        raise CliInputError(f"scenario file not found: {path}")
    try:
        return parse_scenario(path.read_text(encoding="utf-8"))
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
    if args.provider == "scripted":
        if not args.fixtures:
            raise CliInputError("--provider scripted requires --fixtures")
        fixtures_path = Path(args.fixtures)
        if not fixtures_path.exists():
            raise CliInputError(f"fixture file not found: {fixtures_path}")
        try:
            provider = ScriptedProvider(load_fixtures(fixtures_path))
        except ProviderError as e:
            raise CliInputError(str(e)) from e
        return provider, HashEmbedder()
    config = ProviderConfig(
        kind="http",
        base_url=os.environ.get(BASE_URL_ENV, ProviderConfig.base_url),
        model=os.environ.get(MODEL_ENV, ProviderConfig.model),
        embedder=os.environ.get(EMBEDDER_ENV, ProviderConfig.embedder),
        timeout_ms=int(os.environ.get(TIMEOUT_ENV, ProviderConfig.timeout_ms)),
    )
    api_key = os.environ.get(API_KEY_ENV, "")
    return HttpProvider(config, api_key), CachingEmbedder(RemoteEmbedder(config, api_key))


def _write_transcript(t: Transcript, out: Path) -> bytes:
    """Write the canonical transcript bytes to ``out`` and return them."""
    data = serialize_transcript(t).encode("utf-8")
    out.write_bytes(data)
    return data


def _summary_line(u: Utterance) -> str:
    text = u.text.replace("\n", " ")
    return f"[{u.turn:02d}] {u.speaker} ({u.chosen_ego.value}): {text[:80]}"


def _finish_run(t: Transcript, args: argparse.Namespace, run_log: RunLog) -> None:
    if args.out:
        out = Path(args.out)
        # Serialized once: the hash of the bytes written equals transcript_hash(t).
        digest = hashlib.sha256(_write_transcript(t, out)).hexdigest()
        run_log.write_jsonl(out.with_name(out.name + ".log"))
        print(f"transcript written to {out}")
    else:
        digest = transcript_hash(t)
    print(f"transcript hash: {digest}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    provider, embedder = _build_backend(args)
    run_log = RunLog()
    transcript = run_simulation(cfg, provider, embedder, run_log=run_log)
    for u in transcript.utterances:
        print(_summary_line(u))
    _finish_run(transcript, args, run_log)
    return EXIT_OK


def cmd_interactive(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    if args.play_as not in {a.name for a in cfg.agents}:
        raise CliInputError(f"--as {args.play_as!r} does not name a scenario agent")
    provider, embedder = _build_backend(args)
    run_log = RunLog()
    print(f"You are {args.play_as}. Situation: {cfg.opening_prompt}")
    print("Type your lines; Ctrl-D ends the conversation.")

    def show(u: Utterance) -> None:
        if u.speaker != args.play_as:
            print(_summary_line(u))

    transcript = run_simulation(
        cfg,
        provider,
        embedder,
        run_log=run_log,
        human_agent=args.play_as,
        input_fn=input,
        on_utterance=show,
    )
    _finish_run(transcript, args, run_log)
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
    path = Path(args.transcript)
    if not path.exists():
        raise CliInputError(f"transcript file not found: {path}")
    try:
        transcript = parse_transcript(path.read_text(encoding="utf-8"))
    except TranscriptFormatError as e:
        raise CliInputError(f"transcript does not parse: {e}") from e
    report = build_report(transcript, budget=args.budget)
    print(render_report(report))
    if args.out:
        Path(args.out).write_text(canonical_json(report), encoding="utf-8")
    if args.fail_on_loops and report["game_loops"]:
        return EXIT_GATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
