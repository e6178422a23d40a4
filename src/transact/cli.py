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
    if args.provider == "scripted":
        if not args.fixtures:
            raise CliInputError("--provider scripted requires --fixtures")
        try:
            provider = ScriptedProvider(load_fixtures(args.fixtures))
        except ProviderError as e:
            raise CliInputError(str(e)) from e
        return provider, HashEmbedder()
    config = ProviderConfig(
        kind="http",
        base_url=os.environ.get(BASE_URL_ENV, ProviderConfig.base_url),
        model=os.environ.get(MODEL_ENV, ProviderConfig.model),
        embedder=os.environ.get(EMBEDDER_ENV, ProviderConfig.embedder),
        timeout_ms=_timeout_ms(),
    )
    api_key = os.environ.get(API_KEY_ENV, "")
    try:
        return HttpProvider(config, api_key), CachingEmbedder(RemoteEmbedder(config, api_key))
    except ProviderError as e:  # a bad base URL or no credential: checked before any request
        raise CliInputError(str(e)) from e


def _timeout_ms() -> int:
    """The request timeout in ms, a positive integer: zero makes a socket non-blocking."""
    raw = os.environ.get(TIMEOUT_ENV, str(ProviderConfig.timeout_ms))
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise CliInputError(f"{TIMEOUT_ENV} must be a positive integer (ms), got {raw!r}")
    return value


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


def _simulate(
    args: argparse.Namespace, run_log: RunLog, cfg: ScenarioConfig, provider, embedder, **options
) -> Transcript:
    """``run_simulation``; a failed run writes its partial transcript and run log."""
    try:
        return run_simulation(cfg, provider, embedder, run_log=run_log, **options)
    except SimulationError as e:
        if args.out:
            _write_out(e.transcript, args, run_log)
            print(f"partial transcript written to {args.out}", file=sys.stderr)
        raise


def _finish_run(t: Transcript, args: argparse.Namespace, run_log: RunLog) -> None:
    data = _write_out(t, args, run_log)
    if args.out:
        print(f"transcript written to {Path(args.out)}")
    print(f"transcript hash: {hashlib.sha256(data).hexdigest()}")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    provider, embedder = _build_backend(args)
    _check_out(args, log=True)
    run_log = RunLog()
    transcript = _simulate(args, run_log, cfg, provider, embedder)
    for u in transcript.utterances:
        print(_summary_line(u))
    _finish_run(transcript, args, run_log)
    return EXIT_OK


def cmd_interactive(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    if args.play_as not in {a.name for a in cfg.agents}:
        raise CliInputError(f"--as {args.play_as!r} does not name a scenario agent")
    provider, embedder = _build_backend(args)
    _check_out(args, log=True)
    run_log = RunLog()
    print(f"You are {args.play_as}. Situation: {cfg.opening_prompt}")
    print("Type your lines; Ctrl-D ends the conversation.")

    def show(u: Utterance) -> None:
        if u.speaker != args.play_as:
            print(_summary_line(u))

    transcript = _simulate(
        args,
        run_log,
        cfg,
        provider,
        embedder,
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
