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
    Transcript,
    Utterance,
    _SURROGATE,
    _load_document,
    canonical_json,
    fingerprint_scenario,
    serialize_transcript,
    validate_scenario,
)
from .orchestrator import SimulationError, run_simulation
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
        status = args.handler(args)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()  # a buffered write to a closed pipe fails here, not at exit
        return status
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, BrokenPipeError):
            # What stdout still buffers goes nowhere, so the flush at exit cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transact",
        description="Run ego-state conversation simulations and analyze their transcripts.",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.set_defaults(play_as=None)
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
    p.add_argument("--budget", type=int, dest="tool_budget", metavar="BUDGET",
                   help="override the search budget")
    p.add_argument("--max-turns", type=int, help="override the turn limit")


def _read_scenario(path: str) -> ScenarioConfig:
    return _load_document(ScenarioConfig, Path(path), CliInputError, "scenario")


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    cfg = _read_scenario(args.scenario)
    overrides = {
        name: getattr(args, name) for name in ("seed", "k", "tool_budget", "max_turns")
        if getattr(args, name) is not None
    }
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
    stdout holds only the run's own lines. A line UTF-8 cannot encode, as a
    byte stdin could not decode makes it, is refused and read as blank."""
    print(prompt, end="", file=sys.stderr, flush=True)
    try:
        line = input()
    except EOFError:
        print(file=sys.stderr)  # ends the prompt's open line
        raise
    if not _SURROGATE.search(line):
        return line
    print("line refused: it is not valid text; type it again", file=sys.stderr)
    return ""


def cmd_run(args: argparse.Namespace) -> int:
    """``run``, or ``interactive`` when ``--as`` names the agent typed at the
    terminal. Each utterance not typed there is shown as it arrives, so a
    failed run shows its completed turns and writes its partial transcript
    and run log."""
    cfg = _load_scenario(args)
    human = args.play_as
    if human is not None and human not in {a.name for a in cfg.agents}:
        raise CliInputError(f"--as {human!r} does not name a scenario agent")
    provider, embedder = _build_backend(args)
    _check_out(args, log=True)
    run_log = RunLog()

    # A failed stdout write (a reader that closed the pipe) stops the printed
    # lines, not the run: the transcript and run log are still written.
    stdout_fault: list[OSError] = []

    def say(line: str) -> None:
        if not stdout_fault:
            try:
                print(line)
            except OSError as e:
                stdout_fault.append(e)

    def show(u: Utterance) -> None:
        if u.speaker != human:
            say(_summary_line(u))

    if human is not None:
        say(f"You are {human}. Situation: {cfg.opening_prompt}")
        say("Type your lines; Ctrl-D ends the conversation.")

    try:
        transcript = run_simulation(
            cfg, provider, embedder, run_log=run_log, human_agent=human, input_fn=_read_line,
            on_utterance=show,
        )
    except SimulationError as e:
        if args.out:
            _write_out(e.transcript, args, run_log)
            print(f"partial transcript written to {args.out}", file=sys.stderr)
        raise
    data = _write_out(transcript, args, run_log)
    if stdout_fault:
        raise stdout_fault[0]
    if args.out:
        print(f"transcript written to {Path(args.out)}")
    print(f"transcript hash: {hashlib.sha256(data).hexdigest()}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = _read_scenario(args.scenario)
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
    cfg = _read_scenario(args.scenario) if args.scenario else None
    transcript = _load_document(Transcript, Path(args.transcript), CliInputError, "transcript")
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
