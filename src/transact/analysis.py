"""Offline transcript mining: ego usage, repeating game loops, budget audits.

Everything here is pure and provider-free. Game detection is structural: it
looks only at the (speaker, ego state) sequence, never at the wording, so the
same interaction pattern is found no matter how the turns are phrased.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import EGO_ORDER, EgoState, Transcript

EgoSequence = tuple[tuple[str, EgoState], ...]


def ego_sequence(t: Transcript) -> EgoSequence:
    return tuple((u.speaker, u.chosen_ego) for u in t.utterances)


def ego_distribution(t: Transcript) -> dict[str, dict[EgoState, int]]:
    """Per-speaker counts over the three ego states; counts sum to each
    speaker's utterance count."""
    out: dict[str, dict[EgoState, int]] = {}
    for u in t.utterances:
        counts = out.setdefault(u.speaker, {ego: 0 for ego in EGO_ORDER})
        counts[u.chosen_ego] += 1
    return out


@dataclass(frozen=True)
class GameLoopReport:
    """A maximal repeating run: ``pattern`` recurs ``repetitions`` times
    starting at ``span[0]`` and the whole run ends at ``span[1]`` (inclusive)."""

    period: int
    pattern: EgoSequence
    repetitions: int
    span: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.pattern) != self.period:
            raise ValueError("pattern length must equal the period")
        if self.repetitions < 2:
            raise ValueError("a loop repeats at least twice")
        if self.span[1] - self.span[0] + 1 < self.period * self.repetitions:
            raise ValueError("span too short for the claimed repetitions")


def detect_game_loops(
    seq: EgoSequence, min_repetitions: int = 2, max_period: int = 6
) -> list[GameLoopReport]:
    """Find maximal runs where the (speaker, ego) sequence repeats with some
    period up to ``max_period``, at least ``min_repetitions`` times.

    Only minimal-period descriptions are reported: a run already covered by a
    smaller-period run over the same or a wider span is dropped (a period-2
    loop is not additionally reported as period-4). Reports are sorted by
    span start, then period.
    """
    if min_repetitions < 2:
        raise ValueError("min_repetitions must be >= 2")
    n = len(seq)
    candidates: list[GameLoopReport] = []
    for period in range(1, max_period + 1):
        matches = [t for t in range(n - period) if seq[t] == seq[t + period]]
        for a, b in _consecutive_blocks(matches):
            start, end = a, b + period
            repetitions = (end - start + 1) // period
            if repetitions >= min_repetitions:
                candidates.append(
                    GameLoopReport(
                        period=period,
                        pattern=seq[start : start + period],
                        repetitions=repetitions,
                        span=(start, end),
                    )
                )
    reports = [
        c
        for c in candidates
        if not any(
            d.period < c.period and d.span[0] <= c.span[0] and d.span[1] >= c.span[1]
            for d in candidates
        )
    ]
    reports.sort(key=lambda r: (r.span[0], r.period))
    return reports


def _consecutive_blocks(positions: list[int]) -> list[tuple[int, int]]:
    """Group sorted integers into maximal runs of consecutive values."""
    blocks = []
    for pos in positions:
        if blocks and pos == blocks[-1][1] + 1:
            blocks[-1] = (blocks[-1][0], pos)
        else:
            blocks.append((pos, pos))
    return blocks


def is_rescue_pattern(report: GameLoopReport) -> bool:
    """A period-2 loop where one party's Child is answered by the other's Parent."""
    if report.period != 2:
        return False
    (s1, e1), (s2, e2) = report.pattern
    return s1 != s2 and {e1, e2} == {EgoState.CHILD, EgoState.PARENT}


def rescue_patterns(reports: list[GameLoopReport]) -> list[GameLoopReport]:
    return [r for r in reports if is_rescue_pattern(r)]


@dataclass(frozen=True)
class BudgetViolation:
    turn: int
    speaker: str
    ego_state: EgoState
    searches_performed: int


def audit_budgets(t: Transcript, budget: int) -> list[BudgetViolation]:
    """Empty iff every candidate stayed within the search budget."""
    return [
        BudgetViolation(u.turn, u.speaker, c.ego_state, c.searches_performed)
        for u in t.utterances
        for c in u.candidates
        if c.searches_performed > budget
    ]


def build_report(t: Transcript, budget: int) -> dict[str, Any]:
    """Assemble the structured analysis document (JSON-compatible tree)."""
    distribution = ego_distribution(t)
    loops = detect_game_loops(ego_sequence(t))
    violations = audit_budgets(t, budget)
    return {
        "scenario_fingerprint": t.scenario_fingerprint,
        "utterance_count": len(t.utterances),
        "termination_reason": t.termination_reason.value if t.termination_reason else None,
        "ego_distribution": {
            speaker: {
                "counts": {ego.value: counts[ego] for ego in EGO_ORDER},
                "percentages": {
                    ego.value: round(100.0 * counts[ego] / total, 1) if total else 0.0
                    for ego in EGO_ORDER
                },
            }
            for speaker, counts in sorted(distribution.items())
            for total in [sum(counts.values())]
        },
        "game_loops": [
            {
                "period": r.period,
                "pattern": [[speaker, ego.value] for speaker, ego in r.pattern],
                "repetitions": r.repetitions,
                "span": list(r.span),
                "rescue": is_rescue_pattern(r),
            }
            for r in loops
        ],
        "budget_audit": {
            "limit": budget,
            "violations": [
                {
                    "turn": v.turn,
                    "speaker": v.speaker,
                    "ego_state": v.ego_state.value,
                    "searches_performed": v.searches_performed,
                }
                for v in violations
            ],
        },
    }


def render_report(report: dict[str, Any]) -> str:
    """Human-readable summary table for a report tree."""
    lines = [
        f"utterances: {report['utterance_count']}  "
        f"termination: {report['termination_reason'] or 'aborted'}",
        "",
        "ego distribution:",
    ]
    for speaker, dist in report["ego_distribution"].items():
        cells = "  ".join(
            f"{ego.value}: {dist['counts'][ego.value]} ({dist['percentages'][ego.value]:.1f}%)"
            for ego in EGO_ORDER
        )
        lines.append(f"  {speaker:<12} {cells}")
    lines.append("")
    if report["game_loops"]:
        lines.append("game loops:")
        for loop in report["game_loops"]:
            pattern = " -> ".join(f"{s} as {e}" for s, e in loop["pattern"])
            tag = " [rescue pattern]" if loop["rescue"] else ""
            lines.append(
                f"  turns {loop['span'][0]}-{loop['span'][1]}: "
                f"[{pattern}] x{loop['repetitions']} (period {loop['period']}){tag}"
            )
    else:
        lines.append("game loops: none detected")
    lines.append("")
    audit = report["budget_audit"]
    if audit["violations"]:
        lines.append(f"budget audit (limit {audit['limit']}): FAILED")
        for v in audit["violations"]:
            lines.append(
                f"  turn {v['turn']}, {v['speaker']}/{v['ego_state']}: "
                f"{v['searches_performed']} searches"
            )
    else:
        lines.append(f"budget audit (limit {audit['limit']}): clean")
    return "\n".join(lines)
