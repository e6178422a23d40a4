#!/usr/bin/env python3
"""Benchmark entry point. Run from the repository root:

    python3 perfbench/run.py --workload bundled_scripted --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One workload runs in this process; ``all`` runs each workload in a fresh
process of its own and prints one table. With ``--trace 0`` the result holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. Times are stated at the reference host speed (see ``hostclock.py``);
the line before the result also gives them as measured. The last line of
stdout is the result as one JSON object. The exit code is 0 only when every
op passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("bundled_scripted", "large_memory", "http_stub", "audit_corpus")
#: Set-up-only runs per measured run, besides the set-up phase of each group:
#: at least SETUP_REPEATS, and more until SETUP_SECONDS have passed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "transact" / "__init__.py").is_file():
        print(f"error: no transact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return run_one(args)


def run_one(args: argparse.Namespace) -> int:
    from perfbench.hostclock import REFERENCE_MS, HostClock
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    plain, traced, setups = [], [], []
    tracer = Tracer() if args.trace else None
    clock = HostClock(ROOT)
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed, tick=clock.tick)
        wl.prepare()
        try:
            wl.setup_once()  # warm-up: lazy imports, template loads, caches
            if tracer is None:
                start = perf_counter()
                while len(setups) < SETUP_REPEATS or perf_counter() - start < SETUP_SECONDS:
                    clock.tick()
                    setups.append(wl.setup_once())
            start = perf_counter()
            # Closed loop; with tracing, untraced and traced groups alternate.
            while perf_counter() - start < args.seconds or not plain or (tracer and not traced):
                clock.tick()
                if tracer is not None and len(traced) < len(plain):
                    with tracer:
                        traced.append(wl.group(tracer))
                else:
                    plain.append(wl.group())
            end = perf_counter()
        finally:
            wl.close()
    finally:
        clock.close()

    groups = plain + traced
    attempted = sum(g.ops for g in groups)
    failed = sum(g.failed for g in groups)
    if tracer is None:
        setups += [g.setup for g in plain if g.setup is not None]
        measured, samples = end_to_end(plain, setups, lambda a, b: 1.0)
        metrics, _ = end_to_end(plain, setups, clock.scale)
    else:
        untraced = statistics.fmean(_seconds(g.wall_times) for g in plain)
        overhead = statistics.fmean(_seconds(g.wall_times) for g in traced) / untraced if untraced else 0.0
        measured = tracer.metrics(overhead_ratio=overhead)
        # Per-layer times are stated at the host speed of the whole run.
        factor = clock.scale(start, end)
        metrics = {
            name: (value * factor if unit == "ms" else value, unit)
            for name, (value, unit) in measured.items()
        }
        samples = {"traced_groups": len(traced), "spans": len(tracer.spans)}
        tracer.write(workdir / "spans.jsonl")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "groups": len(groups),
        "samples": samples,
        "fail_ratio": failed / attempted,
        "host_clock": {
            "reference_ms": REFERENCE_MS,
            "mean_ms": clock.mean_ms(),
            "samples": len(clock.samples_ms),
        },
        "measured": {name: value for name, (value, _) in measured.items()},
        "transcript_sha256": sorted(set().union(*(g.hashes for g in groups))),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
    print(f"  {'metric':<40} {'at ref. speed':>14} {'unit':<6} {'as measured':>14}")
    for name, (value, unit) in metrics.items():
        n = samples.get(name)
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {measured[name][0]:>14.6g}"
              + (f" n={n}" if n is not None else ""))
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} {'':<6} {'':>14} n={attempted}")
    print(f"  host clock: reference work took {clock.mean_ms():.4g} ms on average "
          f"(reference {REFERENCE_MS} ms, n={len(clock.samples_ms)})")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _seconds(intervals) -> float:
    return sum(b - a for a, b in intervals)


def end_to_end(plain, setups, scale):
    """The end-to-end metrics of the untraced groups and set-ups, with each
    measured interval multiplied by ``scale(start, end)``; and their sample
    counts."""
    from perfbench.tracing import percentile

    def seconds(a: float, b: float) -> float:
        return (b - a) * scale(a, b)

    completed = [g for g in plain if g.wall_times]  # groups that raised have no time
    ops = sum(g.ops for g in completed)
    wall = sum(seconds(a, b) for g in completed for a, b in g.wall_times)
    latencies = [seconds(a, b) * 1e3 for g in plain for a, b in g.op_times]
    metrics = {
        "throughput_ops_s": (ops / wall if wall else 0.0, "ops/s"),
        "op_ms_p50": (percentile(latencies, 0.5), "ms"),
        "op_ms_p90": (percentile(latencies, 0.9), "ms"),
        "setup_s": (statistics.median(seconds(a, b) for a, b in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "throughput_ops_s": ops,
        "op_ms_p50": len(latencies),
        "op_ms_p90": len(latencies),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; one table, one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print(f"{name} (exit {proc.returncode})")
        try:
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
        except (IndexError, ValueError, KeyError):
            print("  no result", file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        print("\n".join(lines[:-2]))
        print(f"  python {info['python']}, {info['platform']}, nproc {info['nproc']}, "
              f"transcripts {' '.join(h[:12] for h in info['transcript_sha256'])}")
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
