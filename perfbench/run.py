"""Benchmark of the shopfloor scoring pipeline.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository (it imports the package from src/).
Workloads: suite, faulty, large, generate (see perfbench/README.md). With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it
replays the pipeline stage by stage with spans and reports per-layer
metrics instead. End-to-end times are scaled by a host-speed calibration
(REFERENCE_MS below). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("suite", "faulty", "large", "generate")

# Rounds a run makes at least: enough for per-input minimums and, in a
# traced run, two untraced and two traced rounds.
MIN_ROUNDS = 4
# Longest a single round may take before the run is abandoned.
ROUND_TIMEOUT_S = 150

# Host-speed calibration. The benchmark was built on a shared virtual machine
# on which other tenants' load slowed every process by up to 1.9x, for a
# minute and more at a time (see README.md), far past the bounds. Each timed
# operation runs right after a pass of a fixed pure-Python loop
# (calibrate.py), in the same process, and each round's set-up right after
# five; every end-to-end time is scaled to a host on which that pass takes
# REFERENCE_MS, one time by the pass just before it. Each figure is printed
# unscaled as well.
REFERENCE_MS = 2.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def make_inputs(workload: str, seed: int, work: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(work)],
        timeout=300, check=True,
    )


def run_round(args, work: Path, check: bool, spans: Path | None) -> dict:
    """One round in a fresh interpreter (round.py); its report. Every round
    writes its outputs to the same directory, work/out: the first round
    creates the files, later rounds overwrite them, as repeated runs of
    `shopfloor run` into one output directory do."""
    command = [sys.executable, str(HERE / "round.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work", str(work), "--out", str(work / "out")]
    if check:
        command.append("--check")
    if args.trace:
        command.append("--settle")
    if spans is not None:
        command += ["--spans", str(spans)]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                           timeout=ROUND_TIMEOUT_S, check=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict], typical: dict[str, float], operations: dict[str, int],
               scaled: bool) -> dict[str, tuple[float, str]]:
    """`typical` is each input's latency, its median over the rounds;
    throughput is one pass over the inputs at those latencies. Set-up is
    timed once a round and reported as the median of the rounds; when
    `scaled`, each round's is scaled by the median of its own five passes,
    timed just before it."""
    latencies = list(typical.values())
    busy_s = sum(latencies) / 1e3
    setups = [r["setup_s"] * (REFERENCE_MS / statistics.median(r["reference_ms"]) if scaled else 1.0)
              for r in rounds]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(latencies) / busy_s, "1/s"),
        "task_ms_p50": (percentile(latencies, 0.50), "ms"),
        "task_ms_p95": (percentile(latencies, 0.95), "ms"),
        "ops_per_s": (sum(operations[key] for key in typical) / busy_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shopfloor" / "__init__.py").is_file():
        print(f"perfbench: no shopfloor package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from tracing import Tracer

    WORK.mkdir(exist_ok=True)
    traces = WORK / "traces"
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    tracer = Tracer() if args.trace else None
    rounds: list[dict] = []
    try:
        if args.workload != "generate":
            make_inputs(args.workload, args.seed, work)
        start = time.perf_counter()
        longest = 0.0
        # no round starts that would, at the pace of the longest so far, end past --seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + longest < args.seconds:
            spans = None
            if tracer is not None and len(rounds) % 2 == 1:
                traces.mkdir(exist_ok=True)
                spans = traces / f"{args.workload}-seed{args.seed}-round{len(rounds)}.jsonl"
            began = time.perf_counter()
            report = run_round(args, work, check=not rounds, spans=spans)
            if rounds:  # the first round also checks every result
                longest = max(longest, time.perf_counter() - began)
            report["traced"] = spans is not None
            if spans is not None:
                tracer.load(spans, report["counts"])
            rounds.append(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # An input fails when its check failed or raised in any round, or when
    # its result differs between rounds.
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str | None] = {}
    latencies: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}  # each latency scaled by the pass just before it
    operations: dict[str, int] = {}
    for report in rounds:
        for sample in report["samples"]:
            key, problem = sample["key"], sample["problem"]
            attempted += 1
            first.setdefault(key, sample["digest"])
            if problem is None and sample["digest"] != first[key]:
                problem = f"{key}: result differs from the first round's"
            if problem is not None:
                failed += 1
                problems.append(problem)
            elif sample["ms"] is not None:
                latencies.setdefault(key, []).append(sample["ms"])
                scaled.setdefault(key, []).append(
                    sample["ms"] * REFERENCE_MS / sample["reference_ms"])
                operations[key] = sample["ops"]

    timed = [r for r in rounds if not r["traced"]]
    traced = sum(len(r["samples"]) for r in rounds if r["traced"])
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(first)} inputs "
          f"({len(first) - math.ceil(0.95 * len(first))} beyond p95), "
          f"{len(timed)} timed and {len(rounds) - len(timed)} traced")
    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not latencies:
        print("perfbench: every operation failed; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics = tracer.layer_metrics(traced, {key: min(ms) for key, ms in latencies.items()})
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.4f} {unit}")
    else:
        passes = [s["reference_ms"] for r in timed for s in r["samples"] if s["reference_ms"]]
        print(f"calibration: {len(passes)} passes, median {statistics.median(passes):.3f} ms "
              f"(times scaled to {REFERENCE_MS} ms; unscaled in brackets)")
        metrics = end_to_end(timed, {key: statistics.median(ms) for key, ms in scaled.items()},
                             operations, True)
        unscaled = end_to_end(timed, {key: statistics.median(ms) for key, ms in latencies.items()},
                              operations, False)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.4f} {unit:<6} ({unscaled[name][0]:.4f})")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.4f} ({failed}/{attempted})")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
