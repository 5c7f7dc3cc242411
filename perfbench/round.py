"""One round of a benchmark run, in a fresh interpreter started by run.py:

    python3 perfbench/round.py --workload suite --seed 3 --work DIR --out OUT \
        [--check] [--settle] [--spans FILE]

It times five passes of the host-speed calibration loop, then its own
set-up (importing shopfloor and loading the reference tree and the prompt
template), then scores every input in DIR once, writing the program's
outputs under OUT. With --spans it replays each input stage by stage
instead and writes the spans to FILE. The last line of standard output is
one JSON object: the calibration passes, the set-up time, the peak resident
memory, one sample per input and, when traced, the work counts.
"""

import time

from calibrate import reference_pass

# Timed first, before the program is imported, and in the process that runs
# the round: on the same vCPU, just before its set-up.
PASSES_MS = [reference_pass() for _ in range(5)]

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import shopfloor.bench  # noqa: E402
import shopfloor.planner  # noqa: E402

TREE = shopfloor.bench.load_reference_tree()
shopfloor.planner.load_prompt_template()
SETUP_S = time.perf_counter() - START

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--check", action="store_true", help="check every result in full")
    parser.add_argument("--settle", action="store_true",
                        help="a full collection before every operation")
    parser.add_argument("--spans", type=Path, help="replay with spans, written here")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.work, args.out, args.seed, TREE)
    tracer = Tracer() if args.spans else None
    samples = workloads.score_round(workload, args.check, tracer, args.settle)
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "reference_ms": PASSES_MS,
        "setup_s": SETUP_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": [dataclasses.asdict(s) for s in samples],
        "counts": dict(tracer.counts) if tracer is not None else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
