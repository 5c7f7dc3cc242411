"""Write one workload's inputs for a seed into a directory.

Run as its own process by run.py, so that building the inputs does not count
toward the peak memory of the process that scores them:

    python3 perfbench/inputs.py --workload suite --seed 3 --out DIR

`suite` and `faulty` get the same mixed three-tier task files under
DIR/tasks; `faulty` also gets DIR/faults.json, one mutated plan reply per
task. `large` gets its floors under DIR/tasks. `generate` needs no files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shopfloor.bench import generate_suite  # noqa: E402
from shopfloor.model import load_task_instance, serialize_task_instance  # noqa: E402

from faults import plan_faults  # noqa: E402
from floors import build_floor  # noqa: E402

# Generator seeds per tier in one run; run seed n uses [n * PER_TIER, (n + 1) * PER_TIER).
PER_TIER = 70
# Workpieces of each large floor; 4 operations per workpiece.
FLOOR_WORKPIECES = (36, 72, 150)


def floor_name(workpieces: int) -> str:
    # load_bench_task reads the tier from the file name's prefix
    return f"complex_multi_floor{workpieces:03d}.json"


def write_inputs(workload: str, seed: int, out: Path) -> None:
    tasks_dir = out / "tasks"
    tasks_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("suite", "faulty"):
        paths = generate_suite(tasks_dir, per_tier=PER_TIER, base_seed=seed * PER_TIER)
        if workload == "faulty":
            tasks = [(p.stem, load_task_instance(p)) for p in sorted(paths)]
            faults = {task_id: {"mutator": f.mutator, "workpiece": f.workpiece,
                                "op_id": f.op_id, "reply": f.reply}
                      for task_id, f in plan_faults(tasks, seed).items()}
            (out / "faults.json").write_text(json.dumps(faults, sort_keys=True),
                                             encoding="utf-8")
    elif workload == "large":
        for workpieces in FLOOR_WORKPIECES:
            floor = build_floor(workpieces, seed)
            (tasks_dir / floor_name(workpieces)).write_text(
                serialize_task_instance(floor), encoding="utf-8")
    elif workload != "generate":
        raise ValueError(f"unknown workload '{workload}'")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
