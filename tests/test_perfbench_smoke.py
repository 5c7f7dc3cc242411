"""Every perfbench workload runs on the package and passes its checks.

This is CI's benchmark smoke run on fewer inputs: one generated task per
tier (the suite and, with a mutated plan reply each, faulty), one
three-workpiece floor (large) and three generate items, each scored by a
checked round untraced and again traced. It runs in its own interpreter
with src and perfbench on the path, as perfbench's rounds do, and fails
when a name perfbench imports from the package is gone or when a sample
reports a problem.

Run by hand: PYTHONPATH=src:perfbench python tests/test_perfbench_smoke.py DIR
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def smoke(work: Path) -> dict[str, list[str | None]]:
    """Each round's name and the problem of each of its samples."""
    import workloads
    from faults import plan_faults
    from floors import build_floor
    from inputs import floor_name
    from tracing import Tracer

    from shopfloor.bench import generate_suite, load_reference_tree
    from shopfloor.model import load_task_instance, serialize_task_instance

    paths = generate_suite(work / "tasks", per_tier=1)
    tasks = [(path.stem, load_task_instance(path)) for path in sorted(paths)]
    faults = {task_id: {"mutator": f.mutator, "workpiece": f.workpiece,
                        "op_id": f.op_id, "reply": f.reply}
              for task_id, f in plan_faults(tasks, 0).items()}
    (work / "faults.json").write_text(json.dumps(faults), encoding="utf-8")
    floors = work / "large"
    (floors / "tasks").mkdir(parents=True)
    (floors / "tasks" / floor_name(3)).write_text(
        serialize_task_instance(build_floor(3, 0)), encoding="utf-8")

    tree = load_reference_tree()
    problems = {}
    for name, inputs in (("suite", work), ("faulty", work), ("large", floors),
                         ("generate", work)):
        for tracer in (None, Tracer()):
            out = work / "out" / f"{name}_{tracer is not None}"
            workload = workloads.make(name, inputs, out, 0, tree)
            if name == "generate":
                workload.items = workload.items[:3]
            samples = workloads.score_round(workload, check=True, tracer=tracer)
            problems[f"{name} traced={tracer is not None}"] = [s.problem for s in samples]
    return problems


def test_every_perfbench_workload_passes_its_checks(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, str(PERFBENCH), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    problems = json.loads(result.stdout)
    sizes = {"suite": 3, "faulty": 3, "large": 1, "generate": 3}
    assert {name: len(found) for name, found in problems.items()} == {
        f"{name} traced={traced}": size for name, size in sizes.items()
        for traced in (False, True)
    }
    assert {name: found for name, found in problems.items() if any(found)} == {}


if __name__ == "__main__":
    print(json.dumps(smoke(Path(sys.argv[1]))))
