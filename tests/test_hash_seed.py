"""The command-line pipeline writes the same bytes under two hash seeds.

Each seed runs the pipeline below in its own interpreter, this file run as
a script with PYTHONHASHSEED set, and every command calls cli.main
in-process. Each command's stdout, stderr and exit code go to files in
cli/, next to the files it writes, and the two trees must be equal file
for file. Outputs are overwritten in place, so the pipeline ends by
writing the suite and the run outputs again over copies of the first
ones, which must not change.

Run by hand: PYTHONHASHSEED=1 PYTHONPATH=src python tests/test_hash_seed.py DIR
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import shopfloor
from shopfloor.cli import main


def shopfloor_cli(name: str, *argv: str) -> None:
    """main(argv); its stdout, stderr and exit code go to cli/<name>.out,
    .err and .code."""
    log = Path("cli", name)
    with open(f"{log}.out", "w", encoding="utf-8") as out, \
            open(f"{log}.err", "w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    Path(f"{log}.code").write_text(f"{code}\n", encoding="utf-8")


def _edit_task(source: str, target: str, edit) -> None:
    doc = json.loads(Path(source).read_text(encoding="utf-8"))
    edit(doc)
    Path(target).write_text(json.dumps(doc), encoding="utf-8")


def _drop_schedule(doc: dict) -> None:
    del doc["ground_truth"]["schedule"]


def _drop_polisher(doc: dict) -> None:
    for robot in doc["scene"]["robots"]:
        if "polisher" in robot["devices"]:
            robot["devices"].remove("polisher")


def pipeline() -> None:
    """Every command, in the working directory."""
    for directory in ("cli", "programs", "traces", "optimal", "evaluate"):
        Path(directory).mkdir()
    shopfloor_cli("generate", "generate", "--suite", "suite", "--per-tier", "4")
    # FIFO misses the lower bound on this seed, so its ground truth comes
    # from the exact search; every suite task exits at the bound
    shopfloor_cli(
        "searched", "generate", "--tier", "complex_multi", "--seed", "43", "--out", "searched.json"
    )
    shopfloor_cli("run", "run", "--tasks", "suite", "--out", "run")
    # assembly, execution and the exact solve on every task, so on all
    # three tiers
    suite = sorted(str(path) for path in Path("suite").glob("*.json"))
    for task in suite:
        name = Path(task).stem
        shopfloor_cli(f"assemble_{name}", "assemble", task, "--out", f"programs/{name}.json")
        shopfloor_cli(f"execute_{name}", "execute", task, "--trace", f"traces/{name}.jsonl")
        shopfloor_cli(
            f"optimal_{name}", "solve", task, "--optimal", "--out", f"optimal/{name}.json"
        )
    shopfloor_cli("gantt", "gantt", "suite/complex_multi_0000.json", "--svg", "chart.svg")
    shopfloor_cli("graph", "graph", "suite/complex_multi_0000.json", "--out", "graph.dot")
    shopfloor_cli("fifo", "solve", "suite/complex_multi_0000.json", "--out", "fifo.json")
    _edit_task("suite/simple_multi_0001.json", "unscheduled.json", _drop_schedule)
    shopfloor_cli(
        "unscheduled_execute", "execute", "unscheduled.json",
        "--trace", "unscheduled_trace.jsonl",
    )
    shopfloor_cli(
        "unscheduled_gantt", "gantt", "unscheduled.json", "--svg", "unscheduled_chart.svg"
    )
    # the failure path: the ground-truth program on a scene whose robots
    # lost the polisher fails o4 at skill 7 (missing_device)
    shopfloor_cli(
        "no_polisher_assemble", "assemble", "suite/simple_multi_0003.json",
        "--out", "no_polisher_program.json",
    )
    _edit_task("suite/simple_multi_0003.json", "no_polisher.json", _drop_polisher)
    shopfloor_cli(
        "no_polisher_execute", "execute", "no_polisher.json",
        "--program", "no_polisher_program.json", "--trace", "no_polisher_trace.jsonl",
    )
    # evaluate on every task; no_polisher.json has an invalid ground truth
    # and exits 1
    for task in [*suite, "unscheduled.json", "no_polisher.json"]:
        name = Path(task).stem
        shopfloor_cli(f"evaluate_{name}", "evaluate", task, "--out", f"evaluate/{name}.json")
    # rewriting into the existing directories must give the same bytes as
    # writing them fresh
    shutil.copytree("run", "run.first")
    shutil.copytree("suite", "suite.first")
    shopfloor_cli("run_again", "run", "--tasks", "suite", "--out", "run")
    shopfloor_cli("generate_again", "generate", "--suite", "suite", "--per-tier", "4")


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_the_pipeline_writes_the_same_bytes_under_two_hash_seeds(tmp_path):
    src = str(Path(shopfloor.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = {}
    for seed in ("1", "2"):
        (tmp_path / seed).mkdir()
        runs[seed] = subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / seed)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    for seed, run in runs.items():
        output = run.communicate()[0]
        assert run.returncode == 0, f"seed {seed}:\n{output}"
    one, two = _files(tmp_path / "1"), _files(tmp_path / "2")
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []
    for directory in ("run", "suite"):
        first = _files(tmp_path / "1" / f"{directory}.first")
        assert first == _files(tmp_path / "1" / directory)
    # the failure paths ran: an exit 1 and a failed operation
    assert one["cli/evaluate_no_polisher.code"] == b"1\n"
    assert b"missing_device" in one["no_polisher_trace.jsonl"]
    assert len(_files(tmp_path / "1" / "evaluate")) == 14


if __name__ == "__main__":
    os.chdir(sys.argv[1])
    pipeline()
