"""Kept mutants: defects that named tests must catch.

Each entry names a file under src/shopfloor, the exact text it replaces
there (which occurs once), the text it puts in its place, and the tests
that must fail on the mutated code, as "path::function" ids relative to
the repository root. At least one of them fails with no Hypothesis draw.
tests/test_mutants.py checks, with the other tests, that each old text
occurs exactly once and that each named test exists; a refactor that moves
the mutated code moves its entry too.

Run

    python tests/mutants.py

from anywhere: it applies each mutant in turn to a copy of src/ and tests/
in a temporary directory, runs only that mutant's tests there, and exits 1
unless each of them fails on every mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/shopfloor
    old: str
    new: str
    tests: tuple[str, ...]  # "tests/<file>.py::<function>"


MUTANTS = (
    Mutant(
        "transport without the gripper call",
        "data/process_tree.json",
        old='''      "description": "carry the workpiece to its target machine",
      "snippet": [
        {
          "skill": "control_device",
          "args": [
            "{robot}",
            "{device:magnetic_gripper}",
            "on"
          ]
        },
''',
        new='''      "description": "carry the workpiece to its target machine",
      "snippet": [
''',
        tests=(
            "tests/test_bench.py::test_a_stored_program_that_skips_the_gripper_is_no_reference",
            "tests/test_executor.py::test_single_transport_moves_workpiece",
            "tests/test_tree.py::test_a_node_needs_what_its_snippet_names",
        ),
    ),
    Mutant(
        "branch selection ignores points",
        "tree.py",
        old='''and node.devices <= f.devices
                and node.points_1 <= f.points_1 and node.points_2 <= f.points_2):''',
        new="and node.devices <= f.devices):",
        tests=(
            "tests/test_tree.py::test_select_branch_matches_a_reparsing_walk",
            "tests/test_tree.py::test_an_assembled_program_runs_where_its_branches_apply",
        ),
    ),
    Mutant(
        "an empty status hides the failing operation",
        "bench.py",
        old='''    if not run.outcome.executed_fully:
        failure = next(f for record in run.outcome.trace for f in record.failures)
        return ValidationError(
            f"ground truth does not execute fully: operation '{failure.op_id}' "
            f"fails with {failure.reason}"
        )
    if not run.status:
        return EmptyGtStatus()
''',
        new='''    if not run.status:
        return EmptyGtStatus()
    if not run.outcome.executed_fully:
        failure = next(f for record in run.outcome.trace for f in record.failures)
        return ValidationError(
            f"ground truth does not execute fully: operation '{failure.op_id}' "
            f"fails with {failure.reason}"
        )
''',
        tests=(
            "tests/test_bench.py::test_a_stored_program_that_skips_the_gripper_is_no_reference",
            "tests/test_bench.py::test_a_ground_truth_that_achieves_nothing_costs_no_planner_call",
        ),
    ),
    Mutant(
        "a reference that achieves nothing is accepted",
        "bench.py",
        old="""    if not run.status:
        return EmptyGtStatus()
""",
        new="",
        tests=(
            "tests/test_bench.py::"
            "test_a_ground_truth_that_runs_fully_and_moves_nothing_costs_no_planner_call",
        ),
    ),
    Mutant(
        "resolve reads the memo before its check",
        "executor.py",
        old="""        if not (self.known and binding.keys() >= self.roles and devices >= self.devices
                and self.points_1 <= points_1 and self.points_2 <= points_2):
            return None
        key = tuple(binding.items())
        calls = self.calls.get(key)
        if calls is None:
""",
        new="""        key = tuple(binding.items())
        calls = self.calls.get(key)
        if calls is not None:
            return calls
        if not (self.known and binding.keys() >= self.roles and devices >= self.devices
                and self.points_1 <= points_1 and self.points_2 <= points_2):
            return None
        if calls is None:
""",
        tests=(
            "tests/test_executor.py::test_every_operation_checks_the_summary_before_the_memo",
        ),
    ),
    Mutant(
        "the plan's set check without its reachability clause",
        "model.py",
        old="reach, m1, m2 = robot.reachable_machines, op.machine_1, op.machine_2",
        new="reach, m1, m2 = machines, op.machine_1, op.machine_2",
        tests=(
            "tests/test_model.py::test_unreachable_machine_reported",
            "tests/test_model.py::"
            "test_the_set_check_fails_on_each_single_fault_and_the_walk_names_it",
            # a failing Hypothesis test is reported, and pytest runs to the
            # end under filterwarnings = ["error"]
            "tests/test_model.py::test_the_set_check_decides_hostile_plans_like_the_walk",
        ),
    ),
    Mutant(
        "the plan's set check without its chain-workpiece clause",
        "model.py",
        old="""
        and chains.keys() <= scene._workpieces.keys()""",
        new="",
        tests=(
            "tests/test_model.py::"
            "test_the_set_check_fails_on_each_single_fault_and_the_walk_names_it",
        ),
    ),
    Mutant(
        "the whole-object read checks types with isinstance",
        "codec.py",
        old="if [*map(type, values)] == kinds:",
        new="if all(map(isinstance, values, kinds)):",
        tests=(
            "tests/test_codec.py::test_a_fault_under_the_whole_object_read_keeps_its_message",
            "tests/test_codec.py::test_each_fault_kind_names_its_path",
        ),
    ),
    Mutant(
        "the whole-object read takes a present null for an absent optional key",
        "codec.py",
        old="""        shape = self.shapes.get(len(data)) if type(data) is dict else None
""",
        new="""        if type(data) is dict and None in data.values():
            data = {key: value for key, value in data.items() if value is not None}
        shape = self.shapes.get(len(data)) if type(data) is dict else None
""",
        tests=(
            "tests/test_codec.py::test_a_fault_under_the_whole_object_read_keeps_its_message",
        ),
    ),
)


def _copy(workdir: Path) -> None:
    """A fresh copy of the package, the tests and the pytest settings."""
    shutil.rmtree(workdir, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    shutil.copytree(ROOT / "src", workdir / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", workdir / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", workdir / "pyproject.toml")


def survivors(mutant: Mutant, workdir: Path) -> list[str]:
    """The tests of mutant that do not fail with it applied to a fresh copy
    in workdir; empty when it is killed."""
    _copy(workdir)
    target = workdir / "src" / "shopfloor" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text does not occur exactly once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    where = subprocess.run(
        [sys.executable, "-c", "import shopfloor; print(shopfloor.__file__)"],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(workdir):
        raise SystemExit(f"{mutant.name}: the copy imports shopfloor from {where}")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    if result.returncode != 1:
        print(result.stdout[-2000:], result.stderr[-2000:], sep="\n")
        return list(mutant.tests)
    return [test for test in mutant.tests
            if not any(f == test or f.startswith(test + "[") for f in failed)]


def main() -> int:
    alive = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in MUTANTS:
            left = survivors(mutant, Path(tmp) / "copy")
            print(f"{'survived' if left else 'killed'}: {mutant.name}")
            for test in left:
                print(f"  did not fail: {test}")
            alive += bool(left)
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants killed")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
