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
