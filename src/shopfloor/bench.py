"""Benchmark suite: seeded instance generation and end-to-end scoring.

Instances come in three size tiers. Every generated task follows the same
workshop archetype: a conveyor feeds workpieces to exclusive work tables
and finished pieces land on pallets. The ground truth embeds the optimal
schedule of solve.brute_force_optimal, with source "optimal". Its
operations are listed in start-step order, so dispatching them
first-in-first-out reproduces the recorded schedule: the solver launches a
maximal conflict-free set of the ready operations at each step, so FIFO
launches that set first and every ready operation listed after it
conflicts with one of them.

A valid task is defined once, in two halves, and the generator checks
both: model.task_violations, which every load checks, and _reference_fault,
why a ground truth's run cannot be the reference, which the scorer checks.
The generator draws one candidate per (tier, seed).

run_benchmark scores each task by comparing two runs of the stages
(graph, schedule, assembly, symbolic execution; metrics.run_plan runs the
last two on a given schedule). The ground truth runs first, on its stored
schedule, else the exact one. A task whose ground truth cannot be solved,
replayed or run fully, or achieves nothing, scores zero on every metric,
with an error that starts with GROUND_TRUTH_INVALID, and its planner is
never called. A planner that raises anything but PlannerUnavailable
scores its task zero with an error that starts with INTERNAL_ERROR,
naming the exception, and prints its traceback to standard error.
Otherwise the plan runs (metrics.fifo_run), scheduled first-in-first-out
in the order the planner listed its operations, and a stage that fails
scores zero instead of aborting the suite. A plan whose triple equals the
ground truth's runs on the reference's graph, so it builds no graph of
its own. When, in addition, the task stores no program and FIFO gives the
reference's start steps, as under GroundTruthPlanner on every generated
task, the plan reuses the whole reference run: one graph, assembly and
execution per task. Otherwise the plan takes one more execution.
"""

from __future__ import annotations

import csv
import io
import random
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import EmptyGtStatus, PlannerUnavailable, ShopfloorError, ValidationError
from .graph import build_graph
from .metrics import (
    METRIC_FIELDS,
    EvaluationReport,
    Run,
    fifo_run,
    reference_run,
    report_to_json,
    run_plan,
    score,
)
from .model import (
    PROCESSING_FLAGS,
    Allocation,
    GroundTruth,
    Machine,
    Operation,
    OperationType,
    PrecedenceSet,
    Robot,
    Scene,
    TaskInstance,
    Workpiece,
    at_label,
    canonical_json,
    load_task_instance,
    serialize_task_instance,
    task_violations,
    write_file,
)
from .solve import ScheduleGraph, brute_force_optimal, schedule_to_record
from .tree import ProcessTree, load_reference_tree


class Tier(str, Enum):
    SINGLE_ROBOT = "single_robot"
    SIMPLE_MULTI = "simple_multi"
    COMPLEX_MULTI = "complex_multi"


class TierSpec(NamedTuple):
    robots: tuple[int, int]
    workpieces: tuple[int, int]
    max_operations: int
    tables: tuple[int, int]
    pallets: tuple[int, int]


TIER_SPECS: Mapping[Tier, TierSpec] = {
    Tier.SINGLE_ROBOT: TierSpec((1, 1), (1, 1), 5, (1, 1), (1, 1)),
    Tier.SIMPLE_MULTI: TierSpec((2, 3), (2, 3), 10, (1, 2), (1, 2)),
    Tier.COMPLEX_MULTI: TierSpec((4, 7), (3, 6), 24, (2, 3), (2, 3)),
}

_KINDS = ("steel plate", "aluminum sheet", "cast bracket")
_FLAG_VERBS = {
    "polished": "polish it",
    "welded": "weld it",
    "beveled": "bevel it",
    "assembled": "assemble it",
}
_TYPE_FOR_FLAG = {flag: op_type for op_type, flag in PROCESSING_FLAGS.items()}
_BASE_DEVICES = frozenset({"magnetic_gripper", "polisher", "welding_gun", "beveler"})


def _candidate(tier: Tier, seed: int) -> tuple[TaskInstance, ScheduleGraph]:
    """The instance for (tier, seed) and the exact schedule it records."""
    spec = TIER_SPECS[tier]
    # The fixed ":0" is part of the seed text: dropping it changes every byte.
    rng = random.Random(f"{tier.value}:{seed}:0")

    n_robots = rng.randint(*spec.robots)
    n_workpieces = rng.randint(*spec.workpieces)
    n_tables = rng.randint(*spec.tables)
    n_pallets = rng.randint(*spec.pallets)
    handheld = rng.random() < 0.5

    # budget-aware state draw: every remaining workpiece needs at least
    # one processing step plus its two transports
    budget = spec.max_operations
    flag_choices = sorted(_FLAG_VERBS)
    states: list[tuple[str, ...]] = []
    for i in range(n_workpieces):
        remaining = n_workpieces - i - 1
        most = min(3, budget - 3 * remaining - 2)
        count = rng.randint(1, most)
        states.append(tuple(rng.sample(flag_choices, count)))
        budget -= count + 2

    table_ids = [f"table_{i + 1}" for i in range(n_tables)]
    pallet_ids = [f"pallet_{i + 1}" for i in range(n_pallets)]
    workpiece_ids = [f"w{i + 1}" for i in range(n_workpieces)]
    points = frozenset({"Photo_Point"} if handheld else ())

    # (id, name, exclusive, held workpieces) of every machine
    machine_rows = [("conveyor", "conveyor belt", False, tuple(workpiece_ids))]
    machine_rows += [(t, "work table", True, ()) for t in table_ids]
    machine_rows += [(p, "pallet", False, ()) for p in pallet_ids]
    machines = tuple(
        Machine(machine_id, name, exclusive, points, held)
        for machine_id, name, exclusive, held in machine_rows
    )
    machine_ids = frozenset(machine.id for machine in machines)
    devices = _BASE_DEVICES | {"camera" if handheld else "bracket_camera"}
    robots = tuple(
        Robot(id=f"r{i + 1}", devices=devices,
              reachable_machines=machine_ids)
        for i in range(n_robots)
    )

    operations: list[Operation] = []
    by_op: dict[str, str] = {}
    chains: dict[str, tuple[str, ...]] = {}
    workpieces: list[Workpiece] = []
    sentences: list[str] = []
    for wp_id, flags in zip(workpiece_ids, states):
        table = rng.choice(table_ids)
        pallet = rng.choice(pallet_ids)
        robot = rng.choice(robots).id
        kind = rng.choice(_KINDS)
        # (type, machine_1, machine_2): transport in, one step per flag, out
        steps = [(OperationType.TRANSPORT, "conveyor", table),
                 *[(_TYPE_FOR_FLAG[flag], table, None) for flag in flags],
                 (OperationType.TRANSPORT, table, pallet)]
        chain: list[str] = []
        for op_type, machine_1, machine_2 in steps:
            op_id = f"o{len(operations) + 1}"
            operations.append(Operation(op_id, op_type, wp_id, machine_1, machine_2))
            by_op[op_id] = robot
            chain.append(op_id)
        chains[wp_id] = tuple(chain)
        workpieces.append(
            Workpiece(id=wp_id, kind=kind,
                      state_sequence=tuple(flags) + (at_label(pallet),))
        )
        sentences.append(
            f"Take {wp_id} (a {kind}) from the conveyor to {table}, "
            + ", then ".join(_FLAG_VERBS[f] for f in flags)
            + f", and set it down on {pallet}."
        )

    scene = Scene(robots=robots, machines=machines,
                  workpieces=tuple(workpieces))
    allocation = Allocation(by_op=by_op)
    precedence = PrecedenceSet(chains=chains)

    graph = build_graph(operations, precedence, allocation, scene)
    schedule = brute_force_optimal(graph)
    # A stable sort: operations of one step keep their emission order.
    ordered = tuple(sorted(operations, key=lambda op: schedule.start_steps[op.id]))

    return TaskInstance(
        scene=scene,
        instruction=" ".join(sentences),
        ground_truth=GroundTruth(
            operations=ordered,
            allocation=allocation,
            precedence=precedence,
            program=None,
            schedule=schedule_to_record(schedule, source="optimal"),
        ),
    ), schedule


def _reference_fault(run: Run) -> ShopfloorError | None:
    """Why a ground truth's run cannot be the reference, or None when it
    can: the error of the stage that stopped it, else a ValidationError
    naming the first failure in its trace when an operation does not
    complete, else EmptyGtStatus when it achieves no status fact."""
    if run.error is not None:
        return run.error
    if not run.outcome.executed_fully:
        failure = next(f for record in run.outcome.trace for f in record.failures)
        return ValidationError(
            f"ground truth does not execute fully: operation '{failure.op_id}' "
            f"fails with {failure.reason}"
        )
    if not run.status:
        return EmptyGtStatus()
    return None


def generate_instance(tier: Tier, seed: int) -> TaskInstance:
    """Deterministic instance for (tier, seed): same arguments, same bytes.

    One candidate, never re-rolled: a ValidationError names the tier, the
    seed and the problems when it fails model.task_violations or
    _reference_fault. Its ground truth is replayed on the exact solver's
    graph and schedule, which the solver already checked.
    """
    task, schedule = _candidate(tier, seed)
    problems = task_violations(task)
    if not problems:
        gt = task.ground_truth
        run = run_plan(task.scene, gt.operations, gt.allocation, load_reference_tree(), schedule)
        fault = _reference_fault(run)
        problems = [str(fault)] if fault is not None else []
    if problems:
        raise ValidationError(
            f"invalid {tier.value} instance for seed {seed}: {'; '.join(problems)}"
        )
    return task


# ---------------------------------------------------------------------------
# suites on disk


class BenchTask(NamedTuple):
    task_id: str
    tier: Tier
    instance: TaskInstance


def task_id_for(tier: Tier, seed: int) -> str:
    return f"{tier.value}_{seed:04d}"


def generate_suite(
    out_dir: Path,
    per_tier: int,
    base_seed: int = 0,
    tiers: Sequence[Tier] = tuple(Tier),
) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for tier in tiers:
        for i in range(per_tier):
            seed = base_seed + i
            task = generate_instance(tier, seed)
            path = out_dir / f"{task_id_for(tier, seed)}.json"
            write_file(path, serialize_task_instance(task))
            paths.append(path)
    return paths


def load_bench_task(path: str | Path) -> BenchTask:
    """A task file of a suite, named <tier>_<suffix>.json: a name that gives
    no tier raises ValueError, and since scoring needs the ground truth, a
    file without one raises ValidationError."""
    path = Path(path)
    tier = next(
        (t for t in Tier if path.stem == t.value or path.stem.startswith(t.value + "_")),
        None,
    )
    if tier is None:
        raise ValueError(
            f"cannot infer a tier from file name '{path.name}'; expected "
            f"<tier>_<suffix>.json"
        )
    instance = load_task_instance(path)
    if instance.ground_truth is None:
        raise ValidationError(f"{path}: task file carries no ground truth")
    return BenchTask(task_id=path.stem, tier=tier, instance=instance)


def load_bundled_tasks() -> list[BenchTask]:
    """The example tasks shipped inside the package, loaded as suite files."""
    directory = Path(__file__).parent / "data" / "tasks"
    return [load_bench_task(path) for path in sorted(directory.glob("*.json"))]


# ---------------------------------------------------------------------------
# running a suite


class TaskResult(NamedTuple):
    task_id: str
    tier: Tier
    report: EvaluationReport
    error: str | None


class BenchmarkResult(NamedTuple):
    results: tuple[TaskResult, ...]
    summary: dict


GROUND_TRUTH_INVALID = "ground truth invalid: "
INTERNAL_ERROR = "internal error: "


def _run_pipeline(
    task: TaskInstance, planner, tree: ProcessTree
) -> tuple[EvaluationReport, str | None]:
    reference = reference_run(task, tree)
    invalid = _reference_fault(reference)
    if invalid is not None:
        metadata = {"gt_operation_count": len(task.ground_truth.operations)}
        zero = EvaluationReport(0.0, 0.0, 0.0, 0.0, 0.0, metadata)
        return zero, GROUND_TRUTH_INVALID + str(invalid)
    error: str | None = None
    output = None
    run = Run()
    try:
        output = planner.plan(task)
    except PlannerUnavailable as exc:
        error = f"planner unavailable: {exc}"
    except Exception as exc:  # a planner fault: score this task 0, keep the suite going
        import traceback  # only a planner fault needs it; kept off start-up

        traceback.print_exc()
        error = f"{INTERNAL_ERROR}{type(exc).__name__}: {exc}"
    operations = output.operations if output is not None else None
    allocation = output.allocation if output is not None else None
    if output is not None and output.ok:
        run = fifo_run(task, reference, operations, allocation, output.precedence, tree)
        if run.error is not None:
            error = f"pipeline failed: {run.error}"
    elif output is not None:
        error = "planner output invalid: " + "; ".join(output.report.violations[:3])
    report = score(task, reference, operations, allocation, run, degenerate_se=0.0)
    if report.metadata["degenerate_efficiency"] and error is None:
        error = "efficiency scale degenerate; scored 0"
    return report, error


def run_benchmark(
    tasks: Sequence[BenchTask],
    planner,
    out_dir: Path | None = None,
    tree: ProcessTree | None = None,
) -> BenchmarkResult:
    tree = tree if tree is not None else load_reference_tree()
    results: list[TaskResult] = []
    for bench_task in tasks:
        report, error = _run_pipeline(bench_task.instance, planner, tree)
        results.append(
            TaskResult(
                task_id=bench_task.task_id,
                tier=bench_task.tier,
                report=report,
                error=error,
            )
        )
    summary = summarize(results)
    if out_dir is not None:
        write_outputs(Path(out_dir), results, summary)
    return BenchmarkResult(results=tuple(results), summary=summary)


def _means(rows: Sequence[TaskResult]) -> dict:
    out: dict = {"tasks": len(rows)}
    for field in METRIC_FIELDS:
        values = [getattr(r.report, field) for r in rows]
        out[field] = sum(values) / len(values) if values else None
    return out


def summarize(results: Sequence[TaskResult]) -> dict:
    per_tier = {}
    for tier in Tier:
        rows = [r for r in results if r.tier is tier]
        if rows:
            per_tier[tier.value] = _means(rows)
    return {
        "task_count": len(results),
        "overall": _means(results),
        "per_tier": per_tier,
        "errors": sum(1 for r in results if r.error is not None),
    }


def suite_csv(results: Sequence[TaskResult]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("task_id", "tier") + METRIC_FIELDS)
    for row in results:
        writer.writerow(
            [row.task_id, row.tier.value]
            + [f"{getattr(row.report, field):.6f}" for field in METRIC_FIELDS]
        )
    return buffer.getvalue()


def write_outputs(
    out_dir: Path, results: Sequence[TaskResult], summary: dict
) -> None:
    """Write <task_id>.metrics.json per task, suite.csv and summary.json.

    Files already in out_dir are overwritten in place through
    model.write_file (cut only when the old file was longer), not replaced
    atomically, and other files are left alone.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for row in results:
        doc = {
            "task_id": row.task_id,
            "tier": row.tier.value,
            "error": row.error,
            **report_to_json(row.report),
        }
        write_file(out_dir / f"{row.task_id}.metrics.json", canonical_json(doc))
    write_file(out_dir / "suite.csv", suite_csv(results))
    write_file(out_dir / "summary.json", canonical_json(summary))
