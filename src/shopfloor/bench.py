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

run_benchmark drives planner output through graph building, solving,
assembly and symbolic execution, scoring stages that fail as zero instead
of aborting the suite. A task whose own ground truth cannot be solved,
replayed or scored against scores zero on every metric, with an error that
starts with GROUND_TRUTH_INVALID.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    AmbiguousBranch,
    EmptyGtStatus,
    GenerationRetryExhausted,
    InstanceTooLarge,
    NoBranch,
    PlannerUnavailable,
    ValidationError,
)
from .executor import ExecutionOutcome, execute
from .graph import build_graph
from .metrics import (
    EvaluationReport,
    evaluate_instance,
    ground_truth_run,
    report_to_json,
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
    parse_task_instance,
    serialize_task_instance,
    validate_planner_output,
    validate_scene,
    write_file,
)
from .solve import ScheduleGraph, brute_force_optimal, schedule_to_record, solve_fifo
from .tree import ProcessTree, assemble_program, load_reference_tree


class Tier(str, Enum):
    SINGLE_ROBOT = "single_robot"
    SIMPLE_MULTI = "simple_multi"
    COMPLEX_MULTI = "complex_multi"


@dataclass(frozen=True)
class TierSpec:
    tier: Tier
    robots: tuple[int, int]
    workpieces: tuple[int, int]
    max_operations: int
    tables: tuple[int, int]
    pallets: tuple[int, int]


TIER_SPECS: Mapping[Tier, TierSpec] = {
    Tier.SINGLE_ROBOT: TierSpec(Tier.SINGLE_ROBOT, (1, 1), (1, 1), 5, (1, 1), (1, 1)),
    Tier.SIMPLE_MULTI: TierSpec(Tier.SIMPLE_MULTI, (2, 3), (2, 3), 10, (1, 2), (1, 2)),
    Tier.COMPLEX_MULTI: TierSpec(Tier.COMPLEX_MULTI, (4, 7), (3, 6), 24, (2, 3), (2, 3)),
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


def _candidate(tier: Tier, seed: int, attempt: int) -> TaskInstance:
    spec = TIER_SPECS[tier]
    rng = random.Random(f"{tier.value}:{seed}:{attempt}")

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
    points = ("Photo_Point",) if handheld else ()

    machines = [
        Machine(
            id="conveyor",
            name="conveyor belt",
            exclusive=False,
            points=frozenset(points),
            held_workpieces=tuple(workpiece_ids),
        )
    ]
    machines += [
        Machine(id=t, name="work table", exclusive=True,
                points=frozenset(points), held_workpieces=())
        for t in table_ids
    ]
    machines += [
        Machine(id=p, name="pallet", exclusive=False,
                points=frozenset(points), held_workpieces=())
        for p in pallet_ids
    ]
    machine_ids = [m.id for m in machines]
    devices = _BASE_DEVICES | {"camera" if handheld else "bracket_camera"}
    robots = tuple(
        Robot(id=f"r{i + 1}", devices=devices,
              reachable_machines=frozenset(machine_ids))
        for i in range(n_robots)
    )

    operations: list[Operation] = []
    by_op: dict[str, str] = {}
    chains: dict[str, tuple[str, ...]] = {}
    workpieces: list[Workpiece] = []
    sentences: list[str] = []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"o{counter}"

    for wp_id, flags in zip(workpiece_ids, states):
        table = rng.choice(table_ids)
        pallet = rng.choice(pallet_ids)
        robot = rng.choice(robots).id
        kind = rng.choice(_KINDS)
        chain: list[str] = []

        op_id = next_id()
        operations.append(
            Operation(id=op_id, op_type=OperationType.TRANSPORT,
                      workpiece=wp_id, machine_1="conveyor", machine_2=table)
        )
        chain.append(op_id)
        for flag in flags:
            op_id = next_id()
            operations.append(
                Operation(id=op_id, op_type=_TYPE_FOR_FLAG[flag],
                          workpiece=wp_id, machine_1=table)
            )
            chain.append(op_id)
        op_id = next_id()
        operations.append(
            Operation(id=op_id, op_type=OperationType.TRANSPORT,
                      workpiece=wp_id, machine_1=table, machine_2=pallet)
        )
        chain.append(op_id)

        for oid in chain:
            by_op[oid] = robot
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

    scene = Scene(robots=robots, machines=tuple(machines),
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
    )


def _acceptable(task: TaskInstance, tree: ProcessTree) -> bool:
    if validate_scene(task.scene):
        return False
    gt = task.ground_truth
    if not validate_planner_output(
        gt.operations, gt.allocation, gt.precedence, task.scene
    ).ok:
        return False
    try:
        run = ground_truth_run(task, tree)
    except (ValidationError, NoBranch, AmbiguousBranch):
        return False
    return run.outcome.executed_fully and bool(run.status)


# Candidates tried per (tier, seed) before generation gives up.
GENERATION_ATTEMPTS = 8


def generate_instance(tier: Tier, seed: int) -> TaskInstance:
    """Deterministic instance for (tier, seed): same arguments, same bytes.
    Candidates that fail self-validation against the reference tree are
    re-rolled up to GENERATION_ATTEMPTS times before giving up."""
    tree = load_reference_tree()
    for attempt in range(GENERATION_ATTEMPTS):
        task = _candidate(tier, seed, attempt)
        if _acceptable(task, tree):
            return task
    raise GenerationRetryExhausted(
        f"no valid {tier.value} instance for seed {seed} after {GENERATION_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# suites on disk


@dataclass(frozen=True)
class BenchTask:
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


def _tier_from_stem(stem: str, name: str) -> Tier:
    tier = next(
        (t for t in Tier if stem == t.value or stem.startswith(t.value + "_")),
        None,
    )
    if tier is None:
        raise ValueError(
            f"cannot infer a tier from file name '{name}'; expected "
            f"<tier>_<suffix>.json"
        )
    return tier


def load_bench_task(path: str | Path) -> BenchTask:
    """A task file of a suite; scoring needs its ground truth, so a file
    without one raises ValidationError."""
    path = Path(path)
    tier = _tier_from_stem(path.stem, path.name)
    instance = load_task_instance(path)
    if instance.ground_truth is None:
        raise ValidationError(f"{path}: task file carries no ground truth")
    return BenchTask(task_id=path.stem, tier=tier, instance=instance)


def load_bundled_tasks() -> list[BenchTask]:
    """The example tasks shipped inside the package."""
    root = resources.files("shopfloor").joinpath("data/tasks")
    tasks: list[BenchTask] = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        stem = entry.name[: -len(".json")]
        tasks.append(
            BenchTask(
                task_id=stem,
                tier=_tier_from_stem(stem, entry.name),
                instance=parse_task_instance(
                    entry.read_text(encoding="utf-8"), path=entry.name
                ),
            )
        )
    return tasks


# ---------------------------------------------------------------------------
# running a suite


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    tier: Tier
    report: EvaluationReport
    error: str | None


@dataclass(frozen=True)
class BenchmarkResult:
    results: tuple[TaskResult, ...]
    summary: dict


GROUND_TRUTH_INVALID = "ground truth invalid: "

METRIC_FIELDS = (
    "operation_consistency",
    "scheduling_efficiency",
    "executability",
    "goal_condition_recall",
    "success_rate",
)


def _run_pipeline(
    task: TaskInstance, planner, tree: ProcessTree
) -> tuple[EvaluationReport, str | None]:
    error: str | None = None
    output = None
    schedule: ScheduleGraph | None = None
    execution: ExecutionOutcome | None = None
    try:
        output = planner.plan(task)
    except PlannerUnavailable as exc:
        error = f"planner unavailable: {exc}"
    operations = output.operations if output is not None else None
    allocation = output.allocation if output is not None else None
    if output is not None and output.ok:
        try:
            graph = build_graph(operations, output.precedence, allocation, task.scene)
            schedule = solve_fifo(graph, [op.id for op in operations])
            program = assemble_program(tree, operations, allocation, task.scene)
            execution = execute(schedule, program, task.scene, operations)
        except (ValidationError, NoBranch, AmbiguousBranch) as exc:
            error = f"pipeline failed: {exc}"
    elif output is not None:
        shown = "; ".join(output.report.violations[:3])
        error = f"planner output invalid: {shown}"
    try:
        report = evaluate_instance(
            task, operations, allocation, schedule, execution, tree,
            degenerate_se=0.0,
        )
    except (ValidationError, EmptyGtStatus, NoBranch, AmbiguousBranch, InstanceTooLarge) as exc:
        # Only the ground truth's schedule, replay and status set raise these here.
        zero = EvaluationReport(
            0.0, 0.0, 0.0, 0.0, 0.0,
            metadata={"gt_operation_count": len(task.ground_truth.operations)},
        )
        return zero, GROUND_TRUTH_INVALID + str(exc)
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
    model.write_file, not replaced atomically, and other files are left
    alone.
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
