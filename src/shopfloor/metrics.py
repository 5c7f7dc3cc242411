"""Evaluation metrics for generated plans against a task's ground truth.

Five scores, each in [0, 1]: operation consistency (multiset overlap of
operation tuples), scheduling efficiency (makespan gap normalized by the
worst serial schedule, gated on perfect consistency), executability
(fraction of operations that ran their full skill sequence), goal
condition recall (ground-truth status facts actually achieved), and
success rate (all-or-nothing on efficiency and recall).

A plan's run is one chain of stages, for a plan and for its ground truth
alike: disjunctive graph, schedule, process-tree program and symbolic
execution, which reports the status facts it made true. run_plan takes
the schedule, which holds its graph, and runs the last two stages; a
stage that fails stops the run and is kept as its error. reference_run
builds the ground truth's graph and schedule (the stored record, else the
exact one), and score compares a plan's run with that reference run;
stages the plan never reached score zero. bench runs the reference first,
before any planner call, then the plan through fifo_run. Its graph rule
is one: a plan whose triple equals the ground truth's runs on the
reference's graph, any other plan on its own. It reuses the whole
reference run when, in addition, the ground truth stores no program and
FIFO gives the reference's start steps.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, NamedTuple, Sequence

from .errors import (
    AmbiguousBranch,
    DegenerateDenominator,
    EmptyGtStatus,
    InstanceTooLarge,
    NoBranch,
    ShopfloorError,
    ValidationError,
)
from .executor import ExecutionOutcome, execute
from .graph import build_graph
from .model import Allocation, Operation, OperationType, PrecedenceSet, Program, Scene, TaskInstance
from .solve import ScheduleGraph, reference_schedule, solve_fifo
from .tree import ProcessTree, assemble_program, load_reference_tree


def _operation_key(op: Operation, allocation: Allocation | None) -> tuple[OperationType | str, ...]:
    robot = allocation.robot_for(op.id) if allocation is not None else None
    return (
        op.op_type,
        op.workpiece,
        op.machine_1,
        op.machine_2 or "",
        robot or "",
    )


def operation_consistency(
    generated_ops: Sequence[Operation],
    generated_alloc: Allocation | None,
    gt_ops: Sequence[Operation],
    gt_alloc: Allocation | None,
) -> float:
    """Multiset intersection-over-union of (type, workpiece, machines, robot)
    tuples. Identifiers are ignored; two empty plans agree perfectly."""
    generated = Counter(_operation_key(op, generated_alloc) for op in generated_ops)
    reference = Counter(_operation_key(op, gt_alloc) for op in gt_ops)
    union = sum((generated | reference).values())
    if union == 0:
        return 1.0
    return sum((generated & reference).values()) / union


def scheduling_efficiency(
    generated_makespan: int | None,
    gt_makespan: int,
    gt_operation_count: int,
    consistency: float,
) -> float:
    """Normalized makespan quality, zero unless the plan matched exactly.

    The scale runs from the fully serial schedule (one operation per step)
    down to the ground-truth makespan; scores are clamped into [0, 1], so a
    plan at least as fast as the ground truth scores 1. A slower plan against
    a serial ground truth has no scale, which raises DegenerateDenominator.
    """
    if consistency < 1.0 or generated_makespan is None:
        return 0.0
    if generated_makespan <= gt_makespan:
        return 1.0
    if gt_operation_count == gt_makespan:
        raise DegenerateDenominator(
            f"ground truth makespan {gt_makespan} equals its operation count; "
            f"the efficiency scale is empty"
        )
    score = (gt_operation_count - generated_makespan) / (
        gt_operation_count - gt_makespan
    )
    return min(1.0, max(0.0, score))


def executability(outcome: ExecutionOutcome, schedule: ScheduleGraph) -> float:
    """Fraction of scheduled operations that ran every skill cleanly.
    Blocked operations count as not run; an empty schedule is vacuously 1."""
    total = len(schedule.start_steps)
    if total == 0:
        return 1.0
    failed = {f.op_id for record in outcome.trace for f in record.failures}
    ran = {run.op_id for record in outcome.trace for run in record.operations}
    return len(ran - failed) / total


def goal_condition_recall(
    achieved: frozenset[tuple[str, str]],
    gt_status: frozenset[tuple[str, str]],
) -> float:
    """Share of ground-truth status facts present in the achieved set."""
    if not gt_status:
        raise EmptyGtStatus()
    return len(achieved & gt_status) / len(gt_status)


def success_rate(se: float, gcr: float) -> float:
    return 1.0 if se == 1.0 and gcr == 1.0 else 0.0


# ---------------------------------------------------------------------------
# whole-instance evaluation


class Run(NamedTuple):
    """One plan taken through the stages: its schedule and execution
    outcome, each None when an earlier stage stopped the run, and the error
    that stopped it."""

    schedule: ScheduleGraph | None = None
    outcome: ExecutionOutcome | None = None
    error: ShopfloorError | None = None

    @property
    def status(self) -> frozenset[tuple[str, str]] | None:
        """The status facts the execution made true; None without one."""
        return self.outcome.status if self.outcome is not None else None


def run_plan(
    scene: Scene,
    operations: Sequence[Operation],
    allocation: Allocation,
    tree: ProcessTree,
    schedule: ScheduleGraph,
    program: Program | None = None,
) -> Run:
    """Run the plan on schedule: assemble its program from tree unless one
    is given and execute it. An assembly that raises NoBranch or
    AmbiguousBranch stops the run, which keeps the schedule and the error."""
    try:
        if program is None:
            program = assemble_program(tree, operations, allocation, scene)
    except (NoBranch, AmbiguousBranch) as exc:
        return Run(schedule, error=exc)
    return Run(schedule, execute(schedule, program, scene, operations))


def reference_run(task: TaskInstance, tree: ProcessTree | None = None) -> Run:
    """run_plan on the task's ground truth: scheduled with reference_schedule
    over its stored record, running its stored program, else one assembled
    from tree (the reference tree by default). A record that does not solve
    the graph, or an exact search that gives up, stops the run without a
    schedule."""
    gt = task.ground_truth
    if gt is None:
        raise ValueError("task carries no ground truth to evaluate against")
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    try:
        schedule = reference_schedule(graph, gt.schedule)
    except (ValidationError, InstanceTooLarge) as exc:
        return Run(error=exc)
    tree = tree if tree is not None else load_reference_tree()
    return run_plan(task.scene, gt.operations, gt.allocation, tree, schedule, gt.program)


def fifo_run(
    task: TaskInstance,
    reference: Run,
    operations: Sequence[Operation],
    allocation: Allocation,
    precedence: PrecedenceSet,
    tree: ProcessTree,
) -> Run:
    """run_plan on a plan of task, scheduled first-in-first-out in the order
    it lists its operations. reference is the task's reference_run on the
    same tree, without error. The graph depends only on the scene and the
    plan triple, so a plan that lists the ground truth's operations in the
    same order, with an equal allocation and equal chains, runs on the
    reference's graph. When, moreover, the ground truth stores no program
    and FIFO gives the reference's start steps, every input of run_plan is
    the reference's, and the run is the reference's outcome under the FIFO
    schedule."""
    gt = task.ground_truth
    same = (tuple(operations), allocation, precedence) == (
        gt.operations, gt.allocation, gt.precedence
    )
    if same:
        graph = reference.schedule.graph
    else:
        graph = build_graph(operations, precedence, allocation, task.scene)
    schedule = solve_fifo(graph, [op.id for op in operations])
    if same and gt.program is None and schedule.start_steps == reference.schedule.start_steps:
        return Run(schedule, reference.outcome)
    return run_plan(task.scene, operations, allocation, tree, schedule)


def ground_truth_run(task: TaskInstance, tree: ProcessTree | None = None) -> Run:
    """reference_run, raising the error of the stage that stopped it."""
    run = reference_run(task, tree)
    if run.error is not None:
        raise run.error
    return run


class EvaluationReport(NamedTuple):
    operation_consistency: float
    scheduling_efficiency: float
    executability: float
    goal_condition_recall: float
    success_rate: float
    metadata: Mapping[str, Any]


METRIC_FIELDS = (
    "operation_consistency",
    "scheduling_efficiency",
    "executability",
    "goal_condition_recall",
    "success_rate",
)


def score(
    task: TaskInstance,
    reference: Run,
    operations: Sequence[Operation] | None,
    allocation: Allocation | None,
    run: Run,
    degenerate_se: float | None = None,
) -> EvaluationReport:
    """Score a plan's run against the reference run of the task's ground
    truth. operations is None when no plan came back; stages the run never
    reached score zero. When the efficiency scale is degenerate,
    DegenerateDenominator propagates unless degenerate_se supplies a
    substitute score (the substitution is flagged in the metadata)."""
    gt = task.ground_truth
    schedule, execution = run.schedule, run.outcome
    oc = (
        operation_consistency(operations, allocation, gt.operations, gt.allocation)
        if operations is not None
        else 0.0
    )
    degenerate = False
    try:
        se = scheduling_efficiency(
            schedule.makespan if schedule is not None else None,
            reference.schedule.makespan,
            len(gt.operations),
            oc,
        )
    except DegenerateDenominator:
        if degenerate_se is None:
            raise
        se = degenerate_se
        degenerate = True
    exe = executability(execution, schedule) if execution is not None else 0.0
    gcr = goal_condition_recall(run.status or frozenset(), reference.status)
    sr = success_rate(se, gcr)
    return EvaluationReport(
        operation_consistency=oc,
        scheduling_efficiency=se,
        executability=exe,
        goal_condition_recall=gcr,
        success_rate=sr,
        metadata={
            "gt_operation_count": len(gt.operations),
            "gt_makespan": reference.schedule.makespan,
            "generated_operation_count": len(operations) if operations is not None else None,
            "generated_makespan": schedule.makespan if schedule is not None else None,
            "generated_executed_fully": execution.executed_fully if execution is not None else None,
            "degenerate_efficiency": degenerate,
        },
    )


def evaluate_instance(
    task: TaskInstance,
    operations: Sequence[Operation] | None,
    allocation: Allocation | None,
    schedule: ScheduleGraph | None,
    execution: ExecutionOutcome | None,
    tree: ProcessTree | None = None,
    degenerate_se: float | None = None,
) -> EvaluationReport:
    """score, with the ground truth replayed by ground_truth_run and the
    plan's run made of the given stage outputs; None marks a stage the
    pipeline never reached."""
    run = Run(schedule, execution)
    return score(task, ground_truth_run(task, tree), operations, allocation, run, degenerate_se)


def report_to_json(report: EvaluationReport) -> dict:
    doc = {field: getattr(report, field) for field in METRIC_FIELDS}
    doc["metadata"] = dict(report.metadata)
    return doc
