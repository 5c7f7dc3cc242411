"""Evaluation metrics for generated plans against a task's ground truth.

Five scores, each in [0, 1]: operation consistency (multiset overlap of
operation tuples), scheduling efficiency (makespan gap normalized by the
worst serial schedule, gated on perfect consistency), executability
(fraction of operations that ran their full skill sequence), goal
condition recall (ground-truth status facts actually achieved), and
success rate (all-or-nothing on efficiency and recall).

evaluate_instance replays the ground truth symbolically to obtain the
reference makespan and status delta, then scores the generated pipeline's
stages; stages lost to earlier failures score zero rather than raising.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .errors import DegenerateDenominator, EmptyGtStatus
from .executor import ExecutionOutcome, execute, initial_state, status_delta
from .graph import build_graph
from .model import Allocation, Operation, Program, ScheduleRecord, TaskInstance
from .solve import ScheduleGraph, brute_force_optimal, schedule_from_record
from .tree import ProcessTree, assemble_program, load_reference_tree


def _operation_key(op: Operation, allocation: Allocation | None) -> tuple[str, ...]:
    robot = allocation.robot_for(op.id) if allocation is not None else None
    return (
        op.op_type.value,
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
    down to the ground-truth makespan. Scores are clamped into [0, 1]; a
    ground truth that is itself serial leaves no scale to measure against,
    which raises DegenerateDenominator unless the makespans agree anyway.
    """
    if consistency < 1.0 or generated_makespan is None:
        return 0.0
    if generated_makespan == gt_makespan:
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
        raise EmptyGtStatus("ground truth achieves no status facts")
    return len(achieved & gt_status) / len(gt_status)


def success_rate(se: float, gcr: float) -> float:
    return 1.0 if se == 1.0 and gcr == 1.0 else 0.0


# ---------------------------------------------------------------------------
# whole-instance evaluation


@dataclass(frozen=True)
class GroundTruthRun:
    schedule: ScheduleGraph
    outcome: ExecutionOutcome
    status: frozenset[tuple[str, str]]


def ground_truth_schedule(
    task: TaskInstance, record: ScheduleRecord | None = None
) -> ScheduleGraph:
    """The schedule the task's ground truth is scored with: the given record,
    else the stored one, else the exact solver's over the stored operation
    order. Raises ValidationError for a record that does not solve the
    ground truth's graph, InstanceTooLarge when the exact search gives up."""
    gt = task.ground_truth
    if gt is None:
        raise ValueError("task carries no ground truth to evaluate against")
    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    record = record if record is not None else gt.schedule
    if record is not None:
        return schedule_from_record(graph, record)
    return brute_force_optimal(graph)


def ground_truth_run(
    task: TaskInstance,
    tree: ProcessTree | None = None,
    record: ScheduleRecord | None = None,
    program: Program | None = None,
) -> GroundTruthRun:
    """Replay the task's ground truth: schedule it with ground_truth_schedule,
    run the given program, else the stored one, else one assembled from tree
    (the reference tree by default), and take the status delta."""
    schedule = ground_truth_schedule(task, record)
    gt = task.ground_truth
    if program is None:
        program = gt.program
    if program is None:
        program = assemble_program(
            tree if tree is not None else load_reference_tree(),
            gt.operations,
            gt.allocation,
            task.scene,
        )
    outcome = execute(schedule, program, task.scene, gt.operations)
    status = status_delta(outcome.final_state, initial_state(task.scene))
    return GroundTruthRun(schedule=schedule, outcome=outcome, status=status)


@dataclass(frozen=True)
class EvaluationReport:
    operation_consistency: float
    scheduling_efficiency: float
    executability: float
    goal_condition_recall: float
    success_rate: float
    metadata: Mapping[str, Any]


def evaluate_instance(
    task: TaskInstance,
    operations: Sequence[Operation] | None,
    allocation: Allocation | None,
    schedule: ScheduleGraph | None,
    execution: ExecutionOutcome | None,
    tree: ProcessTree | None = None,
    degenerate_se: float | None = None,
) -> EvaluationReport:
    """Score one generated pipeline against the task's ground truth.

    Pass None for stages the pipeline never reached; they score zero.
    When the efficiency scale is degenerate, DegenerateDenominator
    propagates unless degenerate_se supplies a substitute score (the
    substitution is flagged in the metadata).
    """
    gt = task.ground_truth
    if gt is None:
        raise ValueError("task carries no ground truth to evaluate against")
    run = ground_truth_run(task, tree)
    oc = (
        operation_consistency(operations, allocation, gt.operations, gt.allocation)
        if operations is not None
        else 0.0
    )
    degenerate = False
    try:
        se = scheduling_efficiency(
            schedule.makespan if schedule is not None else None,
            run.schedule.makespan,
            len(gt.operations),
            oc,
        )
    except DegenerateDenominator:
        if degenerate_se is None:
            raise
        se = degenerate_se
        degenerate = True
    exe = (
        executability(execution, schedule)
        if execution is not None and schedule is not None
        else 0.0
    )
    achieved = (
        status_delta(execution.final_state, initial_state(task.scene))
        if execution is not None
        else frozenset()
    )
    gcr = goal_condition_recall(achieved, run.status)
    sr = success_rate(se, gcr)
    return EvaluationReport(
        operation_consistency=oc,
        scheduling_efficiency=se,
        executability=exe,
        goal_condition_recall=gcr,
        success_rate=sr,
        metadata={
            "gt_operation_count": len(gt.operations),
            "gt_makespan": run.schedule.makespan,
            "gt_executed_fully": run.outcome.executed_fully,
            "generated_operation_count": len(operations) if operations is not None else None,
            "generated_makespan": schedule.makespan if schedule is not None else None,
            "generated_executed_fully": execution.executed_fully if execution is not None else None,
            "degenerate_efficiency": degenerate,
        },
    )


def report_to_json(report: EvaluationReport) -> dict:
    return {
        "operation_consistency": report.operation_consistency,
        "scheduling_efficiency": report.scheduling_efficiency,
        "executability": report.executability,
        "goal_condition_recall": report.goal_condition_recall,
        "success_rate": report.success_rate,
        "metadata": dict(report.metadata),
    }
