"""Seeded semantic mutations of ground-truth plan text, for the `faulty` workload.

Each mutator edits one task's ground-truth plan and renders it back to the
planner's text format; the reply then reaches the pipeline through
`RecordedTransport`, as a language model's reply would. Every mutator
predicts the class of outcome its plan must land in, and `check_outcome`
holds the pipeline's actual result to that prediction:

- `wrong_machine` moves a workpiece's first transport to start from a
  machine the workpiece is not on. The plan is valid; execution fails that
  transport with `wrong_location` and its chain successor never runs.
- `drop_operation` deletes one operation line but keeps its allocation and
  chain entries; `unknown_robot` allocates one operation to a robot the
  scene lacks. Either plan fails validation and every stage after planning
  scores zero.
- `other_robot` gives one workpiece's operations to another robot of the
  scene. The plan is valid and runs fully, but operation consistency drops
  below 1.0, which zeroes scheduling efficiency.
- `swap_chain_head` swaps the first two entries of one workpiece chain. The
  plan is valid, but the processing step runs while the workpiece is still
  on the conveyor, fails with `wrong_location`, and its successors in the
  chain never run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from shopfloor.executor import ExecutionOutcome
from shopfloor.metrics import EvaluationReport
from shopfloor.model import Allocation, Operation, PrecedenceSet, TaskInstance
from shopfloor.planner import render_planner_text

MUTATORS = ("wrong_machine", "drop_operation", "unknown_robot", "other_robot",
            "swap_chain_head")

# Predicted outcome class of each mutator.
OUTCOME = {
    "wrong_machine": "blocked_transport",
    "drop_operation": "invalid_plan",
    "unknown_robot": "invalid_plan",
    "other_robot": "inconsistent",
    "swap_chain_head": "early_processing",
}

UNKNOWN_ROBOT = "r_missing"


@dataclass(frozen=True)
class Fault:
    """One mutated plan: which mutator ran, on which workpiece and operation."""

    mutator: str
    workpiece: str
    op_id: str
    reply: str


def _applicable(task: TaskInstance) -> list[str]:
    if len(task.scene.robots) > 1:
        return list(MUTATORS)
    return [m for m in MUTATORS if m != "other_robot"]


def mutate(task: TaskInstance, mutator: str, rng: random.Random) -> Fault:
    """Apply `mutator` to the task's ground-truth plan, choosing the target
    workpiece with `rng`."""
    gt = task.ground_truth
    ops = list(gt.operations)
    by_op = dict(gt.allocation.by_op)
    chains = dict(gt.precedence.chains)
    workpiece = rng.choice(sorted(chains))
    chain = chains[workpiece]

    if mutator == "wrong_machine":
        target = chain[0]
        op = next(o for o in ops if o.id == target)
        others = sorted(m.id for m in task.scene.machines
                        if m.id not in (op.machine_1, op.machine_2))
        moved = Operation(id=op.id, op_type=op.op_type, workpiece=op.workpiece,
                          machine_1=rng.choice(others), machine_2=op.machine_2)
        ops = [moved if o.id == target else o for o in ops]
    elif mutator == "drop_operation":
        target = rng.choice(chain)
        ops = [o for o in ops if o.id != target]
    elif mutator == "unknown_robot":
        target = rng.choice(chain)
        by_op[target] = UNKNOWN_ROBOT
    elif mutator == "other_robot":
        target = chain[0]
        current = by_op[target]
        robot = rng.choice(sorted(r.id for r in task.scene.robots if r.id != current))
        for op_id in chain:
            by_op[op_id] = robot
    elif mutator == "swap_chain_head":
        target = chain[1]
        chains[workpiece] = (chain[1], chain[0]) + chain[2:]
    else:
        raise ValueError(f"unknown mutator '{mutator}'")
    reply = render_planner_text(ops, Allocation(by_op=by_op), PrecedenceSet(chains=chains))
    return Fault(mutator=mutator, workpiece=workpiece, op_id=target, reply=reply)


def plan_faults(tasks: list[tuple[str, TaskInstance]], seed: int) -> dict[str, Fault]:
    """One fault per task. Mutators rotate over the tasks in the given order,
    so every tier gets every mutator in near-equal shares; a mutator that
    does not apply (another robot on a one-robot floor) passes to the next."""
    rng = random.Random(f"faulty:{seed}")
    offset = rng.randrange(len(MUTATORS))
    faults: dict[str, Fault] = {}
    for i, (task_id, task) in enumerate(tasks):
        applicable = _applicable(task)
        turn = (i + offset) % len(MUTATORS)
        mutator = next(m for m in MUTATORS[turn:] + MUTATORS[:turn] if m in applicable)
        faults[task_id] = mutate(task, mutator, random.Random(f"{seed}:{task_id}"))
    return faults


def _failures(outcome: ExecutionOutcome) -> list[tuple[str, int, str]]:
    return [(f.op_id, f.skill_index, f.reason)
            for record in outcome.trace for f in record.failures]


def _ran(outcome: ExecutionOutcome) -> set[str]:
    return {run.op_id for record in outcome.trace for run in record.operations}


def check_outcome(
    fault: Fault,
    task: TaskInstance,
    report: EvaluationReport,
    error: str | None,
    execution: ExecutionOutcome | None,
) -> str | None:
    """Why the result misses the fault's predicted class, or None if it lands."""
    outcome = OUTCOME[fault.mutator]
    scores = (report.operation_consistency, report.scheduling_efficiency,
              report.executability, report.goal_condition_recall, report.success_rate)
    if outcome == "invalid_plan":
        if error is None or not error.startswith("planner output invalid"):
            return f"expected an invalid plan, got error {error!r}"
        if execution is not None or scores[1:] != (0.0, 0.0, 0.0, 0.0):
            return f"invalid plan scored {scores}"
        if not report.operation_consistency < 1.0:
            return "invalid plan kept full consistency"
        return None
    if error is not None and error.startswith(("planner output invalid", "pipeline failed")):
        return f"valid plan expected, got error {error!r}"
    if execution is None:
        return "valid plan did not execute"
    if outcome == "inconsistent":
        if not report.operation_consistency < 1.0 or report.scheduling_efficiency != 0.0:
            return f"other robot scored {scores}"
        if not execution.executed_fully:
            return f"other robot did not run fully: {_failures(execution)}"
        return None
    # blocked_transport and early_processing: the target fails where it
    # starts and the rest of its workpiece's chain never runs.
    chain = task.ground_truth.precedence.chains[fault.workpiece]
    if _failures(execution) != [(fault.op_id, -1, "wrong_location")]:
        return f"expected {fault.op_id} to fail with wrong_location, got {_failures(execution)}"
    successors = [op for op in chain if op != fault.op_id]
    if _ran(execution) & set(successors):
        return f"successors of {fault.op_id} ran: {sorted(_ran(execution) & set(successors))}"
    if not report.executability < 1.0 or not report.goal_condition_recall < 1.0:
        return f"failed operation still scored {scores}"
    if report.success_rate != 0.0:
        return "failed operation still counted as a success"
    if outcome == "early_processing" and report.operation_consistency != 1.0:
        return "swapped chain changed the operations"
    return None
