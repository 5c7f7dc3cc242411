"""Metric formulas, their gates, and whole-instance evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopfloor.bench import METRIC_FIELDS, Tier, _run_pipeline, generate_instance
from shopfloor.errors import DegenerateDenominator, EmptyGtStatus
from shopfloor.executor import execute
from shopfloor.graph import build_graph
from shopfloor.metrics import (
    EvaluationReport,
    evaluate_instance,
    executability,
    goal_condition_recall,
    ground_truth_run,
    operation_consistency,
    report_to_json,
    scheduling_efficiency,
    success_rate,
)
from shopfloor.model import (
    Allocation,
    GroundTruth,
    OperationType,
    PrecedenceSet,
    Scene,
    ScheduleRecord,
    TaskInstance,
    at_label,
    parse_at_label,
    parse_task_instance,
    serialize_task_instance,
)
from shopfloor.solve import ScheduleGraph, solve_fifo
from shopfloor.tree import assemble_program, load_reference_tree

from conftest import FixedPlanner, make_op, make_scene, simple_plan, transport
from strategies import plan_triples

TREE = load_reference_tree()


def gt_task(program=None, schedule=None):
    ops, alloc, prec = simple_plan()
    return TaskInstance(
        scene=make_scene(),
        instruction="polish both plates and palletize them",
        ground_truth=GroundTruth(
            operations=ops,
            allocation=alloc,
            precedence=prec,
            program=program,
            schedule=schedule,
        ),
    )


def generated_stages(task, alloc_override=None):
    gt = task.ground_truth
    alloc = alloc_override or gt.allocation
    graph = build_graph(gt.operations, gt.precedence, alloc, task.scene)
    schedule = solve_fifo(graph, [op.id for op in gt.operations])
    program = assemble_program(TREE, gt.operations, alloc, task.scene)
    outcome = execute(schedule, program, task.scene, gt.operations)
    return gt.operations, alloc, schedule, outcome


# ---------------------------------------------------------------------------
# operation consistency


def test_oc_ignores_operation_ids():
    ops, alloc, _ = simple_plan()
    renamed = tuple(
        type(op)(id=f"x{i}", op_type=op.op_type, workpiece=op.workpiece,
                 machine_1=op.machine_1, machine_2=op.machine_2)
        for i, op in enumerate(ops)
    )
    renamed_alloc = Allocation(
        by_op={f"x{i}": alloc.robot_for(op.id) for i, op in enumerate(ops)}
    )
    assert operation_consistency(renamed, renamed_alloc, ops, alloc) == 1.0


def test_oc_empty_plans_agree():
    assert operation_consistency((), None, (), None) == 1.0


def test_oc_empty_against_real_plan_is_zero():
    ops, alloc, _ = simple_plan()
    assert operation_consistency((), None, ops, alloc) == 0.0


def test_oc_partial_overlap():
    gt = (make_op("a"), transport("b", "w1", "conveyor", "table_1"))
    gen = (make_op("c"), transport("d", "w1", "conveyor", "pallet_1"))
    alloc = Allocation(by_op={"a": "r1", "b": "r1", "c": "r1", "d": "r1"})
    # one shared tuple, one unique on each side: 1 / 3
    assert operation_consistency(gen, alloc, gt, alloc) == pytest.approx(1 / 3)


def test_oc_counts_duplicates_as_a_multiset():
    gt = (make_op("a"), make_op("b"))  # identical tuples
    gen = (make_op("c"),)
    alloc = Allocation(by_op={"a": "r1", "b": "r1", "c": "r1"})
    assert operation_consistency(gen, alloc, gt, alloc) == 0.5


def test_oc_sees_the_robot_assignment():
    ops, alloc, _ = simple_plan()
    moved = dict(alloc.by_op)
    moved["p1"] = "r2"
    assert operation_consistency(
        ops, Allocation(by_op=moved), ops, alloc
    ) == pytest.approx(5 / 7)


# ---------------------------------------------------------------------------
# scheduling efficiency


def test_se_equal_makespans_score_one():
    assert scheduling_efficiency(6, 6, 10, 1.0) == 1.0


def test_se_interpolates_between_serial_and_reference():
    assert scheduling_efficiency(8, 6, 10, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_se_clamps_to_unit_interval():
    assert scheduling_efficiency(5, 6, 10, 1.0) == 1.0
    assert scheduling_efficiency(12, 6, 10, 1.0) == 0.0


def test_se_gated_on_consistency():
    assert scheduling_efficiency(6, 6, 10, 0.99) == 0.0
    assert scheduling_efficiency(8, 6, 6, 0.5) == 0.0  # gate wins over degeneracy


def test_se_missing_schedule_scores_zero():
    assert scheduling_efficiency(None, 6, 10, 1.0) == 0.0


def test_se_serial_ground_truth_has_no_scale():
    with pytest.raises(DegenerateDenominator, match="operation count"):
        scheduling_efficiency(7, 6, 6, 1.0)


def test_se_serial_ground_truth_matched_exactly_is_fine():
    assert scheduling_efficiency(6, 6, 6, 1.0) == 1.0


# ---------------------------------------------------------------------------
# executability and recall


def test_executability_full_run(scene, plan):
    ops, alloc, prec = plan
    _, _, schedule, outcome = generated_stages(gt_task())
    assert executability(outcome, schedule) == 1.0


def test_executability_counts_blocked_ops_as_not_run():
    scene = make_scene()
    ops = (
        make_op("a1", machine_1="table_1", workpiece="w1"),
        transport("a2", "w1", "table_1", "pallet_1"),
        make_op("b1", OperationType.POLISHING, "w2", "table_1"),
    )
    # w1 and w2 sit on the conveyor, so a1 fails on location and blocks a2;
    # b1 fails too: 0 of 3 run
    alloc = Allocation(by_op={"a1": "r1", "a2": "r1", "b1": "r2"})
    prec = PrecedenceSet(chains={"w1": ("a1", "a2"), "w2": ("b1",)})
    graph = build_graph(ops, prec, alloc, scene)
    schedule = solve_fifo(graph, ["a1", "a2", "b1"])
    program = assemble_program(TREE, ops, alloc, scene)
    outcome = execute(schedule, program, scene, ops)
    assert executability(outcome, schedule) == 0.0
    assert outcome.executed_fully is False


def test_executability_empty_schedule_is_vacuous(scene):
    graph = build_graph((), PrecedenceSet(chains={}), Allocation(by_op={}), scene)
    schedule = solve_fifo(graph, [])
    program = assemble_program(TREE, (), Allocation(by_op={}), scene)
    outcome = execute(schedule, program, scene, ())
    assert executability(outcome, schedule) == 1.0


def test_gcr_counts_reference_facts_only():
    gt = frozenset({("w1", "polished"), ("w1", "at(p)"), ("w2", "polished"),
                    ("w2", "at(p)")})
    achieved = frozenset({("w1", "polished"), ("w1", "at(p)"), ("w2", "polished"),
                          ("w3", "extra")})
    assert goal_condition_recall(achieved, gt) == pytest.approx(0.75, abs=1e-12)


def test_gcr_extras_do_not_raise_the_score():
    gt = frozenset({("w1", "polished")})
    achieved = frozenset({("w1", "polished"), ("w1", "welded")})
    assert goal_condition_recall(achieved, gt) == 1.0


def test_gcr_empty_reference_raises():
    with pytest.raises(EmptyGtStatus):
        goal_condition_recall(frozenset(), frozenset())


@pytest.mark.parametrize(
    "se, gcr, sr",
    [(1.0, 1.0, 1.0), (1.0, 0.75, 0.0), (0.5, 1.0, 0.0), (0.0, 0.0, 0.0)],
)
def test_success_rate_is_all_or_nothing(se, gcr, sr):
    assert success_rate(se, gcr) == sr


# ---------------------------------------------------------------------------
# whole-instance evaluation


def test_ground_truth_run_computes_schedule_and_status():
    run = ground_truth_run(gt_task())
    assert run.schedule.makespan == 6
    assert run.outcome.executed_fully is True
    assert run.status == frozenset(
        {
            ("w1", "at(pallet_1)"),
            ("w1", "polished"),
            ("w2", "at(pallet_2)"),
            ("w2", "polished"),
        }
    )


def test_ground_truth_run_prefers_the_stored_schedule():
    record = ScheduleRecord(
        start_steps={"t1": 0, "p1": 1, "t2": 2, "t3": 3, "p2": 4, "t4": 5},
        makespan=6,
        source="optimal",
    )
    run = ground_truth_run(gt_task(schedule=record))
    assert run.schedule.start_steps == record.start_steps


def test_evaluate_instance_perfect_pipeline_scores_all_ones():
    task = gt_task()
    ops, alloc, schedule, outcome = generated_stages(task)
    report = evaluate_instance(task, ops, alloc, schedule, outcome)
    assert report.operation_consistency == 1.0
    assert report.scheduling_efficiency == 1.0
    assert report.executability == 1.0
    assert report.goal_condition_recall == 1.0
    assert report.success_rate == 1.0
    assert report.metadata["gt_makespan"] == 6
    assert report.metadata["generated_makespan"] == 6
    assert report.metadata["generated_executed_fully"] is True


def test_evaluate_instance_wrong_robot_breaks_consistency_and_efficiency():
    task = gt_task()
    moved = dict(task.ground_truth.allocation.by_op)
    moved["p1"] = "r2"
    ops, alloc, schedule, outcome = generated_stages(
        task, alloc_override=Allocation(by_op=moved)
    )
    report = evaluate_instance(task, ops, alloc, schedule, outcome)
    assert report.operation_consistency == pytest.approx(5 / 7)
    assert report.scheduling_efficiency == 0.0
    assert report.executability == 1.0
    assert report.goal_condition_recall == 1.0
    assert report.success_rate == 0.0


def test_evaluate_instance_missing_stages_score_zero():
    report = evaluate_instance(gt_task(), None, None, None, None)
    assert report.operation_consistency == 0.0
    assert report.scheduling_efficiency == 0.0
    assert report.executability == 0.0
    assert report.goal_condition_recall == 0.0
    assert report.success_rate == 0.0
    assert report.metadata["generated_makespan"] is None
    assert report.metadata["generated_operation_count"] is None


def test_evaluate_instance_requires_ground_truth(scene):
    task = TaskInstance(scene=scene, instruction="noop", ground_truth=None)
    with pytest.raises(ValueError, match="ground truth"):
        evaluate_instance(task, None, None, None, None)


def test_evaluate_instance_empty_ground_truth_raises(scene):
    task = TaskInstance(
        scene=scene,
        instruction="do nothing",
        ground_truth=GroundTruth(
            operations=(),
            allocation=Allocation(by_op={}),
            precedence=PrecedenceSet(chains={}),
        ),
    )
    with pytest.raises(EmptyGtStatus):
        evaluate_instance(task, (), Allocation(by_op={}), None, None)


def test_evaluate_instance_can_substitute_a_degenerate_efficiency():
    # serial ground truth (makespan == operation count) leaves no scale;
    # a slower generated schedule then has no honest score
    ops, alloc, prec = simple_plan()
    w1_ops = tuple(op for op in ops if op.workpiece == "w1")
    w1_alloc = Allocation(by_op={op.id: "r1" for op in w1_ops})
    w1_prec = PrecedenceSet(chains={"w1": tuple(op.id for op in w1_ops)})
    scene = make_scene()
    task = TaskInstance(
        scene=scene,
        instruction="polish w1",
        ground_truth=GroundTruth(
            operations=w1_ops,
            allocation=w1_alloc,
            precedence=w1_prec,
            schedule=ScheduleRecord(
                start_steps={"t1": 0, "p1": 1, "t2": 2}, makespan=3, source="optimal"
            ),
        ),
    )
    graph = build_graph(w1_ops, w1_prec, w1_alloc, scene)
    slow = ScheduleGraph(graph=graph, start_steps={"t1": 0, "p1": 2, "t2": 4}, makespan=5)
    with pytest.raises(DegenerateDenominator):
        evaluate_instance(task, w1_ops, w1_alloc, slow, None)
    report = evaluate_instance(task, w1_ops, w1_alloc, slow, None, degenerate_se=0.0)
    assert report.scheduling_efficiency == 0.0
    assert report.metadata["degenerate_efficiency"] is True
    assert report.success_rate == 0.0


def test_metadata_flags_non_degenerate_runs():
    task = gt_task()
    ops, alloc, schedule, outcome = generated_stages(task)
    report = evaluate_instance(task, ops, alloc, schedule, outcome)
    assert report.metadata["degenerate_efficiency"] is False


def test_report_json_carries_all_scores():
    report = EvaluationReport(1.0, 0.5, 1.0, 0.75, 0.0, {"gt_makespan": 6})
    data = report_to_json(report)
    assert list(data) == [
        "operation_consistency",
        "scheduling_efficiency",
        "executability",
        "goal_condition_recall",
        "success_rate",
        "metadata",
    ]
    assert data["scheduling_efficiency"] == 0.5
    assert data["metadata"] == {"gt_makespan": 6}


# ---------------------------------------------------------------------------
# properties


@given(
    oc=st.floats(min_value=0.0, max_value=0.999999),
    gen=st.integers(min_value=0, max_value=50),
    gt=st.integers(min_value=1, max_value=50),
    count=st.integers(min_value=1, max_value=50),
)
def test_imperfect_consistency_always_gates_efficiency(oc, gen, gt, count):
    assert scheduling_efficiency(gen, gt, count, oc) == 0.0


@given(se=st.floats(min_value=0.0, max_value=1.0),
       gcr=st.floats(min_value=0.0, max_value=1.0))
def test_success_rate_gate_property(se, gcr):
    sr = success_rate(se, gcr)
    assert sr in (0.0, 1.0)
    assert (sr == 1.0) == (se == 1.0 and gcr == 1.0)


@settings(max_examples=40, deadline=None)
@given(a=plan_triples(), b=plan_triples())
def test_oc_is_symmetric_and_bounded(a, b):
    ops_a, alloc_a, _, _ = a
    ops_b, alloc_b, _, _ = b
    forward = operation_consistency(ops_a, alloc_a, ops_b, alloc_b)
    backward = operation_consistency(ops_b, alloc_b, ops_a, alloc_a)
    assert forward == backward
    assert 0.0 <= forward <= 1.0
    assert operation_consistency(ops_a, alloc_a, ops_a, alloc_a) == 1.0


# ---------------------------------------------------------------------------
# metamorphic: ids are names, not meaning


def _renaming(ids, prefix):
    """Fresh names whose sort order is the reverse of the old ids'."""
    ordered = sorted(set(ids))
    return {old: f"{prefix}{len(ordered) - i:02d}" for i, old in enumerate(ordered)}


def _rename_plan(ops, alloc, prec, op_ids, robot_ids, machine_ids):
    renamed = tuple(
        op._replace(
            id=op_ids[op.id],
            machine_1=machine_ids[op.machine_1],
            machine_2=None if op.machine_2 is None else machine_ids[op.machine_2],
        )
        for op in ops
    )
    allocation = Allocation(
        by_op={op_ids[o]: robot_ids[r] for o, r in alloc.by_op.items()}
    )
    precedence = PrecedenceSet(
        chains={w: tuple(op_ids[o] for o in chain) for w, chain in prec.chains.items()}
    )
    return renamed, allocation, precedence


def _rename_task(task, op_ids, robot_ids, machine_ids):
    def label(state):
        machine = parse_at_label(state)
        return state if machine is None else at_label(machine_ids[machine])

    scene = task.scene
    renamed_scene = Scene(
        robots=tuple(
            r._replace(
                id=robot_ids[r.id],
                reachable_machines=frozenset(machine_ids[m] for m in r.reachable_machines),
            )
            for r in scene.robots
        ),
        machines=tuple(m._replace(id=machine_ids[m.id]) for m in scene.machines),
        workpieces=tuple(
            w._replace(state_sequence=tuple(map(label, w.state_sequence)))
            for w in scene.workpieces
        ),
    )
    gt = task.ground_truth
    assert gt.program is None  # generated tasks store no program
    ops, alloc, prec = _rename_plan(
        gt.operations, gt.allocation, gt.precedence, op_ids, robot_ids, machine_ids
    )
    schedule = gt.schedule._replace(
        start_steps={op_ids[o]: s for o, s in gt.schedule.start_steps.items()}
    )
    renamed = task._replace(
        scene=renamed_scene, ground_truth=GroundTruth(ops, alloc, prec, None, schedule)
    )
    # the renamed task must still be a valid task file
    return parse_task_instance(serialize_task_instance(renamed))


def _mutate(kind, task):
    gt = task.ground_truth
    ops, alloc, prec = list(gt.operations), dict(gt.allocation.by_op), dict(gt.precedence.chains)
    if kind == "shuffle":
        random.Random(0).shuffle(ops)
    elif kind == "drop":
        workpiece, chain = next((w, c) for w, c in sorted(prec.items()) if c)
        dropped = chain[-1]
        ops = [op for op in ops if op.id != dropped]
        del alloc[dropped]
        prec[workpiece] = chain[:-1]
    elif kind == "reassign":
        robots = [r.id for r in task.scene.robots]
        first = ops[0].id
        alloc[first] = robots[(robots.index(alloc[first]) + 1) % len(robots)]
    return tuple(ops), Allocation(by_op=alloc), PrecedenceSet(chains=prec)


def _scores(report):
    return tuple(getattr(report, field) for field in METRIC_FIELDS)


@pytest.mark.parametrize("kind", ["none", "shuffle", "drop", "reassign"])
@pytest.mark.parametrize(
    "tier,seed", [(t, s) for t in Tier for s in range(3)] + [(Tier.COMPLEX_MULTI, 20)]
)
def test_renaming_ids_leaves_every_metric_unchanged(tier, seed, kind):
    task = generate_instance(tier, seed)
    gt = task.ground_truth
    op_ids = _renaming([op.id for op in gt.operations], "op")
    robot_ids = _renaming([r.id for r in task.scene.robots], "bot")
    machine_ids = _renaming([m.id for m in task.scene.machines], "station")
    plan = _mutate(kind, task)

    report, _ = _run_pipeline(task, FixedPlanner(*plan), TREE)
    renamed_report, _ = _run_pipeline(
        _rename_task(task, op_ids, robot_ids, machine_ids),
        FixedPlanner(*_rename_plan(*plan, op_ids, robot_ids, machine_ids)),
        TREE,
    )
    assert _scores(renamed_report) == _scores(report)
    # the cases reach below 1 on recall and on efficiency, not only on consistency
    if kind == "drop":
        assert report.goal_condition_recall < 1.0
    if (tier, seed, kind) == (Tier.COMPLEX_MULTI, 20, "shuffle"):
        assert 0.0 < report.scheduling_efficiency < 1.0
