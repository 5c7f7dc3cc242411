"""Acceptance gate: one test per shipping criterion.

Each test prints a single "criterion N: PASS" line with its measured
numbers; run with `pytest tests/test_acceptance.py -v -s` to see them.
Tolerances are pinned here, not imported, so a regression in the library
cannot silently relax the gate.
"""

from __future__ import annotations

import json
import random
import time
from importlib import resources

from conftest import make_machine, make_op, make_robot, make_scene, make_workpiece, transport

from shopfloor.bench import BenchTask, Tier, generate_instance, run_benchmark, task_id_for
from shopfloor.executor import execute, parse_trace, trace_to_jsonl
from shopfloor.graph import build_graph
from shopfloor.metrics import (
    goal_condition_recall,
    ground_truth_run,
    scheduling_efficiency,
    success_rate,
)
from shopfloor.model import (
    PROGRAM,
    SCHEDULE_RECORD,
    TASK,
    Allocation,
    OperationType,
    PrecedenceSet,
    parse_task_instance,
    serialize_task_instance,
)
from shopfloor.planner import GroundTruthPlanner, parse_planner_text, render_planner_text
from shopfloor.solve import brute_force_optimal, is_feasible, solve_fifo
from shopfloor.tree import assemble_program, load_reference_tree, parse_tree, serialize_tree

import shopfloor.bench as bench

PROCESSING_TYPES = (OperationType.POLISHING, OperationType.WELDING, OperationType.BEVELING)


def _random_plan(rng, n_robots, n_tables, n_workpieces, ops_per_workpiece):
    """A random but well-formed plan triple plus its scene.

    Chains need not make physical sense; the scheduling layer only sees
    the graph structure, so types and machines are drawn freely."""
    robots = [f"r{i + 1}" for i in range(n_robots)]
    tables = [f"table_{i + 1}" for i in range(n_tables)]
    machine_ids = ["conveyor", *tables, "pallet_1"]
    workpieces = [f"w{i + 1}" for i in range(n_workpieces)]

    ops, chains, alloc = [], {}, {}
    counter = 1
    for wp in workpieces:
        chain = []
        location = "conveyor"
        for _ in range(ops_per_workpiece if isinstance(ops_per_workpiece, int)
                       else rng.randint(*ops_per_workpiece)):
            op_id = f"o{counter}"
            counter += 1
            if rng.random() < 0.4:
                destination = rng.choice([m for m in machine_ids if m != location])
                ops.append(transport(op_id, wp, location, destination))
                location = destination
            else:
                ops.append(make_op(op_id, rng.choice(PROCESSING_TYPES), wp, location))
            chain.append(op_id)
            alloc[op_id] = rng.choice(robots)
        chains[wp] = tuple(chain)

    scene = make_scene(
        robots=[make_robot(r, reachable=tuple(machine_ids)) for r in robots],
        machines=[
            make_machine("conveyor", name="conveyor belt", exclusive=False, held=workpieces),
            *[make_machine(t) for t in tables],
            make_machine("pallet_1", name="pallet", exclusive=False),
        ],
        workpieces=[make_workpiece(w) for w in workpieces],
    )
    return tuple(ops), PrecedenceSet(chains), Allocation(alloc), scene


# ---------------------------------------------------------------------------


def test_criterion_1_ground_truth_pipeline_is_perfect_across_tiers():
    started = time.monotonic()
    tasks = [
        BenchTask(task_id_for(tier, seed), tier, generate_instance(tier, seed))
        for tier in Tier
        for seed in range(20)
    ]
    result = run_benchmark(tasks, GroundTruthPlanner())
    elapsed = time.monotonic() - started

    assert len(result.results) == 60
    for row in result.results:
        assert row.error is None, f"{row.task_id}: {row.error}"
        for field in (
            "operation_consistency",
            "scheduling_efficiency",
            "executability",
            "goal_condition_recall",
            "success_rate",
        ):
            assert getattr(row.report, field) == 1.0, f"{row.task_id}.{field}"
    assert elapsed < 60.0
    print(f"\ncriterion 1 PASS: 60 tasks (20 per tier), all five metrics 1.0, {elapsed:.2f}s")


def test_criterion_2_fifo_always_feasible_and_fast():
    rng = random.Random(20_01)
    for _ in range(1000):
        ops, prec, alloc, scene = _random_plan(
            rng,
            n_robots=rng.randint(1, 7),
            n_tables=rng.randint(1, 3),
            n_workpieces=rng.randint(1, 6),
            ops_per_workpiece=(1, 4),
        )
        graph = build_graph(ops, prec, alloc, scene)
        order = [op.id for op in ops]
        if rng.random() < 0.5:
            rng.shuffle(order)
        schedule = solve_fifo(graph, order)
        assert is_feasible(schedule, graph)

    timings = []
    for _ in range(50):
        ops, prec, alloc, scene = _random_plan(
            rng, n_robots=4, n_tables=3, n_workpieces=6, ops_per_workpiece=4
        )
        assert len(ops) == 24
        started = time.perf_counter()
        graph = build_graph(ops, prec, alloc, scene)
        schedule = solve_fifo(graph, [op.id for op in ops])
        timings.append(time.perf_counter() - started)
        assert is_feasible(schedule, graph)
    assert max(timings) < 0.050
    print(
        f"\ncriterion 2 PASS: 1000 random instances feasible; 24-op solve "
        f"mean {1000 * sum(timings) / len(timings):.2f}ms, max {1000 * max(timings):.2f}ms"
    )


def test_criterion_3_exact_solver_never_beaten_by_fifo():
    rng = random.Random(30_01)
    equal = 0
    total = 200
    for _ in range(total):
        ops, prec, alloc, scene = _random_plan(
            rng,
            n_robots=rng.randint(1, 3),
            n_tables=rng.randint(1, 2),
            n_workpieces=rng.randint(1, 2),
            ops_per_workpiece=(1, 4),
        )
        assert len(ops) <= 8
        graph = build_graph(ops, prec, alloc, scene)
        fifo = solve_fifo(graph, [op.id for op in ops])
        optimal = brute_force_optimal(graph)
        assert is_feasible(fifo, graph) and is_feasible(optimal, graph)
        assert optimal.makespan <= fifo.makespan
        equal += optimal.makespan == fifo.makespan
    print(
        f"\ncriterion 3 PASS: optimal <= first-in-first-out on {total}/{total} "
        f"instances; equal on {equal} ({100 * equal / total:.0f}%)"
    )


def test_criterion_4_relay_task_schedules_and_lands_exactly():
    [relay] = [t for t in bench.load_bundled_tasks() if t.task_id == "simple_multi_relay"]
    task = relay.instance
    gt = task.ground_truth
    assert gt.schedule.makespan == 6 and gt.schedule.source == "optimal"

    graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
    fifo = solve_fifo(graph, [op.id for op in gt.operations])
    assert fifo.makespan == 6
    assert brute_force_optimal(graph).makespan == 6

    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, task.scene)
    outcome = execute(fifo, program, task.scene, gt.operations)
    assert outcome.executed_fully
    assert outcome.status == {("w1", "at(pallet_2)"), ("w1", "polished"),
                              ("w2", "at(pallet_1)"), ("w2", "polished")}
    print(
        "\ncriterion 4 PASS: relay fixture: first-in-first-out makespan 6 == exact optimum, "
        "w2 lands on pallet_1, w1 on pallet_2"
    )


def test_criterion_5_metric_formulas_hit_pinned_values():
    assert abs(scheduling_efficiency(8, 6, 10, 1.0) - 0.5) <= 1e-12
    assert scheduling_efficiency(6, 6, 10, 1.0) == 1.0
    assert scheduling_efficiency(None, 6, 10, 1.0) == 0.0
    facts = frozenset({("w1", "at(pallet_1)"), ("w1", "polished"), ("w2", "at(pallet_2)"), ("w2", "welded")})
    achieved = frozenset(sorted(facts)[:3])
    assert goal_condition_recall(achieved, facts) == 0.75
    spurious = achieved | {("w1", "beveled"), ("w2", "at(conveyor)")}
    assert goal_condition_recall(spurious, facts) == 0.75
    print(
        "\ncriterion 5 PASS: efficiency(gen 8, ref 6 of 10 ops) == 0.5 within 1e-12, "
        "no schedule == 0.0; recall(3 of 4 facts) == 0.75 with or without spurious facts"
    )


def test_criterion_6_metric_gates_hold_under_random_inputs():
    rng = random.Random(60_01)
    for _ in range(500):
        consistency = rng.choice([0.0, 0.25, 0.5, 0.9999, 1.0])
        gt_makespan = rng.randint(1, 20)
        op_count = gt_makespan + rng.randint(1, 10)
        generated = rng.randint(1, 30)
        se = scheduling_efficiency(generated, gt_makespan, op_count, consistency)
        assert 0.0 <= se <= 1.0
        if consistency < 1.0:
            assert se == 0.0

        se_in = rng.choice([0.0, 0.5, 1.0])
        gcr_in = rng.choice([0.0, 0.75, 1.0])
        assert (success_rate(se_in, gcr_in) == 1.0) == (se_in == 1.0 and gcr_in == 1.0)
    print(
        "\ncriterion 6 PASS: 500 draws: consistency < 1 forces efficiency 0; "
        "success == 1 exactly when efficiency and recall are both 1"
    )


def test_criterion_7_program_assembly_dedups_and_shares_prefixes():
    scene = make_scene(
        robots=[make_robot("r1", reachable=("conveyor", "table_1", "pallet_1"))],
        machines=[
            make_machine("conveyor", name="conveyor belt", exclusive=False, held=("w1",)),
            make_machine("table_1"),
            make_machine("pallet_1", name="pallet", exclusive=False),
        ],
        workpieces=[make_workpiece("w1")],
    )
    ops = (
        transport("t1", "w1", "conveyor", "table_1"),
        make_op("p1", OperationType.POLISHING, "w1", "table_1"),
        transport("t2", "w1", "table_1", "conveyor"),
        make_op("p2", OperationType.POLISHING, "w1", "conveyor"),
        transport("t3", "w1", "conveyor", "pallet_1"),
    )
    program = assemble_program(
        load_reference_tree(), ops, Allocation({op.id: "r1" for op in ops}), scene
    )
    assert len(program.executions) == 2
    assert len(program.wrappers) == 5
    assert len(program.calls) == 5

    first, second = [
        [(call.skill, tuple(call.args)) for call in skills]
        for _, skills in sorted(program.executions.items())
    ]
    shared = [
        ("convert_to_robot", ("{robot}", "{machine_1}", "{point:Photo_Point}")),
        ("motion_plan", ("{robot}", "{machine_1}", "{point:Photo_Point}")),
        ("move_by_path", ("{robot}",)),
        ("control_device", ("{robot}", "{device:camera}", "on")),
    ]
    assert first[: len(shared)] == shared
    assert second[: len(shared)] == shared
    assert first[len(shared)] != second[len(shared)]
    print(
        "\ncriterion 7 PASS: 5 operations over 2 branches: 2 shared execution "
        "functions, 5 wrappers, 4-call prefix token-identical"
    )


def test_criterion_8_wrong_robot_poisons_consistency_and_efficiency():
    class WrongRobotPlanner:
        """Ground truth with the first operation handed to the next robot."""

        def plan(self, task):
            gt = task.ground_truth
            robots = sorted(robot.id for robot in task.scene.robots)
            victim = min(op.id for op in gt.operations)
            current = gt.allocation.robot_for(victim)
            swapped = robots[(robots.index(current) + 1) % len(robots)]
            by_op = dict(gt.allocation.by_op)
            by_op[victim] = swapped
            text = render_planner_text(gt.operations, Allocation(by_op), gt.precedence)
            return parse_planner_text(text, task.scene)

    tasks = [
        BenchTask(task_id_for(tier, seed), tier, generate_instance(tier, seed))
        for tier in (Tier.SIMPLE_MULTI, Tier.COMPLEX_MULTI)
        for seed in range(10)
    ]
    tree = load_reference_tree()
    planner = WrongRobotPlanner()
    reports = {}
    for task in tasks:
        report, error = bench._run_pipeline(task.instance, planner, tree)
        assert error is None, f"{task.task_id}: {error}"
        reports[task.task_id] = report
        n = len(task.instance.ground_truth.operations)
        assert report.operation_consistency == (n - 1) / (n + 1), task.task_id
        assert report.scheduling_efficiency == 0.0, task.task_id
        assert report.success_rate == 0.0, task.task_id

    mean_oc = sum(r.operation_consistency for r in reports.values()) / len(reports)
    assert mean_oc < 1.0

    # hand-checked counts for three fixed seeds
    assert reports["simple_multi_0000"].operation_consistency == 9 / 11
    assert reports["simple_multi_0001"].operation_consistency == 9 / 11
    assert reports["complex_multi_0000"].operation_consistency == 21 / 23
    print(
        "\ncriterion 8 PASS: 20 perturbed tasks: consistency == (n-1)/(n+1) "
        "on all, efficiency exactly 0.0, three seeds hand-checked"
    )


def test_criterion_9_every_artifact_round_trips_byte_identically():
    data = resources.files("shopfloor").joinpath("data")

    for name in ("tasks/simple_multi_relay.json", "tasks/single_robot_minimal.json"):
        text = data.joinpath(name).read_text(encoding="utf-8")
        assert serialize_task_instance(parse_task_instance(text)) == text, name

    generated = generate_instance(Tier.COMPLEX_MULTI, 0)
    text = serialize_task_instance(generated)
    assert serialize_task_instance(TASK.load(json.loads(text), "task")) == text
    assert TASK.serialize(generated) == text

    tree_text = data.joinpath("process_tree.json").read_text(encoding="utf-8")
    assert serialize_tree(parse_tree(tree_text)) == tree_text

    gt = generated.ground_truth
    record_text = SCHEDULE_RECORD.serialize(gt.schedule)
    assert SCHEDULE_RECORD.serialize(
        SCHEDULE_RECORD.load(json.loads(record_text), "schedule")
    ) == record_text

    run = ground_truth_run(generated, load_reference_tree())
    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, generated.scene)
    program_text = PROGRAM.serialize(program)
    assert PROGRAM.serialize(PROGRAM.load(json.loads(program_text), "program")) == program_text

    trace_text = trace_to_jsonl(run.outcome.trace)
    assert trace_to_jsonl(parse_trace(trace_text)) == trace_text
    print(
        "\ncriterion 9 PASS: task files, tree, schedule, program and trace "
        "all reserialize byte-identically"
    )