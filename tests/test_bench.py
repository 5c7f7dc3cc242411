"""Instance generation, suite files, and the benchmark runner."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

import shopfloor.bench as bench
import shopfloor.metrics as metrics
import shopfloor.solve as solve
from shopfloor.bench import (
    TIER_SPECS,
    BenchTask,
    Tier,
    generate_instance,
    generate_suite,
    load_bench_task,
    load_bundled_tasks,
    run_benchmark,
    suite_csv,
    summarize,
    task_id_for,
)
from shopfloor.errors import InstanceTooLarge, NoBranch, PlannerUnavailable, ValidationError
from shopfloor.executor import trace_to_jsonl
from shopfloor.graph import build_graph
from shopfloor.metrics import (
    METRIC_FIELDS,
    Run,
    fifo_run,
    ground_truth_run,
    reference_run,
    report_to_json,
    run_plan,
    score,
)
from shopfloor.model import (
    Allocation,
    GroundTruth,
    PrecedenceSet,
    Scene,
    ScheduleRecord,
    TaskInstance,
    canonical_json,
    serialize_task_instance,
    task_violations,
)
from shopfloor.planner import (
    GroundTruthPlanner,
    LlmConfig,
    LlmPlanner,
    RecordedTransport,
    render_planner_text,
)
from shopfloor.solve import solve_fifo
from shopfloor.tree import assemble_program, load_reference_tree

from conftest import (
    FixedPlanner,
    make_machine,
    make_robot,
    make_scene,
    make_workpiece,
    renamed_plan,
    unscheduled_task,
)
from conftest import transport as carry

SWEEP_SEEDS = range(6)


def all_tiers_sweep():
    for tier in Tier:
        for seed in SWEEP_SEEDS:
            yield tier, seed, generate_instance(tier, seed)


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic():
    a = generate_instance(Tier.SIMPLE_MULTI, 7)
    b = generate_instance(Tier.SIMPLE_MULTI, 7)
    assert serialize_task_instance(a) == serialize_task_instance(b)


def test_generated_bytes_are_pinned():
    # Seeds 0-59 of every tier, complex_multi 43, 44 and 59 among them (their
    # ground truths come from the exact search, not the bound exit).
    digest = hashlib.sha256()
    for tier in Tier:
        for seed in range(60):
            digest.update(serialize_task_instance(generate_instance(tier, seed)).encode())
    assert digest.hexdigest() == (
        "7ffc83e836160517695c5ae8b6d072dba4b386cf75c4f01f172bccf015585b30"
    )


def test_different_seeds_differ():
    a = generate_instance(Tier.SIMPLE_MULTI, 0)
    b = generate_instance(Tier.SIMPLE_MULTI, 1)
    assert serialize_task_instance(a) != serialize_task_instance(b)


def test_tier_caps_hold_across_a_seed_sweep():
    for tier, seed, task in all_tiers_sweep():
        spec = TIER_SPECS[tier]
        gt = task.ground_truth
        assert len(gt.operations) <= spec.max_operations
        assert len(gt.operations) >= 3
        assert spec.robots[0] <= len(task.scene.robots) <= spec.robots[1]
        assert spec.workpieces[0] <= len(task.scene.workpieces) <= spec.workpieces[1]
        if tier is Tier.SINGLE_ROBOT:
            assert len(task.scene.robots) == 1


def test_archetype_conveyor_feeds_tables_and_pallets():
    task = generate_instance(Tier.SIMPLE_MULTI, 3)
    conveyor = task.scene.machine("conveyor")
    assert not conveyor.exclusive
    assert set(conveyor.held_workpieces) == {w.id for w in task.scene.workpieces}
    for op in task.ground_truth.operations:
        if op.op_type.value == "transport":
            assert (op.machine_1 == "conveyor") or op.machine_1.startswith("table")
        else:
            assert op.machine_1.startswith("table")
    for wp in task.scene.workpieces:
        assert wp.state_sequence[-1].startswith("at(pallet")


def test_camera_variant_is_scene_wide():
    saw_handheld = saw_bracket = False
    for tier, seed, task in all_tiers_sweep():
        kits = {frozenset(r.devices) for r in task.scene.robots}
        assert len(kits) == 1, "robots must share one kit"
        kit = next(iter(kits))
        if "camera" in kit:
            saw_handheld = True
            assert "bracket_camera" not in kit
            for machine in task.scene.machines:
                assert "Photo_Point" in machine.points
        else:
            saw_bracket = True
            assert "bracket_camera" in kit
    assert saw_handheld and saw_bracket


def test_ground_truth_schedule_source_tracks_solver():
    for tier, seed, task in all_tiers_sweep():
        gt = task.ground_truth
        assert gt.schedule.source == "optimal"


def test_ground_truth_operations_are_in_start_step_order():
    for tier, seed, task in all_tiers_sweep():
        gt = task.ground_truth
        steps = [gt.schedule.start_steps[op.id] for op in gt.operations]
        assert steps == sorted(steps)


def test_fifo_replay_of_stored_order_reaches_the_recorded_makespan():
    for tier, seed, task in all_tiers_sweep():
        gt = task.ground_truth
        graph = build_graph(gt.operations, gt.precedence, gt.allocation, task.scene)
        replay = solve_fifo(graph, [op.id for op in gt.operations])
        assert replay.makespan == gt.schedule.makespan
        assert replay.start_steps == gt.schedule.start_steps


def test_generated_ground_truth_executes_fully():
    task = generate_instance(Tier.COMPLEX_MULTI, 2)
    run = ground_truth_run(task)
    assert run.outcome.executed_fully is True
    assert run.status


def test_instruction_mentions_every_workpiece():
    task = generate_instance(Tier.COMPLEX_MULTI, 4)
    for wp in task.scene.workpieces:
        assert wp.id in task.instruction


def test_a_candidate_that_is_no_valid_task_raises(monkeypatch):
    # One candidate per (tier, seed): without a polisher, no branch of the
    # reference tree polishes, so seed 1's ground truth cannot be assembled.
    monkeypatch.setattr(bench, "_BASE_DEVICES", bench._BASE_DEVICES - {"polisher"})
    with pytest.raises(ValidationError) as caught:
        generate_instance(Tier.SINGLE_ROBOT, 1)
    assert str(caught.value).startswith(
        "invalid single_robot instance for seed 1: operation 'o2' on robot 'r1': "
        "no complete branch"
    )


def test_a_candidate_that_fails_the_static_checks_raises(monkeypatch):
    candidate = bench._candidate

    def doubled_robots(tier, seed):
        task, schedule = candidate(tier, seed)
        scene = Scene(task.scene.robots * 2, task.scene.machines, task.scene.workpieces)
        return task._replace(scene=scene), schedule

    monkeypatch.setattr(bench, "_candidate", doubled_robots)
    with pytest.raises(ValidationError) as caught:
        generate_instance(Tier.SINGLE_ROBOT, 0)
    assert str(caught.value) == "invalid single_robot instance for seed 0: duplicate robot id 'r1'"


# ---------------------------------------------------------------------------
# suite files


def test_generate_suite_writes_stable_files(tmp_path):
    first = generate_suite(tmp_path / "a", per_tier=1, base_seed=5)
    second = generate_suite(tmp_path / "b", per_tier=1, base_seed=5)
    assert [p.name for p in first] == [p.name for p in second]
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes()
    names = {p.name for p in first}
    assert names == {
        "single_robot_0005.json",
        "simple_multi_0005.json",
        "complex_multi_0005.json",
    }


def _junk_files(directory, names):
    """Create each named file with content longer than any output."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        (directory / name).write_bytes(b"stale tail " * 4000)


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generate_suite_over_longer_files_matches_a_fresh_suite(tmp_path):
    fresh = generate_suite(tmp_path / "fresh", per_tier=2)
    _junk_files(tmp_path / "reused", [p.name for p in fresh])
    generate_suite(tmp_path / "reused", per_tier=2)
    assert _file_bytes(tmp_path / "reused") == _file_bytes(tmp_path / "fresh")


def test_load_bench_task_reads_tier_from_name(tmp_path):
    (path,) = generate_suite(tmp_path, per_tier=1, tiers=(Tier.SINGLE_ROBOT,))
    bench_task = load_bench_task(path)
    assert bench_task.task_id == "single_robot_0000"
    assert bench_task.tier is Tier.SINGLE_ROBOT
    assert bench_task.instance.ground_truth is not None


def test_load_bench_task_rejects_unknown_names(tmp_path):
    path = tmp_path / "mystery_0001.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="cannot infer a tier"):
        load_bench_task(path)


# ---------------------------------------------------------------------------
# running


def small_suite(tmp_path, per_tier=1):
    paths = generate_suite(tmp_path / "tasks", per_tier=per_tier)
    return [load_bench_task(p) for p in paths]


def test_ground_truth_planner_scores_all_ones(tmp_path):
    tasks = small_suite(tmp_path, per_tier=2)
    result = run_benchmark(tasks, GroundTruthPlanner(), out_dir=tmp_path / "out")
    assert len(result.results) == 6
    for row in result.results:
        assert row.error is None, row.error
        assert row.report.operation_consistency == 1.0
        assert row.report.scheduling_efficiency == 1.0
        assert row.report.executability == 1.0
        assert row.report.goal_condition_recall == 1.0
        assert row.report.success_rate == 1.0
    assert result.summary["overall"]["success_rate"] == 1.0
    assert result.summary["errors"] == 0
    for tier in Tier:
        assert result.summary["per_tier"][tier.value]["tasks"] == 2


def test_run_benchmark_writes_metrics_csv_and_summary(tmp_path):
    tasks = small_suite(tmp_path)
    out = tmp_path / "out"
    run_benchmark(tasks, GroundTruthPlanner(), out_dir=out)
    csv_text = (out / "suite.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0] == (
        "task_id,tier,operation_consistency,scheduling_efficiency,"
        "executability,goal_condition_recall,success_rate"
    )
    assert len(lines) == 1 + len(tasks)
    assert lines[1].endswith(",1.000000,1.000000,1.000000,1.000000,1.000000")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["overall"]["tasks"] == len(tasks)
    for task in tasks:
        doc = json.loads(
            (out / f"{task.task_id}.metrics.json").read_text(encoding="utf-8")
        )
        assert doc["task_id"] == task.task_id
        assert doc["error"] is None
        assert doc["success_rate"] == 1.0


def test_run_benchmark_over_longer_files_matches_a_fresh_directory(tmp_path):
    tasks = small_suite(tmp_path)
    run_benchmark(tasks, GroundTruthPlanner(), out_dir=tmp_path / "fresh")
    names = [f"{t.task_id}.metrics.json" for t in tasks] + ["suite.csv", "summary.json"]
    _junk_files(tmp_path / "reused", names)
    run_benchmark(tasks, GroundTruthPlanner(), out_dir=tmp_path / "reused")
    assert _file_bytes(tmp_path / "reused") == _file_bytes(tmp_path / "fresh")


def test_scored_bytes_are_pinned(tmp_path):
    # Seeds 0-59 of every tier under the ground-truth planner: 180 metrics
    # files, suite.csv and summary.json, in name order.
    paths = generate_suite(tmp_path / "tasks", per_tier=60)
    tasks = [load_bench_task(path) for path in paths]
    run_benchmark(tasks, GroundTruthPlanner(), out_dir=tmp_path / "out")
    files = _file_bytes(tmp_path / "out")
    assert len(files) == 182
    digest = hashlib.sha256(b"".join(files.values()))
    assert digest.hexdigest() == (
        "69aed8063372288f49daa1a705939d772194026ab328cf1ace9e4e8e96272425"
    )


class RefusingPlanner:
    def plan(self, task):
        from shopfloor.planner import parse_planner_text

        return parse_planner_text("I cannot plan this.", task.scene)


def test_a_reply_naming_a_reserved_vertex_is_invalid_planner_output(tmp_path):
    task = small_suite(tmp_path)[0]
    gt = task.instance.ground_truth
    plan = renamed_plan(gt.operations, gt.allocation, gt.precedence, "o1", "__source__")
    (row,) = run_benchmark([task], FixedPlanner(*plan)).results
    assert row.error == (
        "planner output invalid: operation id '__source__' collides with a reserved vertex"
    )
    assert row.report.success_rate == 0.0


class DownPlanner:
    def plan(self, task):
        raise PlannerUnavailable("endpoint gone")


def test_unusable_planner_output_scores_zero(tmp_path):
    tasks = small_suite(tmp_path)
    result = run_benchmark(tasks, RefusingPlanner())
    for row in result.results:
        assert row.error is not None
        assert "planner output invalid" in row.error
        assert row.report.operation_consistency == 0.0
        assert row.report.success_rate == 0.0
    assert result.summary["errors"] == len(tasks)


def test_unavailable_planner_degrades_not_raises(tmp_path):
    tasks = small_suite(tmp_path)
    result = run_benchmark(tasks, DownPlanner())
    for row in result.results:
        assert "planner unavailable" in row.error
        assert row.report.success_rate == 0.0


def test_semantically_invalid_plan_keeps_consistency_credit(tmp_path):
    # the planner names a robot the scene does not have: operations still
    # parse (so consistency is measurable) but nothing downstream runs
    (task,) = small_suite(tmp_path, per_tier=1)[:1]
    from shopfloor.planner import render_planner_text

    gt = task.instance.ground_truth
    text = render_planner_text(gt.operations, gt.allocation, gt.precedence)
    robot = gt.allocation.robot_for(gt.operations[0].id)
    broken = text.replace(f"{gt.operations[0].id} | {robot}",
                          f"{gt.operations[0].id} | r99")
    planner = LlmPlanner(
        LlmConfig(base_url="http://x", model="m"), RecordedTransport([broken])
    )
    result = run_benchmark([task], planner)
    (row,) = result.results
    assert row.error is not None
    assert 0.0 < row.report.operation_consistency < 1.0
    assert row.report.scheduling_efficiency == 0.0
    assert row.report.executability == 0.0


def test_an_invalid_ground_truth_costs_no_planner_call(tmp_path):
    (task,) = small_suite(tmp_path)[:1]
    gt = task.instance.ground_truth
    # Swapping the first two chain steps leaves the stored schedule running
    # that chain backwards, so the ground truth cannot be replayed.
    chain = list(gt.precedence.chains["w1"])
    chain[0], chain[1] = chain[1], chain[0]
    precedence = PrecedenceSet(chains={**gt.precedence.chains, "w1": tuple(chain)})
    instance = task.instance._replace(ground_truth=gt._replace(precedence=precedence))
    broken = task._replace(instance=instance)
    transport = RecordedTransport(
        [render_planner_text(gt.operations, gt.allocation, gt.precedence)]
    )
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), transport)
    (row,) = run_benchmark([broken], planner).results
    assert transport.prompts == []
    assert row.error == (
        f"ground truth invalid: schedule record runs chain arcs backwards: "
        f"'{chain[0]}' -> '{chain[1]}'"
    )
    assert [getattr(row.report, field) for field in bench.METRIC_FIELDS] == [0.0] * 5
    assert row.report.metadata == {"gt_operation_count": len(gt.operations)}


def test_a_ground_truth_that_achieves_nothing_costs_no_planner_call():
    # The stored program runs on robots without any device: every operation
    # fails, so the ground truth achieves no status fact to score against,
    # and the error names the first operation that failed.
    task = generate_instance(Tier.SINGLE_ROBOT, 0)
    gt = task.ground_truth
    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, task.scene)
    robots = tuple(r._replace(devices=frozenset()) for r in task.scene.robots)
    task = task._replace(
        scene=Scene(robots, task.scene.machines, task.scene.workpieces),
        ground_truth=gt._replace(program=program),
    )
    transport = RecordedTransport(
        [render_planner_text(gt.operations, gt.allocation, gt.precedence)]
    )
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), transport)
    report, error = bench._run_pipeline(task, planner, load_reference_tree())
    assert transport.prompts == []
    assert error == (
        "ground truth invalid: ground truth does not execute fully: "
        "operation 'o1' fails with missing_device"
    )
    assert report.success_rate == 0.0


def _refit(task, robot_ids, taken, given=frozenset()):
    """task with the devices taken from, and given to, the robots named."""
    robots = tuple(
        robot._replace(devices=(robot.devices - taken) | given)
        if robot.id in robot_ids else robot
        for robot in task.scene.robots
    )
    return task._replace(scene=Scene(robots, task.scene.machines, task.scene.workpieces))


def _stored_program_without(device, robot_ids):
    """simple_multi seed 3 with the program the reference tree assembles
    for it stored in the ground truth, and device taken from the robots
    named."""
    task = generate_instance(Tier.SIMPLE_MULTI, 3)
    gt = task.ground_truth
    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, task.scene)
    task = task._replace(ground_truth=gt._replace(program=program))
    return _refit(task, robot_ids, {device})


def test_a_ground_truth_that_does_not_run_fully_costs_no_planner_call():
    # Every robot lost the polisher: the stored program still runs, but o4
    # fails with missing_device, so the reference would be a partial one.
    task = _stored_program_without("polisher", {"r1", "r2", "r3"})
    gt = task.ground_truth
    transport = RecordedTransport(
        [render_planner_text(gt.operations, gt.allocation, gt.precedence)]
    )
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), transport)
    report, error = bench._run_pipeline(task, planner, load_reference_tree())
    assert transport.prompts == []
    assert error == (
        "ground truth invalid: ground truth does not execute fully: "
        "operation 'o4' fails with missing_device"
    )
    assert [getattr(report, field) for field in bench.METRIC_FIELDS] == [0.0] * 5
    assert report.metadata == {"gt_operation_count": len(gt.operations)}


def test_a_ground_truth_that_runs_fully_and_moves_nothing_costs_no_planner_call(tmp_path):
    # One robot carries w1 from the conveyor to the table and back: every
    # operation completes, yet w1 ends where it started with no new flag.
    scene = make_scene(
        robots=(make_robot("r1", reachable=("conveyor", "table_1")),),
        machines=(make_machine("conveyor", name="conveyor belt", exclusive=False, held=["w1"]),
                  make_machine("table_1")),
        workpieces=(make_workpiece("w1", states=()),),
    )
    ops = (carry("o1", "w1", "conveyor", "table_1"), carry("o2", "w1", "table_1", "conveyor"))
    gt = GroundTruth(ops, Allocation({"o1": "r1", "o2": "r1"}), PrecedenceSet({"w1": ("o1", "o2")}))
    task = TaskInstance(scene, "carry w1 to the table and back", gt)
    assert task_violations(task) == []
    path = tmp_path / "single_robot_there_and_back.json"
    path.write_text(serialize_task_instance(task), encoding="utf-8")
    replies = RecordedTransport([render_planner_text(ops, gt.allocation, gt.precedence)])
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), replies)
    (row,) = run_benchmark([load_bench_task(path)], planner).results
    assert replies.prompts == []
    assert row.error == "ground truth invalid: ground truth achieves no status facts"
    assert [getattr(row.report, field) for field in bench.METRIC_FIELDS] == [0.0] * 5


def test_a_stored_program_that_skips_the_gripper_is_no_reference():
    # Every robot lost the magnetic gripper, which every transport branch
    # names: the stored ground-truth program stops at its first transport,
    # as the reference tree refuses to branch for it.
    task = _stored_program_without("magnetic_gripper", {"r1", "r2", "r3"})
    gt, scene = task.ground_truth, task.scene
    robot = gt.allocation.robot_for("o1")
    with pytest.raises(NoBranch, match=f"^operation 'o1' on robot '{robot}': "):
        assemble_program(load_reference_tree(), gt.operations, gt.allocation, scene)
    report, error = bench._run_pipeline(task, GroundTruthPlanner(), load_reference_tree())
    assert error == (
        "ground truth invalid: ground truth does not execute fully: "
        "operation 'o1' fails with missing_device"
    )
    assert [getattr(report, field) for field in bench.METRIC_FIELDS] == [0.0] * 5


def test_a_plan_that_stops_at_assembly_keeps_its_schedule():
    # r2, which the ground truth leaves idle, lost the magnetic gripper; the
    # plan gives it the first transport, and no branch of the reference tree
    # transports without one.
    task = _refit(generate_instance(Tier.SIMPLE_MULTI, 3), {"r2"}, {"magnetic_gripper"})
    gt, scene = task.ground_truth, task.scene
    assert "r2" not in gt.allocation.by_op.values()
    allocation = Allocation(by_op={**gt.allocation.by_op, "o1": "r2"})
    planner = FixedPlanner(gt.operations, allocation, gt.precedence)
    report, error = bench._run_pipeline(task, planner, load_reference_tree())
    graph = build_graph(gt.operations, gt.precedence, allocation, scene)
    fifo = solve_fifo(graph, [op.id for op in gt.operations])
    assert error.startswith("pipeline failed: operation 'o1' on robot 'r2': ")
    assert "no complete branch" in error
    assert report.metadata["generated_makespan"] == fifo.makespan
    assert report.metadata["generated_executed_fully"] is None
    assert 0.0 < report.operation_consistency < 1.0  # one allocation differs
    assert report.executability == 0.0
    assert report.goal_condition_recall == 0.0


def test_a_condition_reads_the_kit_of_the_operations_own_robot():
    # Floors whose robots carry different kits: each node's device needs
    # are read on the robot that runs the operation, as the executor reads
    # them, so a tool or camera that robot carries is present even where
    # another robot that reaches the same machine lacks it.
    floors = (
        (Tier.SIMPLE_MULTI, 1, {"r2"}, {"polisher"}, frozenset()),
        (Tier.SIMPLE_MULTI, 2, {"r1"}, {"polisher"}, frozenset()),
        (Tier.SIMPLE_MULTI, 3, {"r3"}, {"camera"}, {"bracket_camera"}),
        (Tier.COMPLEX_MULTI, 5, {"r5"}, {"camera"}, {"bracket_camera"}),
    )
    tasks = [
        BenchTask(task_id_for(tier, seed), tier,
                  _refit(generate_instance(tier, seed), robot_ids, taken, given))
        for tier, seed, robot_ids, taken, given in floors
    ]
    result = run_benchmark(tasks, GroundTruthPlanner())
    for task, row in zip(tasks, result.results):
        assert row.error is None, (task.task_id, row.error)
        assert [getattr(row.report, field) for field in METRIC_FIELDS] == [1.0] * 5


# ---------------------------------------------------------------------------
# a plan that is its ground truth reuses the reference run


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of the graph, FIFO, assembly and execution stages that metrics
    makes."""
    calls: Counter = Counter()

    def counted(name):
        stage = getattr(metrics, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        return call

    for name in ("build_graph", "solve_fifo", "assemble_program", "execute"):
        monkeypatch.setattr(metrics, name, counted(name))
    return calls


def _unshared(task, planner, tree):
    """The plan's run and report without reuse: run_plan on the plan,
    scheduled FIFO in its listed order, scored against the reference run."""
    reference = reference_run(task, tree)
    output = planner.plan(task)
    order = [op.id for op in output.operations]
    graph = build_graph(output.operations, output.precedence, output.allocation, task.scene)
    run = run_plan(task.scene, output.operations, output.allocation, tree,
                   solve_fifo(graph, order))
    report = score(task, reference, output.operations, output.allocation, run,
                   degenerate_se=0.0)
    return run, report


def _report_bytes(report):
    return canonical_json(report_to_json(report))


def test_the_ground_truth_plan_reuses_the_reference_run(stage_calls):
    tree = load_reference_tree()
    planner = GroundTruthPlanner()
    for tier in Tier:
        for seed in range(40):
            task = generate_instance(tier, seed)
            stage_calls.clear()
            report, error = bench._run_pipeline(task, planner, tree)
            assert error is None
            assert stage_calls == {"build_graph": 1, "solve_fifo": 1, "assemble_program": 1,
                                   "execute": 1}, (tier, seed)

            reference = reference_run(task, tree)
            output = planner.plan(task)
            shared = fifo_run(task, reference, output.operations, output.allocation,
                              output.precedence, tree)
            assert shared.outcome is reference.outcome
            run, unshared_report = _unshared(task, planner, tree)
            assert shared.schedule.start_steps == run.schedule.start_steps
            assert shared.schedule.makespan == run.schedule.makespan
            assert trace_to_jsonl(shared.outcome.trace) == trace_to_jsonl(run.outcome.trace)
            assert shared.status == run.status == {
                (w.id, state) for w in task.scene.workpieces for state in w.state_sequence
            }
            assert shared.error is None and run.error is None
            assert _report_bytes(report) == _report_bytes(unshared_report)


def _with_stored_program():
    task = generate_instance(Tier.SIMPLE_MULTI, 3)
    gt = task.ground_truth
    program = assemble_program(load_reference_tree(), gt.operations, gt.allocation, task.scene)
    return task._replace(ground_truth=gt._replace(program=program))


def _case(name):
    if name == "fifo_differs":
        return unscheduled_task(), GroundTruthPlanner()
    if name == "stored_program":
        return _with_stored_program(), GroundTruthPlanner()
    task = generate_instance(Tier.COMPLEX_MULTI, 0)
    gt = task.ground_truth
    first = gt.operations[0].id
    other = next(r.id for r in task.scene.robots if r.id != gt.allocation.by_op[first])
    allocation = Allocation(by_op={**gt.allocation.by_op, first: other})
    return task, FixedPlanner(gt.operations, allocation, gt.precedence)


@pytest.mark.parametrize("name", ["fifo_differs", "stored_program", "other_robot"])
def test_a_plan_that_differs_from_its_reference_runs_on_its_own(stage_calls, name):
    task, planner = _case(name)
    tree = load_reference_tree()
    stage_calls.clear()
    report, _ = bench._run_pipeline(task, planner, tree)
    assert stage_calls["execute"] == 2
    # the plan is solved once; a plan whose triple is the ground truth's runs
    # on the reference's graph, also when the task stores a program
    assert stage_calls["solve_fifo"] == 1
    assert stage_calls["build_graph"] == (2 if name == "other_robot" else 1)
    if name == "fifo_differs":
        assert (report.metadata["generated_makespan"], report.metadata["gt_makespan"]) == (4, 3)
    _, unshared_report = _unshared(task, planner, tree)
    assert _report_bytes(report) == _report_bytes(unshared_report)


def test_a_plan_whose_triple_matches_runs_on_the_reference_graph(stage_calls):
    # The task stores a program, so the run is not reused, but the graph is.
    task = _with_stored_program()
    gt = task.ground_truth
    tree = load_reference_tree()
    reference = reference_run(task, tree)
    stage_calls.clear()
    run = fifo_run(task, reference, gt.operations, gt.allocation, gt.precedence, tree)
    assert run.schedule.graph is reference.schedule.graph
    assert run.outcome is not reference.outcome
    assert stage_calls["build_graph"] == 0 and stage_calls["execute"] == 1


def test_a_record_that_does_not_solve_its_graph_stops_the_reference_run():
    task = generate_instance(Tier.SIMPLE_MULTI, 3)
    gt = task.ground_truth
    record = gt.schedule._replace(start_steps=dict.fromkeys(gt.schedule.start_steps, 0),
                                  makespan=1)
    run = reference_run(task._replace(ground_truth=gt._replace(schedule=record)))
    assert isinstance(run.error, ValidationError)
    assert str(run.error).startswith("schedule record runs chain arcs backwards")
    assert run == Run(error=run.error)


def test_an_exact_search_that_gives_up_stops_the_reference_run(monkeypatch):
    monkeypatch.setattr(solve, "SEARCH_BUDGET", 2)
    run = reference_run(unscheduled_task())
    assert isinstance(run.error, InstanceTooLarge)
    assert run == Run(error=run.error)


def test_summarize_averages_per_tier():
    tasks = []
    csv_rows = []
    result_rows = []
    from shopfloor.metrics import EvaluationReport

    def fake(tier, task_id, sr):
        return bench.TaskResult(
            task_id=task_id,
            tier=tier,
            report=EvaluationReport(1.0, sr, 1.0, 1.0, sr, {}),
            error=None,
        )

    rows = [
        fake(Tier.SINGLE_ROBOT, "single_robot_0000", 1.0),
        fake(Tier.SINGLE_ROBOT, "single_robot_0001", 0.0),
        fake(Tier.COMPLEX_MULTI, "complex_multi_0000", 1.0),
    ]
    summary = summarize(rows)
    assert summary["per_tier"]["single_robot"]["success_rate"] == 0.5
    assert summary["per_tier"]["complex_multi"]["success_rate"] == 1.0
    assert "simple_multi" not in summary["per_tier"]
    assert summary["overall"]["success_rate"] == pytest.approx(2 / 3)
    text = suite_csv(rows)
    assert "single_robot_0001,single_robot,1.000000,0.000000" in text


def test_task_id_for_formats_seed():
    assert task_id_for(Tier.COMPLEX_MULTI, 12) == "complex_multi_0012"


def test_load_bundled_tasks_ships_both_fixtures():
    tasks = load_bundled_tasks()
    by_id = {t.task_id: t for t in tasks}
    assert set(by_id) == {"simple_multi_relay", "single_robot_minimal"}
    assert by_id["simple_multi_relay"].tier is Tier.SIMPLE_MULTI
    assert by_id["single_robot_minimal"].tier is Tier.SINGLE_ROBOT
    for task in tasks:
        gt = task.instance.ground_truth
        assert gt is not None and gt.schedule is not None
    assert by_id["simple_multi_relay"].instance.ground_truth.schedule.makespan == 6


def test_a_plan_faster_than_a_serial_reference_scores_one():
    # A serial stored schedule (one operation per step) is a feasible
    # reference; the plan's FIFO schedule beats it, which is no fault.
    task = generate_instance(Tier.SIMPLE_MULTI, 1)
    gt = task.ground_truth
    steps = gt.schedule.start_steps
    order = sorted(steps, key=steps.__getitem__)
    serial = ScheduleRecord(
        start_steps={op_id: i for i, op_id in enumerate(order)},
        makespan=len(order),
        source="fifo",
    )
    task = task._replace(ground_truth=gt._replace(schedule=serial))
    bench_task = BenchTask("serial_reference", Tier.SIMPLE_MULTI, task)
    [row] = run_benchmark([bench_task], GroundTruthPlanner()).results
    assert row.report.metadata["gt_makespan"] == len(order) == 10
    assert row.report.metadata["generated_makespan"] < len(order)
    assert row.error is None
    assert [getattr(row.report, key) for key in METRIC_FIELDS] == [1.0] * 5
