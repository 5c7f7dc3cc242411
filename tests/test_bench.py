"""Instance generation, suite files, and the benchmark runner."""

from __future__ import annotations

import json

import pytest

import shopfloor.bench as bench
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
from shopfloor.errors import GenerationRetryExhausted, PlannerUnavailable
from shopfloor.graph import build_graph
from shopfloor.metrics import ground_truth_run
from shopfloor.model import serialize_task_instance
from shopfloor.planner import GroundTruthPlanner, LlmConfig, LlmPlanner, RecordedTransport
from shopfloor.solve import solve_fifo

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


def test_retry_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(bench, "_acceptable", lambda task, tree: False)
    with pytest.raises(GenerationRetryExhausted, match="after 8 attempts"):
        generate_instance(Tier.SINGLE_ROBOT, 0)


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


class RefusingPlanner:
    def plan(self, task):
        from shopfloor.planner import parse_planner_text

        return parse_planner_text("I cannot plan this.", task.scene)


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
