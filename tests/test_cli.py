"""End-to-end checks of the console entry point.

Everything goes through main(argv) so the exit codes and the text on
stdout/stderr are what a shell user would see.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shopfloor.cli
import shopfloor.solve
from shopfloor.cli import main
from shopfloor.executor import parse_trace
from shopfloor.graph import build_graph, to_dot
from shopfloor.metrics import METRIC_FIELDS
from shopfloor.model import SCHEDULE_RECORD, load_task_instance, serialize_task_instance
from shopfloor.planner import (
    GroundTruthPlanner,
    LlmConfig,
    LlmPlanner,
    RecordedTransport,
    parse_planner_text,
    render_planner_text,
)

from conftest import chat_reply, unscheduled_task


@pytest.fixture
def task_file(tmp_path, capsys):
    exit_code = main(
        ["generate", "--tier", "single_robot", "--seed", "3",
         "--out", str(tmp_path / "task.json")]
    )
    assert exit_code == 0
    capsys.readouterr()  # drop the progress line so tests see only their own output
    return tmp_path / "task.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_no_command_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "required" in err or "command" in err


def test_unknown_flag_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "task.json", "--frobnicate")
    assert code == 1
    assert "frobnicate" in err


def test_generate_without_target_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate")
    assert code == 1
    assert "--tier or --suite" in err


def test_missing_task_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/task.json")
    assert code == 2
    assert "cannot read task file" in err


def test_unparseable_task_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 2
    assert "invalid task file" in err


def test_non_utf8_input_file_exits_2(capsys, task_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert (code, out) == (2, "")
    assert f"invalid task file {bad}: {bad}: task file is not UTF-8" in err
    code, out, err = run_cli(capsys, "execute", str(task_file), "--schedule", str(bad))
    assert (code, out) == (2, "")
    assert f"invalid schedule file {bad}: not UTF-8" in err


# A document nested past the decoder's recursion limit, and one holding an
# integer longer than int() converts: json.loads raises RecursionError and
# ValueError on them, not JSONDecodeError.
HOSTILE_JSON = pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"makespan": ' + "9" * 5_000 + "}"], ids=["nesting", "long_integer"]
)


@HOSTILE_JSON
def test_hostile_task_file_exits_2(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    for command in ("evaluate", "gantt", "solve"):
        code, out, err = run_cli(capsys, command, str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"invalid task file {bad}: {bad}: ")


@HOSTILE_JSON
def test_hostile_schedule_file_exits_2(capsys, task_file, tmp_path, text):
    bad = tmp_path / "schedule.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "execute", str(task_file), "--schedule", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid schedule file {bad}: {bad}: ")


@HOSTILE_JSON
def test_run_over_a_hostile_task_file_exits_2(capsys, tmp_path, text):
    suite = tmp_path / "suite"
    suite.mkdir()
    bad = suite / "single_robot_bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--tasks", str(suite))
    assert (code, out) == (2, "")
    assert err.startswith(f"{bad}: ")


@pytest.fixture
def bare_task_file(task_file):
    """The generated task with its ground truth removed."""
    doc = json.loads(task_file.read_text(encoding="utf-8"))
    del doc["ground_truth"]
    bare = task_file.parent / "bare" / "single_robot_bare.json"
    bare.parent.mkdir()
    bare.write_text(json.dumps(doc), encoding="utf-8")
    return bare


@pytest.mark.parametrize(
    "argv",
    [["plan"], ["evaluate"], ["solve"], ["solve", "--optimal"], ["assemble"],
     ["execute"], ["gantt"]],
)
def test_task_without_ground_truth_exits_2(capsys, bare_task_file, argv):
    code, out, err = run_cli(capsys, argv[0], str(bare_task_file), *argv[1:])
    assert (code, out) == (2, "")
    assert "task file carries no ground truth" in err


def test_a_ground_truth_naming_a_reserved_vertex_exits_2(capsys, task_file):
    text = task_file.read_text(encoding="utf-8")
    assert '"o1"' in text
    task_file.write_text(text.replace('"o1"', '"__source__"'), encoding="utf-8")
    for command in ("graph", "evaluate"):
        code, out, err = run_cli(capsys, command, str(task_file))
        assert (code, out) == (2, "")
        assert err == (
            f"invalid task file {task_file}: "
            "operation id '__source__' collides with a reserved vertex\n"
        )


def test_run_over_a_task_without_ground_truth_exits_2(capsys, bare_task_file):
    code, out, err = run_cli(capsys, "run", "--tasks", str(bare_task_file.parent))
    assert (code, out) == (2, "")
    assert f"{bare_task_file}: task file carries no ground truth" in err


def test_llm_plan_needs_no_ground_truth(capsys, task_file, bare_task_file, monkeypatch):
    gt = load_task_instance(task_file).ground_truth
    reply = render_planner_text(gt.operations, gt.allocation, gt.precedence)
    planner = LlmPlanner(LlmConfig(base_url="http://x", model="m"), RecordedTransport([reply]))
    monkeypatch.setattr("shopfloor.cli._planner", lambda name: planner)
    code, out, _ = run_cli(capsys, "plan", str(bare_task_file), "--planner", "llm")
    assert (code, out) == (0, reply)


def test_run_needs_a_task_source(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 1
    assert "--tasks or --bundled" in err


def test_generate_with_both_targets_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "generate", "--tier", "single_robot", "--seed", "3",
        "--out", str(tmp_path / "x.json"), "--suite", str(tmp_path / "s"),
    )
    assert (code, out) == (1, "")
    assert "argument --suite: not allowed with argument --tier" in err
    assert list(tmp_path.iterdir()) == []


def test_run_with_both_task_sources_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run", "--tasks", str(tmp_path), "--bundled")
    assert (code, out) == (1, "")
    assert "argument --bundled: not allowed with argument --tasks" in err


def test_run_on_missing_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", "--tasks", str(tmp_path / "nowhere"))
    assert code == 2
    assert "task directory not found" in err


def test_run_on_a_directory_without_task_files_exits_2(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("no tasks here", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--tasks", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"no task files in {tmp_path}" in err


def test_execute_with_an_unreadable_schedule_file_exits_2(capsys, task_file, tmp_path):
    code, out, err = run_cli(
        capsys, "execute", str(task_file), "--schedule", str(tmp_path / "missing.json")
    )
    assert (code, out) == (2, "")
    assert "cannot read schedule file" in err


def test_an_invalid_served_plan_exits_1_with_each_violation(
    capsys, task_file, tmp_path, endpoint, monkeypatch
):
    reply = "```OPERATIONS\nx1 | transport | w9 | nowhere | conveyor\n```\n"
    endpoint.answer(chat_reply(reply))
    monkeypatch.setenv("SHOPFLOOR_LLM_BASE_URL", endpoint.url)
    monkeypatch.setenv("SHOPFLOOR_LLM_MODEL", "m")
    out_file = tmp_path / "reply.txt"
    code, out, err = run_cli(
        capsys, "plan", str(task_file), "--planner", "llm", "--out", str(out_file)
    )
    scene = load_task_instance(task_file).scene
    violations = parse_planner_text(reply, scene).report.violations
    assert (code, out) == (1, "")
    assert len(violations) == 2
    assert err.splitlines() == [f"violation: {v}" for v in violations]
    assert out_file.read_text(encoding="utf-8") == reply


def test_llm_planner_without_env_exits_1(capsys, task_file, monkeypatch):
    monkeypatch.delenv("SHOPFLOOR_LLM_BASE_URL", raising=False)
    code, _, err = run_cli(capsys, "plan", str(task_file), "--planner", "llm")
    assert code == 1
    assert "PlannerUnavailable" in err


def test_llm_planner_with_bad_timeout_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("SHOPFLOOR_LLM_BASE_URL", "http://localhost:9/v1")
    monkeypatch.setenv("SHOPFLOOR_LLM_MODEL", "m")
    monkeypatch.setenv("SHOPFLOOR_LLM_TIMEOUT", "abc")
    code, _, err = run_cli(capsys, "run", "--bundled", "--planner", "llm")
    assert code == 1
    assert "PlannerUnavailable" in err and "SHOPFLOOR_LLM_TIMEOUT" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_single_task_round_trips(task_file):
    task = load_task_instance(task_file)
    assert task.ground_truth is not None
    assert task.ground_truth.schedule is not None


def test_generate_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "generate", "--tier", "simple_multi", "--seed", "7")
    assert code == 0
    assert "simple_multi_0007.json" in out
    assert (tmp_path / "simple_multi_0007.json").exists()


def test_generate_to_dev_null_exits_0(capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--tier", "single_robot", "--seed", "0", "--out", os.devnull
    )
    assert code == 0
    assert out == f"wrote {os.devnull}\n"


def test_generate_suite_writes_all_tiers(tmp_path, capsys):
    suite = tmp_path / "suite"
    code, out, _ = run_cli(
        capsys, "generate", "--suite", str(suite), "--per-tier", "2"
    )
    assert code == 0
    assert "wrote 6 task files" in out
    names = sorted(p.name for p in suite.glob("*.json"))
    assert names == [
        "complex_multi_0000.json",
        "complex_multi_0001.json",
        "simple_multi_0000.json",
        "simple_multi_0001.json",
        "single_robot_0000.json",
        "single_robot_0001.json",
    ]


def test_generate_suite_tier_filter(tmp_path, capsys):
    suite = tmp_path / "suite"
    code, _, _ = run_cli(
        capsys, "generate", "--suite", str(suite), "--per-tier", "1",
        "--tiers", "single_robot",
    )
    assert code == 0
    assert [p.name for p in sorted(suite.glob("*.json"))] == ["single_robot_0000.json"]


def test_generate_suite_unknown_tier_is_a_usage_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "generate", "--suite", str(tmp_path / "suite"), "--tiers", "single_robot,bogus"
    )
    assert (code, out) == (1, "")
    assert "invalid tiers 'single_robot,bogus'" in err
    assert "single_robot, simple_multi, complex_multi" in err
    assert not (tmp_path / "suite").exists()


@pytest.mark.parametrize("per_tier", ["0", "-2", "two"])
def test_generate_suite_with_fewer_than_one_per_tier_is_a_usage_error(
    capsys, tmp_path, per_tier
):
    code, out, err = run_cli(
        capsys, "generate", "--suite", str(tmp_path / "suite"), "--per-tier", per_tier
    )
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert f"argument --per-tier: expected a whole number of at least 1, got '{per_tier}'" in err
    assert not (tmp_path / "suite").exists()


# ---------------------------------------------------------------------------
# plan / solve / assemble / execute / gantt


def test_plan_prints_the_three_sections(capsys, task_file):
    code, out, _ = run_cli(capsys, "plan", str(task_file))
    assert code == 0
    for section in ("```OPERATIONS", "```ALLOCATION", "```PRECEDENCE"):
        assert section in out


def test_solve_emits_a_valid_record(capsys, task_file, tmp_path):
    out_file = tmp_path / "record.json"
    code, _, _ = run_cli(capsys, "solve", str(task_file), "--out", str(out_file))
    assert code == 0
    record = SCHEDULE_RECORD.load(json.loads(out_file.read_text()), "schedule")
    task = load_task_instance(task_file)
    assert record.makespan == task.ground_truth.schedule.makespan


def test_solve_optimal_matches_generated_record(capsys, task_file):
    code, out, _ = run_cli(capsys, "solve", str(task_file), "--optimal")
    assert code == 0
    record = SCHEDULE_RECORD.load(json.loads(out), "schedule")
    assert record.source == "optimal"
    task = load_task_instance(task_file)
    assert record.makespan == task.ground_truth.schedule.makespan


def test_graph_prints_the_ground_truth_dot(capsys, task_file, bare_task_file, tmp_path):
    task = load_task_instance(task_file)
    gt = task.ground_truth
    dot = to_dot(build_graph(gt.operations, gt.precedence, gt.allocation, task.scene))
    assert run_cli(capsys, "graph", str(task_file)) == (0, dot, "")
    out_file = tmp_path / "graph.dot"
    assert run_cli(capsys, "graph", str(task_file), "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text(encoding="utf-8") == dot
    code, out, err = run_cli(capsys, "graph", str(bare_task_file))
    assert (code, out) == (2, "")
    assert "task file carries no ground truth" in err
    code, out, err = run_cli(capsys, "graph", str(tmp_path / "missing.json"))
    assert (code, out) == (2, "")
    assert "cannot read task file" in err


def test_out_over_a_longer_file_leaves_no_stale_tail(capsys, task_file, tmp_path):
    _, printed, _ = run_cli(capsys, "solve", str(task_file))
    out = tmp_path / "schedule.json"
    out.write_text(printed * 20, encoding="utf-8")
    code, _, _ = run_cli(capsys, "solve", str(task_file), "--out", str(out))
    assert code == 0
    assert out.read_text(encoding="utf-8") == printed


def test_solve_to_an_unwritable_path_exits_1(capsys, task_file, tmp_path):
    target = tmp_path / "missing_dir" / "x.json"
    code, out, err = run_cli(capsys, "solve", str(task_file), "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("cannot write output: ") and "No such file" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_into_an_existing_file_exits_1(capsys, tmp_path):
    target = tmp_path / "results"
    target.write_text("not a directory", encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--bundled", "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("cannot write output: ") and "File exists" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert target.read_text(encoding="utf-8") == "not a directory"


def test_assemble_emits_program_json(capsys, task_file):
    code, out, _ = run_cli(capsys, "assemble", str(task_file))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"calls", "wrappers", "executions"}
    task = load_task_instance(task_file)
    assert len(doc["calls"]) == len(task.ground_truth.operations)


def test_execute_emits_trace_and_summary(capsys, task_file):
    code, out, err = run_cli(capsys, "execute", str(task_file))
    assert code == 0
    trace = parse_trace(out)
    task = load_task_instance(task_file)
    assert len(trace) == task.ground_truth.schedule.makespan
    assert "executed fully: True" in err
    assert "status delta" in err


def test_execute_with_explicit_schedule_file(capsys, task_file, tmp_path):
    record_file = tmp_path / "record.json"
    assert main(["solve", str(task_file), "--out", str(record_file)]) == 0
    capsys.readouterr()
    trace_file = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys, "execute", str(task_file),
        "--schedule", str(record_file), "--trace", str(trace_file),
    )
    assert code == 0
    assert out == ""
    assert parse_trace(trace_file.read_text())
    assert "executed fully: True" in err


def _slow_record(doc):
    """The schedule record of a task document with its last operation moved
    to step 10**6: every step in between starts nothing."""
    record = doc["ground_truth"]["schedule"]
    steps = record["start_steps"]
    steps[max(steps, key=steps.get)] = 10**6
    record["makespan"] = 10**6 + 1
    return record, (
        f"schedule record claims makespan {10**6 + 1} for {len(steps)} operations; "
        f"a step would start none"
    )


@pytest.mark.parametrize("fault", ["swap", "negative", "slow"])
def test_execute_rejects_an_infeasible_schedule_file(capsys, task_file, tmp_path, fault):
    task = load_task_instance(task_file)
    first, second = next(
        c for c in task.ground_truth.precedence.chains.values() if len(c) >= 2
    )[:2]
    record = json.loads(task_file.read_text())["ground_truth"]["schedule"]
    steps = record["start_steps"]
    if fault == "swap":
        steps[first], steps[second] = steps[second], steps[first]
        expected = f"chain arcs backwards: '{first}' -> '{second}'"
    elif fault == "negative":
        steps[first] = -1
        expected = f"before step 0: {first}"
    else:
        record, expected = _slow_record(json.loads(task_file.read_text()))
    record_file = tmp_path / "record.json"
    record_file.write_text(json.dumps(record))
    code, out, err = run_cli(capsys, "execute", str(task_file), "--schedule", str(record_file))
    assert code == 1
    assert out == ""
    assert expected in err


@pytest.mark.parametrize(
    "command, flag, doc, expected",
    [
        ("execute", "--schedule", {"start_steps": {}, "makespan": "x"},
         "bad.json.makespan: expected an integer, got str"),
        ("gantt", "--schedule", {"start_steps": {}, "makespan": "x"},
         "bad.json.makespan: expected an integer, got str"),
        ("execute", "--program", {"calls": [], "wrappers": {}},
         "bad.json: missing required key 'executions'"),
    ],
)
def test_mis_shaped_input_file_exits_2(capsys, task_file, tmp_path, command, flag, doc, expected):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(task_file), flag, str(bad))
    assert code == 2
    assert out == ""
    assert f"invalid {flag[2:]} file {bad}: " in err and expected in err


def test_gantt_text_to_stdout_and_svg_to_file(capsys, task_file, tmp_path):
    svg_file = tmp_path / "chart.svg"
    code, out, _ = run_cli(capsys, "gantt", str(task_file), "--svg", str(svg_file))
    assert code == 0
    assert "robot" in out
    assert svg_file.read_text().startswith("<svg")


def test_a_task_without_a_stored_schedule_shows_the_scored_schedule(capsys, tmp_path):
    # FIFO in plan order takes 4 steps on this task; the exact solve that
    # evaluate scores against takes 3.
    task = unscheduled_task()
    task_file = tmp_path / "task.json"
    task_file.write_text(serialize_task_instance(task), encoding="utf-8")

    code, out, _ = run_cli(capsys, "evaluate", str(task_file))
    assert code == 0
    makespan = json.loads(out)["metadata"]["gt_makespan"]
    assert makespan == 3
    code, out, err = run_cli(capsys, "execute", str(task_file))
    assert code == 0
    assert len(parse_trace(out)) == makespan
    assert f"executed fully: True; makespan {makespan};" in err
    code, out, _ = run_cli(capsys, "gantt", str(task_file))
    assert code == 0
    header = out.splitlines()[0]
    assert [cell.strip() for cell in header.split("|")[1:]] == [str(s) for s in range(makespan)]


# ---------------------------------------------------------------------------
# evaluate / run


def test_evaluate_scores_all_ones_for_ground_truth(capsys, task_file):
    code, out, _ = run_cli(capsys, "evaluate", str(task_file))
    assert code == 0
    doc = json.loads(out)
    for key in (
        "operation_consistency",
        "scheduling_efficiency",
        "executability",
        "goal_condition_recall",
        "success_rate",
    ):
        assert doc[key] == 1.0
    assert doc["error"] is None


def test_a_bare_interpreter_scores_a_served_plan(endpoint):
    # -S leaves site-packages off the path: the remote planner runs on the
    # standard library alone.
    src = Path(shopfloor.cli.__file__).resolve().parents[1]
    task_path = src / "shopfloor" / "data" / "tasks" / "simple_multi_relay.json"
    gt = load_task_instance(task_path).ground_truth
    plan = render_planner_text(gt.operations, gt.allocation, gt.precedence)
    endpoint.answer(chat_reply(f"Sure. The plan:\n\n{plan}\nEach robot stays in reach."))
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "SHOPFLOOR_LLM_BASE_URL": endpoint.url,
        "SHOPFLOOR_LLM_MODEL": "m",
    }
    result = subprocess.run(
        [sys.executable, "-S", "-m", "shopfloor.cli", "evaluate", str(task_path),
         "--planner", "llm"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert [doc[key] for key in METRIC_FIELDS] == [1.0] * 5
    assert doc["error"] is None
    assert len(endpoint.received) == 1


def test_evaluate_writes_its_report_and_exits_1_on_invalid_ground_truth(
    capsys, task_file, tmp_path
):
    # Swapping the first two chain steps leaves the stored schedule running
    # that chain backwards, so the ground truth cannot be replayed.
    doc = json.loads(task_file.read_text(encoding="utf-8"))
    chain = doc["ground_truth"]["precedence"]["w1"]
    chain[0], chain[1] = chain[1], chain[0]
    task_file.write_text(json.dumps(doc), encoding="utf-8")
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "evaluate", str(task_file), "--out", str(out_file))
    assert code == 1
    assert out == ""
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["error"] == (
        f"ground truth invalid: schedule record runs chain arcs backwards: "
        f"'{chain[0]}' -> '{chain[1]}'"
    )
    assert report["success_rate"] == 0.0


def test_evaluate_exits_1_on_a_schedule_slower_than_one_operation_per_step(
    capsys, task_file, tmp_path
):
    doc = json.loads(task_file.read_text(encoding="utf-8"))
    _, expected = _slow_record(doc)
    task_file.write_text(json.dumps(doc), encoding="utf-8")
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "evaluate", str(task_file), "--out", str(out_file))
    assert (code, out) == (1, "")
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["error"] == f"ground truth invalid: {expected}"
    assert report["success_rate"] == 0.0


def test_evaluate_exits_1_on_a_ground_truth_that_does_not_run_fully(capsys, tmp_path):
    # The stored program of simple_multi seed 3 on robots without a
    # polisher: it runs, but o4 never completes.
    task_file, program_file = tmp_path / "task.json", tmp_path / "program.json"
    assert main(["generate", "--tier", "simple_multi", "--seed", "3", "--out", str(task_file)]) == 0
    assert main(["assemble", str(task_file), "--out", str(program_file)]) == 0
    capsys.readouterr()
    doc = json.loads(task_file.read_text(encoding="utf-8"))
    doc["ground_truth"]["program"] = json.loads(program_file.read_text(encoding="utf-8"))
    for robot in doc["scene"]["robots"]:
        robot["devices"].remove("polisher")
    task_file.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "evaluate", str(task_file))
    assert code == 1
    report = json.loads(out)
    assert report["error"] == (
        "ground truth invalid: ground truth does not execute fully: "
        "operation 'o4' fails with missing_device"
    )
    assert [report[key] for key in METRIC_FIELDS] == [0.0] * 5


def test_a_line_separator_inside_a_robot_id_is_kept(capsys, tmp_path):
    # U+2028 is a line break to str.splitlines, but not to the plan text or
    # the trace, which split on LF alone.
    task_file, trace_file = tmp_path / "task.json", tmp_path / "trace.jsonl"
    assert main(["generate", "--tier", "simple_multi", "--seed", "3", "--out", str(task_file)]) == 0
    capsys.readouterr()
    text = task_file.read_text(encoding="utf-8").replace('"r1"', '"r\u20281"')
    task_file.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "evaluate", str(task_file))
    assert code == 0
    report = json.loads(out)
    assert report["error"] is None
    assert [report[key] for key in METRIC_FIELDS] == [1.0] * 5
    code, _, err = run_cli(capsys, "execute", str(task_file), "--trace", str(trace_file))
    assert code == 0
    assert "executed fully: True" in err
    trace = parse_trace(trace_file.read_text(encoding="utf-8"))
    robots = {run.robot for record in trace for run in record.operations}
    assert "r\u20281" in robots


def test_run_bundled_all_ones(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys, "run", "--bundled", "--out", str(out_dir)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["overall"]["success_rate"] == 1.0
    assert summary["task_count"] == 2
    assert (out_dir / "suite.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_run_on_generated_directory(capsys, tmp_path):
    suite = tmp_path / "suite"
    assert main(["generate", "--suite", str(suite), "--per-tier", "1"]) == 0
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "run", "--tasks", str(suite))
    assert code == 0
    summary = json.loads(out)
    assert summary["task_count"] == 3
    assert summary["overall"]["success_rate"] == 1.0
    assert summary["errors"] == 0


def test_run_scores_a_task_with_invalid_ground_truth_zero_and_exits_1(capsys, tmp_path):
    suite = tmp_path / "suite"
    assert main(["generate", "--suite", str(suite), "--per-tier", "2",
                 "--tiers", "single_robot"]) == 0
    capsys.readouterr()
    # Swapping the first two chain steps leaves the stored schedule running
    # that chain backwards, so the ground truth cannot be replayed.
    broken = suite / "single_robot_0001.json"
    doc = json.loads(broken.read_text(encoding="utf-8"))
    chain = doc["ground_truth"]["precedence"]["w1"]
    chain[0], chain[1] = chain[1], chain[0]
    broken.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "run", "--tasks", str(suite), "--out", str(out_dir))
    assert code == 1
    assert "ground truth invalid in: single_robot_0001" in err
    summary = json.loads(out)
    assert summary == json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert (summary["task_count"], summary["errors"]) == (2, 1)
    assert summary["overall"]["success_rate"] == 0.5
    valid = json.loads((out_dir / "single_robot_0000.metrics.json").read_text(encoding="utf-8"))
    assert (valid["error"], valid["success_rate"]) == (None, 1.0)
    invalid = json.loads((out_dir / "single_robot_0001.metrics.json").read_text(encoding="utf-8"))
    assert invalid["error"] == (
        f"ground truth invalid: schedule record runs chain arcs backwards: "
        f"'{chain[0]}' -> '{chain[1]}'"
    )
    for key in ("operation_consistency", "scheduling_efficiency", "executability",
                "goal_condition_recall", "success_rate"):
        assert invalid[key] == 0.0


def test_run_scores_an_unsolvable_unscheduled_task_zero_and_exits_1(
    capsys, tmp_path, monkeypatch
):
    suite = tmp_path / "suite"
    assert main(["generate", "--suite", str(suite), "--per-tier", "2",
                 "--tiers", "single_robot"]) == 0
    capsys.readouterr()
    # Without a stored schedule the ground truth is solved exactly, and a
    # budget of two subsets cannot solve it.
    unscheduled = suite / "single_robot_0001.json"
    doc = json.loads(unscheduled.read_text(encoding="utf-8"))
    del doc["ground_truth"]["schedule"]
    unscheduled.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(shopfloor.solve, "SEARCH_BUDGET", 2)
    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "run", "--tasks", str(suite), "--out", str(out_dir))
    assert code == 1
    assert "ground truth invalid in: single_robot_0001" in err
    assert json.loads(out)["overall"]["success_rate"] == 0.5
    invalid = json.loads((out_dir / "single_robot_0001.metrics.json").read_text(encoding="utf-8"))
    assert invalid["error"] == (
        f"ground truth invalid: exact search gave up after 2 subsets on "
        f"{len(doc['ground_truth']['operations'])} operations"
    )
    assert invalid["success_rate"] == 0.0


class _FailsOnSecondTask(GroundTruthPlanner):
    """The ground-truth planner, except that its second call raises."""

    calls = 0

    def plan(self, task):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("planner bug")
        return super().plan(task)


def test_run_scores_a_task_whose_planner_raises_zero_and_exits_1(
    capsys, tmp_path, monkeypatch
):
    suite = tmp_path / "suite"
    assert main(["generate", "--suite", str(suite), "--per-tier", "2",
                 "--tiers", "single_robot"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(shopfloor.cli, "_planner", lambda name: _FailsOnSecondTask())
    out_dir = tmp_path / "results"
    code, out, err = run_cli(capsys, "run", "--tasks", str(suite), "--out", str(out_dir))
    assert code == 1
    assert "internal error in: single_robot_0001" in err
    assert "RuntimeError: planner bug" in err  # the traceback
    summary = json.loads(out)
    assert summary == json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert (summary["task_count"], summary["errors"]) == (2, 1)
    assert summary["overall"]["success_rate"] == 0.5
    valid = json.loads((out_dir / "single_robot_0000.metrics.json").read_text(encoding="utf-8"))
    assert (valid["error"], valid["success_rate"]) == (None, 1.0)
    failed = json.loads((out_dir / "single_robot_0001.metrics.json").read_text(encoding="utf-8"))
    assert failed["error"] == "internal error: RuntimeError: planner bug"
    for key in ("operation_consistency", "scheduling_efficiency", "executability",
                "goal_condition_recall", "success_rate"):
        assert failed[key] == 0.0
    assert (out_dir / "suite.csv").read_text(encoding="utf-8").count("\n") == 3


def test_run_rejects_oddly_named_task_files(capsys, tmp_path):
    suite = tmp_path / "suite"
    suite.mkdir()
    assert main(
        ["generate", "--tier", "single_robot", "--seed", "0",
         "--out", str(suite / "mystery.json")]
    ) == 0
    capsys.readouterr()
    code, _, err = run_cli(capsys, "run", "--tasks", str(suite))
    assert code == 2
    assert "cannot infer a tier" in err