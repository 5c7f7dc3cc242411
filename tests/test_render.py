"""Every codec renders its text straight from the typed value: the text is
the stdlib's indent layout of itself and loads back to an equal value, and
a trace line is the stdlib's one-line layout. A value of the wrong type
renders or raises by its own type, as canonical_json treats it."""

from __future__ import annotations

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shopfloor.bench import Tier, generate_instance
from shopfloor.executor import (
    FAILURE,
    OPERATION_RUN,
    STEP_RECORD,
    execute,
    parse_trace,
    trace_to_jsonl,
)
from shopfloor.graph import build_graph
from shopfloor.model import (
    ALLOCATION,
    GROUND_TRUTH,
    MACHINE,
    OPERATION,
    PRECEDENCE,
    PROGRAM,
    PROGRAM_CALL,
    ROBOT,
    SCENE,
    SCHEDULE_RECORD,
    SKILL_CALL,
    TASK,
    WORKPIECE,
    WRAPPER,
    Allocation,
    GroundTruth,
    Operation,
    OperationType,
    Robot,
    Scene,
    ScheduleRecord,
    SkillCall,
    TaskInstance,
    parse_task_instance,
)
from shopfloor.solve import solve_fifo
from shopfloor.tree import TREE, TREE_NODE, assemble_program, load_reference_tree

from strategies import generated_triples, plan_triples

REFERENCE_TREE = load_reference_tree()

# Free text: arbitrary code points, lone surrogates included, and the
# characters JSON escapes.
_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfffé€'),
))


def assert_renders(codec, value):
    """codec's text of value is the stdlib's indent layout of its own JSON
    value and loads back to value. Values here keep their collections in
    the order the text lists them (a scene's entities by id)."""
    text = codec.serialize(value)
    data = json.loads(text)
    assert text == json.dumps(data, indent=2, ensure_ascii=False) + "\n"
    assert codec.load(data, "doc") == value


def assert_renders_all(task: TaskInstance):
    assert_renders(TASK, task)
    scene, gt = task.scene, task.ground_truth
    assert_renders(SCENE, scene)
    for codec, items in ((ROBOT, scene.robots), (MACHINE, scene.machines),
                         (WORKPIECE, scene.workpieces)):
        for item in items:
            assert_renders(codec, item)
    if gt is None:
        return
    assert_renders(GROUND_TRUTH, gt)
    for op in gt.operations:
        assert_renders(OPERATION, op)
    assert_renders(ALLOCATION, gt.allocation)
    assert_renders(PRECEDENCE, gt.precedence)
    if gt.schedule is not None:
        assert_renders(SCHEDULE_RECORD, gt.schedule)
    if gt.program is not None:
        assert_renders(PROGRAM, gt.program)
        for call in gt.program.calls:
            assert_renders(PROGRAM_CALL, call)
        for wrapper in gt.program.wrappers.values():
            assert_renders(WRAPPER, wrapper)
        for skills in gt.program.executions.values():
            for skill in skills:
                assert_renders(SKILL_CALL, skill)


@st.composite
def tasks(draw):
    """A task over a random plan, with free text in every text field that
    carries no reference, and each optional part present or not."""
    ops, alloc, prec, scene = draw(plan_triples())
    scene = Scene(
        robots=scene.robots,
        machines=tuple(m._replace(name=draw(_TEXT)) for m in scene.machines),
        workpieces=tuple(w._replace(kind=draw(_TEXT)) for w in scene.workpieces),
    )
    schedule = ScheduleRecord(
        start_steps={op.id: draw(st.integers(0, 99)) for op in ops},
        makespan=draw(st.integers(-(10 ** 30), 10 ** 30)),
        source=draw(st.none() | _TEXT),
    )
    program = assemble_program(REFERENCE_TREE, ops, alloc, scene)
    gt = GroundTruth(
        tuple(ops), alloc, prec,
        program=draw(st.sampled_from([None, program])),
        schedule=draw(st.sampled_from([None, schedule])),
    )
    return TaskInstance(scene, draw(_TEXT), draw(st.sampled_from([None, gt])))


@settings(max_examples=150, deadline=None)
@given(tasks())
def test_every_codec_renders_the_stdlib_layout_and_loads_back(task):
    assert_renders_all(task)


def test_bundled_tasks_and_the_reference_tree_render_the_stdlib_layout():
    data = resources.files("shopfloor").joinpath("data")
    for name in ("tasks/simple_multi_relay.json", "tasks/single_robot_minimal.json"):
        task = parse_task_instance(data.joinpath(name).read_text(encoding="utf-8"))
        assert_renders_all(task)
    text = TREE.serialize(REFERENCE_TREE)
    assert text == data.joinpath("process_tree.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
    for node in REFERENCE_TREE.nodes.values():
        assert_renders(TREE_NODE, node)


@settings(max_examples=60, deadline=None)
@given(generated_triples(), st.data())
def test_every_trace_line_is_the_stdlib_one_line_layout(triple, data):
    # robots that lose some devices fail operations, so traces carry
    # failures as well as runs
    ops, alloc, prec, scene = triple
    program = assemble_program(REFERENCE_TREE, ops, alloc, scene)
    devices = sorted(set().union(*(r.devices for r in scene.robots)))
    lost = data.draw(st.sets(st.sampled_from(devices)), label="lost devices")
    damaged = Scene(
        robots=tuple(r._replace(devices=r.devices - lost) for r in scene.robots),
        machines=scene.machines,
        workpieces=scene.workpieces,
    )
    graph = build_graph(ops, prec, alloc, scene)
    trace = execute(solve_fifo(graph, [op.id for op in ops]), program, damaged, ops).trace
    text = trace_to_jsonl(trace)
    assert parse_trace(text) == trace
    lines = text.split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(trace)
    for line, record in zip(lines, trace):
        assert line == json.dumps(json.loads(line), ensure_ascii=False)
        assert line == STEP_RECORD.render(record, "")
        for run in record.operations:
            rendered = OPERATION_RUN.render(run, "")
            assert rendered == json.dumps(json.loads(rendered), ensure_ascii=False)
        for failure in record.failures:
            rendered = FAILURE.render(failure, "")
            assert rendered == json.dumps(json.loads(rendered), ensure_ascii=False)


# ---------------------------------------------------------------------------
# values of the wrong type


class Text(str):
    pass


def test_a_bool_in_an_integer_field_renders_as_a_bool():
    record = ScheduleRecord(start_steps={"o1": True, "o2": 3}, makespan=False)
    assert json.loads(SCHEDULE_RECORD.serialize(record)) == {
        "start_steps": {"o1": True, "o2": 3}, "makespan": False,
    }
    assert '"o1": true' in SCHEDULE_RECORD.serialize(record)


def test_a_value_of_another_json_type_renders_by_its_own_type():
    op = Operation(7, OperationType.WELDING, ["w1"], "m1", None)
    assert json.loads(OPERATION.serialize(op)) == {
        "id": 7, "type": "welding", "workpiece": ["w1"], "machine_1": "m1",
    }


@pytest.mark.parametrize("codec, value", [
    (OPERATION, Operation(Text("o1"), OperationType.WELDING, "w1", "m1")),
    (SKILL_CALL, SkillCall("attach", ("{robot}", Text("{workpiece}")))),
    (ROBOT, Robot("r1", frozenset({Text("camera")}), frozenset())),
    (ALLOCATION, Allocation({"o1": Text("r1")})),
    (ALLOCATION, Allocation({1: "r1"})),
    (ALLOCATION, Allocation({"o1": "r1", 2: "r2"})),
    (SCHEDULE_RECORD, ScheduleRecord({None: 1}, 1)),
    (SCHEDULE_RECORD, ScheduleRecord({"o1": 1.0j}, 1)),
])
def test_a_str_subclass_a_non_str_key_or_a_non_json_value_raises_type_error(codec, value):
    with pytest.raises(TypeError):
        codec.serialize(value)
    with pytest.raises(TypeError):
        codec.render(value, "")


def test_every_tier_renders_the_stdlib_layout():
    # one generated task of each tier, with the exact solver's schedule,
    # its scene entities in id order
    for tier in Tier:
        task = generate_instance(tier, 1)
        scene = task.scene
        assert_renders_all(task._replace(scene=Scene(*(
            tuple(sorted(items, key=lambda item: item.id))
            for items in (scene.robots, scene.machines, scene.workpieces)
        ))))
